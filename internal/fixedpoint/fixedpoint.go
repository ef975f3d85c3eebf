// Package fixedpoint provides integer fixed-point arithmetic for the LFOC
// core. The paper implements LFOC inside the Linux kernel, where
// floating-point is off-limits ("our implementation of LFOC is free of any
// FP operation", §2.3.2); slowdown curves, thresholds and utility values are
// therefore represented as Q16.16 fixed-point integers throughout
// internal/core, and this package is the only arithmetic it uses.
//
// The format is signed Q16.16: value = raw / 65536. The dynamic range
// (±32767 with ~1.5e-5 resolution) comfortably covers slowdowns (1.0–20.0),
// MPKC values (0–1000) and IPC values (0–8).
package fixedpoint

import (
	"fmt"
	"math"
)

// Value is a signed Q16.16 fixed-point number.
type Value int64

// Shift is the number of fractional bits in a Value.
const Shift = 16

// One is the fixed-point representation of 1.0.
const One Value = 1 << Shift

// Half is the fixed-point representation of 0.5.
const Half Value = One / 2

// FromInt converts an integer to fixed point.
func FromInt(i int) Value { return Value(i) << Shift }

// FromRatio returns the fixed-point quotient num/den. den must be nonzero.
func FromRatio(num, den int64) Value {
	if den == 0 {
		panic("fixedpoint: division by zero in FromRatio")
	}
	return Value((num << Shift) / den)
}

// FromMilli converts a value expressed in thousandths (e.g. a slowdown of
// 1.03 passed as 1030) to fixed point.
func FromMilli(m int64) Value { return Value(m<<Shift) / 1000 }

// FromFloat converts a float64 to fixed point, rounding to nearest. It is
// intended for test code and for boundary conversion at the edge of the
// "kernel" (the core package itself never calls it).
func FromFloat(f float64) Value {
	return Value(math.Round(f * float64(One)))
}

// Float returns the float64 representation of v. Boundary/diagnostic use
// only.
func (v Value) Float() float64 { return float64(v) / float64(One) }

// Milli returns v expressed in thousandths, rounded to nearest.
func (v Value) Milli() int64 {
	if v >= 0 {
		return (int64(v)*1000 + int64(Half)) >> Shift
	}
	return -((int64(-v)*1000 + int64(Half)) >> Shift)
}

// Mul returns the fixed-point product a*b.
func Mul(a, b Value) Value { return Value((int64(a) * int64(b)) >> Shift) }

// Div returns the fixed-point quotient a/b. b must be nonzero.
func Div(a, b Value) Value {
	if b == 0 {
		panic("fixedpoint: division by zero in Div")
	}
	return Value((int64(a) << Shift) / int64(b))
}

// String formats v with three decimal places.
func (v Value) String() string {
	m := v.Milli()
	neg := ""
	if m < 0 {
		neg = "-"
		m = -m
	}
	return fmt.Sprintf("%s%d.%03d", neg, m/1000, m%1000)
}
