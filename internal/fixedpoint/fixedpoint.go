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

// Int returns v truncated toward zero to an integer.
func (v Value) Int() int {
	if v < 0 {
		return -int((-v) >> Shift)
	}
	return int(v >> Shift)
}

// Round returns v rounded to the nearest integer.
func (v Value) Round() int {
	if v >= 0 {
		return int((v + Half) >> Shift)
	}
	return -int((-v + Half) >> Shift)
}

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

// DivInt returns a divided by the integer n. n must be nonzero.
func DivInt(a Value, n int) Value {
	if n == 0 {
		panic("fixedpoint: division by zero in DivInt")
	}
	return a / Value(n)
}

// Sqrt returns the fixed-point square root of v using integer Newton
// iteration. It panics if v is negative.
func Sqrt(v Value) Value {
	if v < 0 {
		panic("fixedpoint: Sqrt of negative value")
	}
	if v == 0 {
		return 0
	}
	// Compute sqrt(raw << Shift) in the integer domain so the result is
	// again Q16.16: sqrt(v/2^16) * 2^16 == sqrt(v * 2^16).
	n := uint64(v) << Shift
	// Initial guess must be >= sqrt(n) for the monotone-descent exit test
	// below: with b the highest set bit, n < 2^(b+1), so
	// sqrt(n) < 2^((b+1)/2) <= 2^(b/2+1).
	x := uint64(1) << (bits64(n)/2 + 1)
	for {
		y := (x + n/x) / 2
		if y >= x {
			break
		}
		x = y
	}
	return Value(x)
}

// bits64 returns the position of the highest set bit of n (0-based), or 0
// for n == 0.
func bits64(n uint64) uint {
	var b uint
	for n > 1 {
		n >>= 1
		b++
	}
	return b
}

// Mean returns the arithmetic mean of vs, or 0 for an empty slice.
func Mean(vs []Value) Value {
	if len(vs) == 0 {
		return 0
	}
	var sum int64
	for _, v := range vs {
		sum += int64(v)
	}
	return Value(sum / int64(len(vs)))
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
