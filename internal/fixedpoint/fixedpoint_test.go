package fixedpoint

import (
	"math"
	"testing"
	"testing/quick"
)

func TestFromIntRoundTrip(t *testing.T) {
	for _, i := range []int{0, 1, -1, 42, -42, 32767, -32767} {
		if got := FromInt(i).Milli(); got != int64(i)*1000 {
			t.Errorf("FromInt(%d).Milli() = %d", i, got)
		}
	}
}

func TestFromRatio(t *testing.T) {
	cases := []struct {
		num, den int64
		want     float64
	}{
		{1, 2, 0.5},
		{3, 4, 0.75},
		{1030, 1000, 1.03},
		{-1, 4, -0.25},
		{10, 1, 10},
	}
	for _, c := range cases {
		got := FromRatio(c.num, c.den).Float()
		if math.Abs(got-c.want) > 1e-4 {
			t.Errorf("FromRatio(%d,%d) = %v, want %v", c.num, c.den, got, c.want)
		}
	}
}

func TestFromMilli(t *testing.T) {
	if got := FromMilli(1030).Float(); math.Abs(got-1.03) > 1e-4 {
		t.Errorf("FromMilli(1030) = %v", got)
	}
	if got := FromMilli(-500).Float(); math.Abs(got+0.5) > 1e-4 {
		t.Errorf("FromMilli(-500) = %v", got)
	}
}

func TestMilliRoundTrip(t *testing.T) {
	for _, m := range []int64{0, 1, 999, 1000, 1030, 1050, 123456, -1030} {
		if got := FromMilli(m).Milli(); got != m {
			t.Errorf("FromMilli(%d).Milli() = %d", m, got)
		}
	}
}

func TestMulDiv(t *testing.T) {
	a := FromFloat(1.5)
	b := FromFloat(2.5)
	if got := Mul(a, b).Float(); math.Abs(got-3.75) > 1e-4 {
		t.Errorf("Mul = %v", got)
	}
	if got := Div(b, a).Float(); math.Abs(got-5.0/3.0) > 1e-4 {
		t.Errorf("Div = %v", got)
	}
}

func TestDivByZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Div(One, 0)
}

func TestFromRatioByZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	FromRatio(1, 0)
}

func TestString(t *testing.T) {
	cases := []struct {
		v    Value
		want string
	}{
		{FromMilli(1030), "1.030"},
		{FromMilli(-1030), "-1.030"},
		{0, "0.000"},
		{FromInt(12), "12.000"},
	}
	for _, c := range cases {
		if got := c.v.String(); got != c.want {
			t.Errorf("String(%d) = %q, want %q", c.v, got, c.want)
		}
	}
}

// Property: Mul/Div are inverse operations within fixed-point tolerance.
func TestQuickMulDivInverse(t *testing.T) {
	f := func(a16, b16 int16) bool {
		a, b := Value(a16)<<Shift, Value(b16)<<Shift
		if b == 0 {
			return true
		}
		got := Div(Mul(a, b), b)
		return max(got-a, a-got) <= One // integer division error bound
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: FromRatio(a,b) ~ a/b.
func TestQuickFromRatio(t *testing.T) {
	f := func(a int32, b int32) bool {
		if b == 0 {
			return true
		}
		got := FromRatio(int64(a), int64(b)).Float()
		want := float64(a) / float64(b)
		return math.Abs(got-want) < 1e-3*math.Max(1, math.Abs(want))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: ordering is preserved by FromMilli.
func TestQuickFromMilliMonotone(t *testing.T) {
	f := func(a, b int32) bool {
		if a > b {
			a, b = b, a
		}
		return FromMilli(int64(a)) <= FromMilli(int64(b))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
