package metrics

import (
	"encoding/binary"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"
)

// The float64 values a text codec is most likely to bend, and ints at
// the edges of the int64 words they are stored in.
var (
	packedFloats = []float64{
		math.Float64frombits(0x7ff8_0000_dead_beef), // quiet NaN with a payload
		math.Inf(1), math.Inf(-1),
		math.Copysign(0, -1),
		math.SmallestNonzeroFloat64,
		math.Float64frombits(0x000f_ffff_ffff_ffff), // largest subnormal
		-math.MaxFloat64, 1.0 / 3, 0.1,
	}
	packedInts = []int{-1, math.MinInt, math.MaxInt, 0, 1<<53 + 1, -7, 42}
)

// fillPoint sets every field of the struct p points to, drawing from
// packedFloats and packedInts at an offset so points differ.
func fillPoint(p any, offset int) {
	v := reflect.ValueOf(p).Elem()
	for i := 0; i < v.NumField(); i++ {
		switch f := v.Field(i); f.Kind() {
		case reflect.Float64:
			f.SetFloat(packedFloats[(i+offset)%len(packedFloats)])
		case reflect.Int:
			f.SetInt(int64(packedInts[(i+offset)%len(packedInts)]))
		default:
			panic("unpackable field kind " + f.Kind().String())
		}
	}
}

// sameBits compares two values field by field, floats by their bits
// (reflect.DeepEqual calls NaN unequal to itself).
func sameBits(a, b reflect.Value) bool {
	switch a.Kind() {
	case reflect.Float64:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	case reflect.Int:
		return a.Int() == b.Int()
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if !sameBits(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	case reflect.Slice:
		if a.IsNil() != b.IsNil() || a.Len() != b.Len() {
			return false
		}
		for i := 0; i < a.Len(); i++ {
			if !sameBits(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	default:
		return a.Interface() == b.Interface()
	}
}

// Every field of every point survives pack, JSON and unpack bit for
// bit — NaN payloads, infinities, -0, subnormals, negative and extreme
// ints — idle windows fold back into the same runs, and a nil series
// stays nil while an empty one stays empty.
func TestPackedSeriesRoundTrip(t *testing.T) {
	wps := make([]WindowPoint, 2*windowWords)
	for i := range wps {
		fillPoint(&wps[i], i)
	}
	lps := make([]LifecyclePoint, 2*lifecycleWords)
	for i := range lps {
		fillPoint(&lps[i], i)
	}
	empty := WindowedSeries{Width: 0.01}
	empty.Grow(0)
	for _, in := range []any{
		*seriesOf(0.01, wps...),
		*seriesOf(0.01, idleStretches(0.01)...),
		WindowedSeries{Width: 0.01},
		empty,
		LifecycleSeries{Width: 0.5, Points: lps},
		LifecycleSeries{},
		LifecycleSeries{Width: 0.5, Points: []LifecyclePoint{}},
	} {
		var out any
		switch s := in.(type) {
		case WindowedSeries:
			out = jsonRoundTrip(t, s.Pack()).Unpack()
		case LifecycleSeries:
			out = jsonRoundTrip(t, s.Pack()).Unpack()
		}
		if !sameBits(reflect.ValueOf(out), reflect.ValueOf(in)) {
			t.Errorf("%T round trip:\n got %+v\nwant %+v", in, out, in)
		}
	}
}

func jsonRoundTrip[P any](t *testing.T, in P) P {
	t.Helper()
	raw, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var out P
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatalf("unmarshal %s: %v", raw, err)
	}
	return out
}

// The record layout is one little-endian 64-bit word per field, in
// struct field order: a point whose i-th field holds i+1 packs to the
// words 1, 2, 3, ... (floats by their IEEE bits).
func TestPackedSeriesLayout(t *testing.T) {
	check := func(t *testing.T, words int, point any, rec []byte) {
		t.Helper()
		v := reflect.ValueOf(point).Elem()
		if v.NumField() != words {
			t.Fatalf("%s has %d fields, the codec packs %d words", v.Type(), v.NumField(), words)
		}
		if len(rec) != 8*words {
			t.Fatalf("%s packs to %d bytes, want %d", v.Type(), len(rec), 8*words)
		}
		for i := 0; i < words; i++ {
			want := uint64(i + 1)
			if v.Field(i).Kind() == reflect.Float64 {
				want = math.Float64bits(float64(i + 1))
			}
			if got := binary.LittleEndian.Uint64(rec[8*i:]); got != want {
				t.Errorf("%s word %d (%s) = %#x, want %#x", v.Type(), i, v.Type().Field(i).Name, got, want)
			}
		}
	}
	// ordinal sets the i-th field of the struct p points to i+1.
	ordinal := func(p any) {
		v := reflect.ValueOf(p).Elem()
		for i := 0; i < v.NumField(); i++ {
			if f := v.Field(i); f.Kind() == reflect.Float64 {
				f.SetFloat(float64(i + 1))
			} else {
				f.SetInt(int64(i + 1))
			}
		}
	}
	var wp WindowPoint
	ordinal(&wp)
	check(t, windowWords, &wp, seriesOf(1, wp).Pack().Points)
	ls := LifecycleSeries{Width: 1, Points: make([]LifecyclePoint, 1)}
	ordinal(&ls.Points[0])
	check(t, lifecycleWords, &ls.Points[0], ls.Pack().Points)

	// Nil and empty series have distinct JSON forms.
	empty := WindowedSeries{Width: 0.01}
	empty.Grow(0)
	for _, tc := range []struct {
		packed any
		want   string
	}{
		{(&WindowedSeries{Width: 0.01}).Pack(), `{"width":0.01,"points":null}`},
		{empty.Pack(), `{"width":0.01,"points":""}`},
		{(&LifecycleSeries{Width: 0.01}).Pack(), `{"width":0.01,"points":null}`},
		{(&LifecycleSeries{Width: 0.01, Points: []LifecyclePoint{}}).Pack(), `{"width":0.01,"points":""}`},
	} {
		if raw, err := json.Marshal(tc.packed); err != nil || string(raw) != tc.want {
			t.Errorf("%T marshals to %s (%v), want %s", tc.packed, raw, err, tc.want)
		}
	}
}

// A record stream that is not a whole number of records is rejected
// while the JSON is read, not truncated or padded; so is bad base64.
func TestPackedSeriesRejectsMalformedPoints(t *testing.T) {
	// 104 zero bytes are one window record but not a whole number of
	// 112-byte lifecycle records.
	oneWindow := `{"width":1,"points":"` + strings.Repeat("A", 139) + `="}`
	var ws PackedWindowedSeries
	err := json.Unmarshal([]byte(oneWindow), &ws)
	if u := ws.Unpack(); err != nil || u.Len() != 1 {
		t.Fatalf("104-byte window stream: %v (%d points), want one point", err, u.Len())
	}
	for _, tc := range []struct {
		json, reason string
		into         any
	}{
		{`{"width":1,"points":"` + strings.Repeat("A", 140) + `"}`, "105 bytes is not a whole number of 104-byte records", &ws},
		{oneWindow, "104 bytes is not a whole number of 112-byte records", &PackedLifecycleSeries{}},
		{`{"width":1,"points":"A"}`, "illegal base64", &ws},
	} {
		if err := json.Unmarshal([]byte(tc.json), tc.into); err == nil || !strings.Contains(err.Error(), tc.reason) {
			t.Errorf("%.32s into %T: %v, want an error containing %q", tc.json, tc.into, err, tc.reason)
		}
	}
}
