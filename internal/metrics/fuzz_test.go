package metrics

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"reflect"
	"testing"
)

// fuzzWidths are the window widths FuzzWindowedSeries draws from: the
// CLI's default period, widths whose chain sums round, and widths that
// encoding/json writes in 'e' form.
var fuzzWidths = []float64{0.1, 0.01, 1, 1.0 / 3, 0.3, 2.5e-7, 3e21}

// fuzzFloats adds ordinary values, and values at encoding/json's 'e'
// form boundaries, to packedFloats.
var fuzzFloats = append(packedFloats[:len(packedFloats):len(packedFloats)], 0, 1, 2.5, 1e-7, 1e-6, 1e21, 123456.789, 1e300)

// fuzzBytes hands out the fuzz input a byte at a time, then zeros.
type fuzzBytes []byte

func (b *fuzzBytes) next() byte {
	if len(*b) == 0 {
		return 0
	}
	c := (*b)[0]
	*b = (*b)[1:]
	return c
}

// float draws from fuzzFloats, or reads raw IEEE bits when the
// selector's top bit is set.
func (b *fuzzBytes) float() float64 {
	c := b.next()
	if c&0x80 != 0 {
		var w [8]byte
		for i := range w {
			w[i] = b.next()
		}
		return math.Float64frombits(binary.LittleEndian.Uint64(w[:]))
	}
	return fuzzFloats[int(c)%len(fuzzFloats)]
}

func (b *fuzzBytes) int() int { return packedInts[int(b.next())%len(packedInts)] }

// decodeWindows turns fuzz bytes into one to four window sequences of
// one width: idle windows on the chain, busy windows with every field
// drawn, final-partial windows, idle windows off the chain, and idle
// windows with one field bent.
func decodeWindows(data []byte) (float64, [][]WindowPoint) {
	b := fuzzBytes(data)
	width := fuzzWidths[int(b.next())%len(fuzzWidths)]
	seqs := make([][]WindowPoint, 1+int(b.next())%4)
	for i := range seqs {
		t := []float64{0, math.Copysign(0, -1), 7.25, 1e300}[int(b.next())%4]
		for n := int(b.next()) % 40; n > 0; n-- {
			op := b.next()
			p := WindowPoint{Start: t, End: t + width, Unfairness: 1}
			switch op % 8 {
			case 0, 1, 2: // idle, on the chain
			case 3: // busy
				p = WindowPoint{
					Start: t, End: t + width,
					Active: b.int(), Arrivals: b.int(), Departures: b.int(), RunsCompleted: b.int(),
					Throughput: b.float(), Unfairness: b.float(), STP: b.float(), MeanSlowdown: b.float(),
					Samples: b.int(), MinSlowdown: b.float(), MaxSlowdown: b.float(),
				}
			case 4: // partial
				p.End = t + width*float64(b.next())/256
			case 5: // off the chain
				p.Start = b.float()
				p.End = p.Start + width
			case 6: // idle but for one field
				switch b.next() % 5 {
				case 0:
					p.Throughput = math.Copysign(0, -1)
				case 1:
					p.Unfairness = b.float()
				case 2:
					p.Samples = b.int()
				case 3:
					p.End = math.Nextafter(p.End, math.Inf(1))
				case 4:
					p.MaxSlowdown = b.float()
				}
			case 7: // any point at all
				p = WindowPoint{
					Start: b.float(), End: b.float(),
					Active: b.int(), Arrivals: b.int(), Departures: b.int(), RunsCompleted: b.int(),
					Throughput: b.float(), Unfairness: b.float(), STP: b.float(), MeanSlowdown: b.float(),
					Samples: b.int(), MinSlowdown: b.float(), MaxSlowdown: b.float(),
				}
			}
			seqs[i] = append(seqs[i], p)
			t = p.End
		}
	}
	return width, seqs
}

// packRef packs windows as the checkpoint layout documents it: one
// little-endian word per field, in field order.
func packRef(pts []WindowPoint) []byte {
	var b []byte
	for _, p := range pts {
		v := reflect.ValueOf(p)
		for i := 0; i < v.NumField(); i++ {
			if f := v.Field(i); f.Kind() == reflect.Float64 {
				b = binary.LittleEndian.AppendUint64(b, math.Float64bits(f.Float()))
			} else {
				b = binary.LittleEndian.AppendUint64(b, uint64(f.Int()))
			}
		}
	}
	return b
}

// FuzzWindowedSeries checks the run-length series against the plain
// slice of the windows it was given: the windows it reads back, its
// checkpoint records and their restore, its JSON, and its merges.
func FuzzWindowedSeries(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 12, 0, 0, 0, 3, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 0, 0, 4, 128, 5, 9, 0, 0})
	f.Add([]byte{2, 3, 1, 20, 0, 0, 6, 0, 0, 6, 1, 0, 0, 6, 3, 0, 5, 2, 0, 0, 4, 200, 2, 9, 0, 0, 6, 2, 3, 0, 3, 30, 7})
	f.Add([]byte{5, 1, 3, 30, 0, 0, 0, 7, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 0, 0, 0, 1, 0, 0, 39, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		width, seqs := decodeWindows(data)
		series := make([]*WindowedSeries, len(seqs))
		for i, seq := range seqs {
			s := seriesOf(width, seq...)
			series[i] = s
			if s.Len() != len(seq) {
				t.Fatalf("series %d: Len %d, want %d", i, s.Len(), len(seq))
			}
			if got := windows(s); !sameBits(reflect.ValueOf(got), reflect.ValueOf(seq)) {
				t.Fatalf("series %d reads back\n%+v\nwant\n%+v", i, got, seq)
			}
			packed := s.Pack()
			if !bytes.Equal(packed.Points, packRef(seq)) || (packed.Points == nil) != (seq == nil) {
				t.Fatalf("series %d: packed records differ from the reference packing", i)
			}
			if u := jsonRoundTrip(t, packed).Unpack(); !sameBits(reflect.ValueOf(u), reflect.ValueOf(*s)) {
				t.Fatalf("series %d: restored\n%+v\nwant\n%+v", i, u, *s)
			}
			plain := struct {
				Width  float64
				Points []WindowPoint
			}{width, seq}
			want, wantErr := json.Marshal(plain)
			got, err := s.MarshalJSON()
			if (err != nil) != (wantErr != nil) || !bytes.Equal(got, want) && err == nil {
				t.Fatalf("series %d: MarshalJSON\n%s (%v)\nencoding/json\n%s (%v)", i, got, err, want, wantErr)
			}
			if err != nil {
				continue
			}
			if via, err := json.Marshal(s); err != nil || !bytes.Equal(via, want) {
				t.Fatalf("series %d: json.Marshal through MarshalJSON: %s (%v)", i, via, err)
			}
			// The buffer MarshalJSON sizes from these bounds never grows.
			bound := len(`{"Width":,"Points":null}`) + floatBound(width)
			for _, p := range seq {
				bound += pointBound(p)
			}
			if len(got) > bound {
				t.Fatalf("series %d: %d JSON bytes, over their bound %d", i, len(got), bound)
			}
		}
		got, err := MergeSeries(series)
		if err != nil {
			t.Fatal(err)
		}
		if want := naiveMergeSeries(series); !sameBits(reflect.ValueOf(got), reflect.ValueOf(want)) {
			t.Fatalf("merge\n%+v\nwant the reference merge\n%+v", windows(&got), windows(&want))
		}
	})
}
