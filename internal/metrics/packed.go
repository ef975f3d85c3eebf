package metrics

import (
	"encoding/base64"
	"encoding/binary"
	"fmt"
	"math"
)

// Packed series are the checkpoint form of the append-only window
// histories. A run records one window per policy period, so a long run
// checkpoints tens of thousands of points; as JSON objects they would
// dominate the file. Packed, each point is a fixed-width record of
// little-endian 64-bit words in struct field order — floats by their
// IEEE-754 bits, ints as int64 — 13 words per WindowPoint and 14 per
// LifecyclePoint, so every float round-trips bit for bit (NaN payloads
// and -0 included). The JSON form is {"width": w, "points": "<base64>"}:
// encoding/json renders the record bytes as base64 itself, without
// re-scanning them as it would a MarshalJSON result. Nil Points encode
// as null and empty Points as "", so the two stay distinct.
//
// The public result JSON keeps WindowedSeries and LifecycleSeries; only
// snapshots pack (WindowedSeries.Pack) and unpack (Unpack).
const (
	windowWords    = 13
	lifecycleWords = 14
)

// PackedWindowedSeries is a WindowedSeries in packed form.
type PackedWindowedSeries struct {
	Width  float64       `json:"width"`
	Points windowRecords `json:"points"`
}

// PackedLifecycleSeries is a LifecycleSeries in packed form.
type PackedLifecycleSeries struct {
	Width  float64          `json:"width"`
	Points lifecycleRecords `json:"points"`
}

// windowRecords and lifecycleRecords are packed points. They encode as
// plain []byte (base64); decoding goes through UnmarshalText so a
// record stream that is not a whole number of records is rejected
// while the JSON is read. A JSON null bypasses UnmarshalText and
// decodes to nil.
type (
	windowRecords    []byte
	lifecycleRecords []byte
)

func (r *windowRecords) UnmarshalText(text []byte) error {
	return decodeRecords((*[]byte)(r), text, windowWords, "window")
}

func (r *lifecycleRecords) UnmarshalText(text []byte) error {
	return decodeRecords((*[]byte)(r), text, lifecycleWords, "lifecycle")
}

// Pack copies the series into packed form, one record per window: an
// idle run is written window by window, as the windows were added.
func (s *WindowedSeries) Pack() PackedWindowedSeries {
	p := PackedWindowedSeries{Width: s.Width}
	if s.points == nil {
		return p
	}
	b := make([]byte, 0, s.Len()*windowWords*8)
	for _, pt := range s.All() {
		b = appendFloat(b, pt.Start)
		b = appendFloat(b, pt.End)
		b = appendInt(b, pt.Active)
		b = appendInt(b, pt.Arrivals)
		b = appendInt(b, pt.Departures)
		b = appendInt(b, pt.RunsCompleted)
		b = appendFloat(b, pt.Throughput)
		b = appendFloat(b, pt.Unfairness)
		b = appendFloat(b, pt.STP)
		b = appendFloat(b, pt.MeanSlowdown)
		b = appendInt(b, pt.Samples)
		b = appendFloat(b, pt.MinSlowdown)
		b = appendFloat(b, pt.MaxSlowdown)
	}
	p.Points = b
	return p
}

// Unpack returns the series p packs, in freshly allocated storage. It
// adds the records in order, so idle records fold back into runs and
// the result equals the series that was packed.
func (p PackedWindowedSeries) Unpack() WindowedSeries {
	s := WindowedSeries{Width: p.Width}
	if p.Points == nil {
		return s
	}
	busy := 0
	for r := (wordReader{p.Points}); len(r.b) > 0; {
		if !idle(r.window(), s.Width) {
			busy++
		}
	}
	s.points = make([]WindowPoint, 0, busy)
	for r := (wordReader{p.Points}); len(r.b) > 0; {
		s.Add(r.window())
	}
	return s
}

// Pack copies the series into packed form.
func (s *LifecycleSeries) Pack() PackedLifecycleSeries {
	p := PackedLifecycleSeries{Width: s.Width}
	if s.Points == nil {
		return p
	}
	b := make([]byte, 0, len(s.Points)*lifecycleWords*8)
	for _, pt := range s.Points {
		b = appendFloat(b, pt.Start)
		b = appendFloat(b, pt.End)
		b = appendFloat(b, pt.Availability)
		b = appendInt(b, pt.UpMachines)
		b = appendInt(b, pt.FleetSize)
		b = appendInt(b, pt.Joins)
		b = appendInt(b, pt.Drains)
		b = appendInt(b, pt.Failures)
		b = appendInt(b, pt.Disruptions)
		b = appendInt(b, pt.Migrations)
		b = appendInt(b, pt.Requeues)
		b = appendInt(b, pt.DeadLettered)
		b = appendFloat(b, pt.MeanMigrationLatency)
		b = appendFloat(b, pt.MeanRequeueLatency)
	}
	p.Points = b
	return p
}

// Unpack returns the series p packs, in freshly allocated storage.
func (p PackedLifecycleSeries) Unpack() LifecycleSeries {
	s := LifecycleSeries{Width: p.Width}
	if p.Points == nil {
		return s
	}
	s.Points = make([]LifecyclePoint, len(p.Points)/(lifecycleWords*8))
	r := wordReader{p.Points}
	for i := range s.Points {
		s.Points[i] = LifecyclePoint{
			Start: r.float(), End: r.float(), Availability: r.float(),
			UpMachines: r.int(), FleetSize: r.int(),
			Joins: r.int(), Drains: r.int(), Failures: r.int(),
			Disruptions: r.int(), Migrations: r.int(), Requeues: r.int(), DeadLettered: r.int(),
			MeanMigrationLatency: r.float(), MeanRequeueLatency: r.float(),
		}
	}
	return s
}

func appendFloat(b []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
}

func appendInt(b []byte, i int) []byte {
	return binary.LittleEndian.AppendUint64(b, uint64(int64(i)))
}

// decodeRecords base64-decodes text into *dst (non-nil even when
// empty), rejecting a record stream that is not a whole number of
// words-wide records.
func decodeRecords(dst *[]byte, text []byte, words int, what string) error {
	b := make([]byte, base64.StdEncoding.DecodedLen(len(text)))
	n, err := base64.StdEncoding.Decode(b, text)
	if err != nil {
		return fmt.Errorf("metrics: packed %s points: %w", what, err)
	}
	if size := words * 8; n%size != 0 {
		return fmt.Errorf("metrics: packed %s points: %d bytes is not a whole number of %d-byte records",
			what, n, size)
	}
	*dst = b[:n]
	return nil
}

// wordReader consumes little-endian 64-bit words. The calls in a
// composite literal run in lexical left-to-right order, so a literal
// listing the fields in record order reads them in record order.
type wordReader struct{ b []byte }

func (r *wordReader) word() uint64 {
	v := binary.LittleEndian.Uint64(r.b)
	r.b = r.b[8:]
	return v
}

func (r *wordReader) float() float64 { return math.Float64frombits(r.word()) }
func (r *wordReader) int() int       { return int(int64(r.word())) }

// window reads one packed WindowPoint record.
func (r *wordReader) window() WindowPoint {
	return WindowPoint{
		Start: r.float(), End: r.float(),
		Active: r.int(), Arrivals: r.int(), Departures: r.int(), RunsCompleted: r.int(),
		Throughput: r.float(), Unfairness: r.float(), STP: r.float(), MeanSlowdown: r.float(),
		Samples: r.int(), MinSlowdown: r.float(), MaxSlowdown: r.float(),
	}
}
