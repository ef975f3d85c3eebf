package metrics

import (
	"fmt"
	"iter"
	"math"
	"slices"
	"strconv"
	"strings"
)

// WindowPoint is one fixed-width time window of an experiment. In an
// open system the end-of-run scalar aggregates of Summary are
// meaningless — the population changes under the metric — so fairness
// and throughput are reported per window over the applications active
// in that window.
type WindowPoint struct {
	// Start and End bound the window in simulated seconds.
	Start, End float64
	// Active is the number of applications in the system at the end of
	// the window.
	Active int
	// Arrivals and Departures count the population changes inside the
	// window.
	Arrivals, Departures int
	// RunsCompleted counts instruction quotas retired inside the window.
	RunsCompleted int
	// Throughput is RunsCompleted per simulated second.
	Throughput float64
	// Unfairness, STP and MeanSlowdown are computed over the cumulative
	// slowdowns of the applications active at the window's end (1, 0 and
	// 0 respectively when no application has measurable progress yet).
	Unfairness   float64
	STP          float64
	MeanSlowdown float64
	// Samples counts the slowdowns behind those three aggregates, and
	// MinSlowdown/MaxSlowdown bound them (0 when Samples is 0). They
	// exist so a cluster can merge per-machine windows exactly: STP sums,
	// MeanSlowdown recombines weighted by Samples, and cluster unfairness
	// is max-of-maxes over min-of-mins — none of which is recoverable
	// from the per-machine ratios alone.
	Samples     int
	MinSlowdown float64
	MaxSlowdown float64
}

// WindowedSeries is a sequence of contiguous windows of equal width,
// read through Len and All.
//
// An idle window is what a machine with no applications closes every
// period: Unfairness 1, every other metric and count 0 (+0 for
// floats), and End exactly Start+Width. An empty machine closes one per
// policy period for as long as it stays empty, so a stretch of
// consecutive idle windows is stored as one run record (its first
// Start and its window count) and rebuilt by the same float adds that
// produced it (Start = previous End, End = Start+Width). Every other
// window, the final partial one included, is stored as given. The
// representation is canonical: two series that received the same
// windows are reflect.DeepEqual, however they were built.
type WindowedSeries struct {
	// Width is the window length in simulated seconds. Set it before
	// the first Add: idle windows are recognized, and rebuilt, with it.
	Width float64
	// points holds the other windows in order; runs the idle stretches,
	// each placed before points[at]. runEnd is the End of the last
	// window of the last run, where an idle window must start to extend
	// it. A nil points is a series that never had a window or a Grow:
	// Pack and MarshalJSON keep it apart from an empty one.
	points []WindowPoint
	runs   []idleRun
	runEnd float64
}

// idleRun is a stretch of n consecutive idle windows, the first
// starting at start, placed before the busy window points[at].
type idleRun struct {
	at    int
	start float64
	n     int
}

// idle reports whether p is an idle window of width w, bit for bit.
func idle(p WindowPoint, w float64) bool {
	return p.Active|p.Arrivals|p.Departures|p.RunsCompleted|p.Samples == 0 &&
		math.Float64bits(p.Throughput)|math.Float64bits(p.STP)|math.Float64bits(p.MeanSlowdown)|
			math.Float64bits(p.MinSlowdown)|math.Float64bits(p.MaxSlowdown) == 0 &&
		p.Unfairness == 1 &&
		math.Float64bits(p.End) == math.Float64bits(p.Start+w)
}

// Add appends a window point.
func (s *WindowedSeries) Add(p WindowPoint) {
	if !idle(p, s.Width) {
		s.points = append(s.points, p)
		return
	}
	if s.points == nil {
		s.points = []WindowPoint{} // non-nil without allocating
	}
	if n := len(s.runs); n > 0 && s.runs[n-1].at == len(s.points) &&
		math.Float64bits(p.Start) == math.Float64bits(s.runEnd) {
		s.runs[n-1].n++
	} else {
		s.runs = append(s.runs, idleRun{at: len(s.points), start: p.Start, n: 1})
	}
	s.runEnd = p.End
}

// Grow makes room for n more windows that are not idle, so adding them
// does not reallocate. A grown series is never nil, even for n = 0.
func (s *WindowedSeries) Grow(n int) {
	s.points = slices.Grow(s.points, n)
	if s.points == nil {
		s.points = []WindowPoint{}
	}
}

// Len returns the number of windows.
func (s *WindowedSeries) Len() int {
	n := len(s.points)
	for _, r := range s.runs {
		n += r.n
	}
	return n
}

// All iterates over the windows in order, with their indices.
func (s *WindowedSeries) All() iter.Seq2[int, WindowPoint] {
	return func(yield func(int, WindowPoint) bool) {
		c := cursor{s: s}
		for i := 0; ; i++ {
			p, ok := c.next()
			if !ok || !yield(i, p) {
				return
			}
		}
	}
}

// cursor walks a series' windows in order, rebuilding each idle run
// window by window.
type cursor struct {
	s      *WindowedSeries
	pi, ri int     // next busy point, next run
	left   int     // windows left in the current run
	end    float64 // End of the current run's last rebuilt window
}

func (c *cursor) next() (WindowPoint, bool) {
	s := c.s
	if c.left == 0 {
		switch {
		case c.ri < len(s.runs) && s.runs[c.ri].at == c.pi:
			c.left, c.end = s.runs[c.ri].n, s.runs[c.ri].start
			c.ri++
		case c.pi < len(s.points):
			c.pi++
			return s.points[c.pi-1], true
		default:
			return WindowPoint{}, false
		}
	}
	c.left--
	start := c.end
	c.end = start + s.Width
	return WindowPoint{Start: start, End: c.end, Unfairness: 1}, true
}

// SlowdownStats summarizes a set of instantaneous slowdowns without
// erroring on degenerate populations, which windows in an open system
// routinely are (empty right after a departure burst, singleton under
// light load). Slowdowns below 1 — tick-quantization artifacts — are
// clamped, mirroring the closed-methodology reporting. An empty
// population reads unfairness 1 and everything else 0. lo and hi are
// the extreme slowdowns behind the unfairness ratio: cluster
// aggregation needs them, since the unfairness of a fleet is the
// max-of-maxes over the min-of-mins, not any function of the
// per-machine ratios.
func SlowdownStats(slowdowns []float64) (unfairness, stp, mean, lo, hi float64) {
	if len(slowdowns) == 0 {
		return 1, 0, 0, 0, 0
	}
	sum, inv := 0.0, 0.0
	for i, s := range slowdowns {
		if s < 1 {
			s = 1
		}
		if i == 0 || s < lo {
			lo = s
		}
		if s > hi {
			hi = s
		}
		sum += s
		inv += 1 / s
	}
	return hi / lo, inv, sum / float64(len(slowdowns)), lo, hi
}

// MeanUnfairness averages Unfairness over windows that had at least one
// active application (1 when there were none). Idle windows have none,
// so only the stored points are read.
func (s *WindowedSeries) MeanUnfairness() float64 {
	sum, n := 0.0, 0
	for _, p := range s.points {
		if p.Active > 0 {
			sum += p.Unfairness
			n++
		}
	}
	if n == 0 {
		return 1
	}
	return sum / float64(n)
}

// MeanSTP averages STP over windows with at least one active
// application (0 when there were none).
func (s *WindowedSeries) MeanSTP() float64 {
	sum, n := 0.0, 0
	for _, p := range s.points {
		if p.Active > 0 {
			sum += p.STP
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// TotalThroughput is completed runs divided by covered time (0 for an
// empty series).
func (s *WindowedSeries) TotalThroughput() float64 {
	runs, t := 0, 0.0
	for _, p := range s.All() {
		runs += p.RunsCompleted
		t += p.End - p.Start
	}
	if t <= 0 {
		return 0
	}
	return float64(runs) / t
}

// PeakActive returns the largest end-of-window population.
func (s *WindowedSeries) PeakActive() int {
	peak := 0
	for _, p := range s.points {
		if p.Active > peak {
			peak = p.Active
		}
	}
	return peak
}

// Fingerprint renders the series compactly for determinism checks: two
// series are byte-identical iff every windowed metric is.
func (s *WindowedSeries) Fingerprint() string {
	var b strings.Builder
	fmt.Fprintf(&b, "w=%.17g n=%d", s.Width, s.Len())
	for _, p := range s.All() {
		fmt.Fprintf(&b, ";[%.17g,%.17g)a=%d+%d-%d r=%d u=%.17g stp=%.17g ms=%.17g n=%d lo=%.17g hi=%.17g",
			p.Start, p.End, p.Active, p.Arrivals, p.Departures, p.RunsCompleted,
			p.Unfairness, p.STP, p.MeanSlowdown, p.Samples, p.MinSlowdown, p.MaxSlowdown)
	}
	return b.String()
}

// MergeSeries combines per-machine series of equal width into one
// cluster-wide series, window index by window index. Counts and STP
// (a sum of speedups, Eq. 4) add; MeanSlowdown recombines weighted by
// each machine's sample count; cluster unfairness is the max-of-maxes
// over the min-of-mins (Eq. 3 over the whole fleet). Machines that
// finished early simply stop contributing; a window's Start/End span
// the contributing machines' bounds (final partial windows may make the
// last span ragged).
//
// Nil or empty series contribute nothing and are skipped (a machine
// that never collected a window has no width to agree on). Every
// contributing series must have the same positive Width: windows are
// matched by index, so merging mismatched widths would silently
// combine disjoint time spans.
func MergeSeries(series []*WindowedSeries) (WindowedSeries, error) {
	out := WindowedSeries{}
	// One validation pass builds the live set (a cursor per non-nil,
	// non-empty series, in input order); the merge loop then compacts it
	// in place as series exhaust, so each window only visits series that
	// still contribute — O(total windows), not O(windows × fleet).
	// Compaction preserves relative order, which keeps the float
	// accumulation order — and therefore the merged values —
	// bit-identical to a full rescan.
	live := make([]cursor, 0, len(series))
	maxLen := 0
	for i, s := range series {
		if s == nil {
			continue
		}
		n := s.Len()
		if n == 0 {
			continue
		}
		if s.Width <= 0 {
			return WindowedSeries{}, fmt.Errorf("metrics: merge: series %d has non-positive width %v", i, s.Width)
		}
		if out.Width == 0 {
			out.Width = s.Width
		} else if s.Width != out.Width {
			return WindowedSeries{}, fmt.Errorf("metrics: merge: series %d has width %v, want %v", i, s.Width, out.Width)
		}
		maxLen = max(maxLen, n)
		live = append(live, cursor{s: s})
	}
	out.points = make([]WindowPoint, 0, maxLen)
	for i := 0; i < maxLen; i++ {
		var m WindowPoint
		first := true
		sdSum := 0.0
		n := 0
		for _, c := range live {
			p, ok := c.next()
			if !ok {
				continue // exhausted: drop from the live set
			}
			live[n] = c
			n++
			if first {
				m.Start, m.End = p.Start, p.End
				first = false
			} else {
				if p.Start < m.Start {
					m.Start = p.Start
				}
				if p.End > m.End {
					m.End = p.End
				}
			}
			m.Active += p.Active
			m.Arrivals += p.Arrivals
			m.Departures += p.Departures
			m.RunsCompleted += p.RunsCompleted
			m.STP += p.STP
			sdSum += p.MeanSlowdown * float64(p.Samples)
			m.Samples += p.Samples
			if p.Samples > 0 {
				if m.MinSlowdown == 0 || p.MinSlowdown < m.MinSlowdown {
					m.MinSlowdown = p.MinSlowdown
				}
				if p.MaxSlowdown > m.MaxSlowdown {
					m.MaxSlowdown = p.MaxSlowdown
				}
			}
		}
		live = live[:n]
		if w := m.End - m.Start; w > 0 {
			m.Throughput = float64(m.RunsCompleted) / w
		}
		if m.Samples > 0 {
			m.Unfairness = m.MaxSlowdown / m.MinSlowdown
			m.MeanSlowdown = sdSum / float64(m.Samples)
		} else {
			m.Unfairness = 1
		}
		out.Add(m)
	}
	return out, nil
}

// MarshalJSON writes the series as encoding/json writes the struct
// {Width float64; Points []WindowPoint}: idle runs expand to their
// windows, and the bytes are those encoding/json would produce, null
// for a nil series included. Like encoding/json it fails on NaN and
// ±Inf. The output is built in one buffer sized from a per-window
// bound, so a long series is neither copied while it grows nor
// formatted twice.
func (s WindowedSeries) MarshalJSON() ([]byte, error) {
	size := len(`{"Width":,"Points":null}`) + floatBound(s.Width)
	for _, p := range s.All() {
		size += pointBound(p)
	}
	j := jsonBuf{b: make([]byte, 0, size)}
	j.float(`{"Width":`, s.Width)
	if s.points == nil {
		j.b = append(j.b, `,"Points":null}`...)
		return j.b, j.err
	}
	j.b = append(j.b, `,"Points":[`...)
	for i, p := range s.All() {
		if i > 0 {
			j.b = append(j.b, ',')
		}
		j.point(p)
	}
	j.b = append(j.b, "]}"...)
	return j.b, j.err
}

// jsonBuf appends JSON members and keeps the first error.
type jsonBuf struct {
	b   []byte
	err error
}

// pointKeys is the bytes point writes besides the values, its trailing
// comma included.
const pointKeys = len(`{"Start":,"End":,"Active":,"Arrivals":,"Departures":,"RunsCompleted":,` +
	`"Throughput":,"Unfairness":,"STP":,"MeanSlowdown":,"Samples":,"MinSlowdown":,"MaxSlowdown":},`)

func (j *jsonBuf) point(p WindowPoint) {
	j.float(`{"Start":`, p.Start)
	j.float(`,"End":`, p.End)
	j.int(`,"Active":`, p.Active)
	j.int(`,"Arrivals":`, p.Arrivals)
	j.int(`,"Departures":`, p.Departures)
	j.int(`,"RunsCompleted":`, p.RunsCompleted)
	j.float(`,"Throughput":`, p.Throughput)
	j.float(`,"Unfairness":`, p.Unfairness)
	j.float(`,"STP":`, p.STP)
	j.float(`,"MeanSlowdown":`, p.MeanSlowdown)
	j.int(`,"Samples":`, p.Samples)
	j.float(`,"MinSlowdown":`, p.MinSlowdown)
	j.float(`,"MaxSlowdown":`, p.MaxSlowdown)
	j.b = append(j.b, '}')
}

// pointBound bounds the bytes point writes for p, plus a comma.
func pointBound(p WindowPoint) int {
	return pointKeys +
		floatBound(p.Start) + floatBound(p.End) + intLen(p.Active) + intLen(p.Arrivals) +
		intLen(p.Departures) + intLen(p.RunsCompleted) + floatBound(p.Throughput) +
		floatBound(p.Unfairness) + floatBound(p.STP) + floatBound(p.MeanSlowdown) +
		intLen(p.Samples) + floatBound(p.MinSlowdown) + floatBound(p.MaxSlowdown)
}

func (j *jsonBuf) int(key string, v int) {
	j.b = strconv.AppendInt(append(j.b, key...), int64(v), 10)
}

// float appends f in encoding/json's format: the shortest 'f' form, or
// the 'e' form outside [1e-6, 1e21) with a one-digit negative exponent
// unpadded.
func (j *jsonBuf) float(key string, f float64) {
	j.b = append(j.b, key...)
	if math.IsInf(f, 0) || math.IsNaN(f) {
		if j.err == nil {
			j.err = fmt.Errorf("metrics: window series JSON: unsupported value %v", f)
		}
		return
	}
	format := byte('f')
	if a := math.Abs(f); a != 0 && (a < 1e-6 || a >= 1e21) {
		format = 'e'
	}
	j.b = strconv.AppendFloat(j.b, f, format, -1, 64)
	if n := len(j.b); format == 'e' && j.b[n-4] == 'e' && j.b[n-3] == '-' && j.b[n-2] == '0' {
		j.b[n-2] = j.b[n-1] // e-09 → e-9
		j.b = j.b[:n-1]
	}
}

// floatBound bounds the bytes float writes for a finite f: a sign, at
// most 17 significant digits and a point, and the zeros before the
// digits below 1 (one from 0.1, up to six below it); an integer below
// 1e21 has at most 21 digits, and an 'e' form at most 24 bytes.
func floatBound(f float64) int {
	switch a := math.Abs(f); {
	case a == 0:
		return 2
	case a >= 0.1 && a < 1e17:
		return 20
	}
	return 25
}

// intLen is the length of v in decimal.
func intLen(v int) int {
	n := 1
	if v < 0 {
		n++
	}
	for v /= 10; v != 0; v /= 10 {
		n++
	}
	return n
}
