package metrics

import (
	"math"
	"reflect"
	"testing"
)

// seriesOf builds a series of the given width from its windows.
func seriesOf(width float64, pts ...WindowPoint) *WindowedSeries {
	s := &WindowedSeries{Width: width}
	for _, p := range pts {
		s.Add(p)
	}
	return s
}

// windows returns the series' windows in order.
func windows(s *WindowedSeries) []WindowPoint {
	var out []WindowPoint
	for _, p := range s.All() {
		out = append(out, p)
	}
	return out
}

// idleStretches returns windows of width w as a kernel closes them:
// idle stretches with busy windows between them, an idle stretch off
// the window chain, and two idle-looking windows that must be stored
// as given (a -0 throughput and a final partial window).
func idleStretches(w float64) []WindowPoint {
	var out []WindowPoint
	t := 0.0
	add := func(n int, busy bool) {
		for range n {
			p := WindowPoint{Start: t, End: t + w, Unfairness: 1}
			if busy {
				p.Active, p.Samples, p.STP, p.MeanSlowdown, p.MinSlowdown, p.MaxSlowdown = 1, 1, 0.5, 2, 2, 2
			}
			out = append(out, p)
			t = p.End
		}
	}
	add(5, false)
	add(2, true)
	add(3, false)
	t += w / 2
	add(2, false)
	out = append(out, WindowPoint{Start: t, End: t + w, Unfairness: 1, Throughput: math.Copysign(0, -1)})
	t += w
	add(4, false)
	return append(out, WindowPoint{Start: t, End: t + w/3, Unfairness: 1})
}

// Each stretch of idle windows on the window chain is one run record;
// the series reads back every window bit for bit.
func TestWindowedSeriesIdleRuns(t *testing.T) {
	in := idleStretches(0.01)
	s := seriesOf(0.01, in...)
	if s.Len() != len(in) {
		t.Fatalf("Len = %d, want %d", s.Len(), len(in))
	}
	if len(s.points) != 4 || len(s.runs) != 4 {
		t.Errorf("stored %d points and %d runs, want 4 and 4: %+v", len(s.points), len(s.runs), s.runs)
	}
	if got := windows(s); !sameBits(reflect.ValueOf(got), reflect.ValueOf(in)) {
		t.Errorf("windows read back differ:\n got %+v\nwant %+v", got, in)
	}
	n := 0
	for i := range s.All() {
		n++
		if i == 1 {
			break
		}
	}
	if n != 2 {
		t.Errorf("All yielded %d windows to a loop that broke after 2", n)
	}
}

func TestSlowdownStats(t *testing.T) {
	u, s, m, lo, hi := SlowdownStats(nil)
	if u != 1 || s != 0 || m != 0 || lo != 0 || hi != 0 {
		t.Errorf("empty stats = (%v,%v,%v,%v,%v)", u, s, m, lo, hi)
	}
	u, s, m, lo, hi = SlowdownStats([]float64{2})
	if u != 1 || s != 0.5 || m != 2 || lo != 2 || hi != 2 {
		t.Errorf("singleton stats = (%v,%v,%v,%v,%v)", u, s, m, lo, hi)
	}
	u, s, m, lo, hi = SlowdownStats([]float64{1, 2, 4})
	if u != 4 || math.Abs(s-1.75) > 1e-15 || math.Abs(m-7.0/3) > 1e-15 || lo != 1 || hi != 4 {
		t.Errorf("stats = (%v,%v,%v,%v,%v)", u, s, m, lo, hi)
	}
	// Sub-1 slowdowns (tick quantization) are clamped.
	u, _, m, lo, _ = SlowdownStats([]float64{0.5, 2})
	if u != 2 || m != 1.5 || lo != 1 {
		t.Errorf("clamped stats = (%v,_,%v,%v,_)", u, m, lo)
	}
}

func TestWindowedSeriesAggregates(t *testing.T) {
	var s WindowedSeries
	s.Width = 1
	if s.MeanUnfairness() != 1 || s.MeanSTP() != 0 || s.TotalThroughput() != 0 || s.PeakActive() != 0 {
		t.Error("empty-series aggregates wrong")
	}
	s.Add(WindowPoint{Start: 0, End: 1, Active: 2, RunsCompleted: 4, Throughput: 4, Unfairness: 1.5, STP: 1.5})
	s.Add(WindowPoint{Start: 1, End: 2, Active: 0}) // idle window: excluded from means
	s.Add(WindowPoint{Start: 2, End: 3, Active: 4, RunsCompleted: 2, Throughput: 2, Unfairness: 2.5, STP: 3.5})
	if got := s.MeanUnfairness(); got != 2 {
		t.Errorf("MeanUnfairness = %v", got)
	}
	if got := s.MeanSTP(); got != 2.5 {
		t.Errorf("MeanSTP = %v", got)
	}
	if got := s.TotalThroughput(); got != 2 {
		t.Errorf("TotalThroughput = %v", got)
	}
	if got := s.PeakActive(); got != 4 {
		t.Errorf("PeakActive = %v", got)
	}
}

func TestMergeSeries(t *testing.T) {
	a := seriesOf(1,
		WindowPoint{Start: 0, End: 1, Active: 2, RunsCompleted: 2, STP: 1.5, MeanSlowdown: 2, Samples: 2, MinSlowdown: 1, MaxSlowdown: 3},
		WindowPoint{Start: 1, End: 2, Active: 1, RunsCompleted: 1, STP: 0.5, MeanSlowdown: 2, Samples: 1, MinSlowdown: 2, MaxSlowdown: 2},
	)
	b := seriesOf(1,
		WindowPoint{Start: 0, End: 1, Active: 1, RunsCompleted: 3, STP: 0.25, MeanSlowdown: 4, Samples: 1, MinSlowdown: 4, MaxSlowdown: 4},
	)
	got, err := MergeSeries([]*WindowedSeries{a, b})
	if err != nil {
		t.Fatal(err)
	}
	pts := windows(&got)
	if got.Width != 1 || len(pts) != 2 {
		t.Fatalf("merged width/len = %v/%d", got.Width, len(pts))
	}
	w0 := pts[0]
	if w0.Active != 3 || w0.RunsCompleted != 5 || w0.STP != 1.75 || w0.Samples != 3 {
		t.Errorf("window 0 counts wrong: %+v", w0)
	}
	if w0.Unfairness != 4 || w0.MinSlowdown != 1 || w0.MaxSlowdown != 4 {
		t.Errorf("window 0 unfairness = %v (min %v max %v), want max-of-maxes/min-of-mins = 4",
			w0.Unfairness, w0.MinSlowdown, w0.MaxSlowdown)
	}
	if want := (2*2.0 + 4*1.0) / 3; w0.MeanSlowdown != want {
		t.Errorf("window 0 mean slowdown = %v, want sample-weighted %v", w0.MeanSlowdown, want)
	}
	// Machine b finished early: window 1 is machine a's alone.
	if pts[1].Samples != 1 || pts[1].Unfairness != 1 {
		t.Errorf("window 1 = %+v, want a's singleton", pts[1])
	}
}

// Merging series of different widths would pair windows covering
// disjoint time spans; the documented "equal width" contract is now
// enforced instead of silently violated.
func TestMergeSeriesWidthMismatch(t *testing.T) {
	a := seriesOf(1, WindowPoint{Start: 0, End: 1})
	b := seriesOf(2, WindowPoint{Start: 0, End: 2})
	if _, err := MergeSeries([]*WindowedSeries{a, b}); err == nil {
		t.Error("width mismatch accepted")
	}
	// A contributing series must carry a positive width: adopting a zero
	// width from the first series was the old silent failure mode.
	z := seriesOf(0, WindowPoint{Start: 0, End: 1})
	if _, err := MergeSeries([]*WindowedSeries{z, a}); err == nil {
		t.Error("zero-width contributing series accepted")
	}
}

// Nil and empty series contribute nothing: they are skipped, not
// width-checked (a machine that never collected a window has width 0).
func TestMergeSeriesSkipsEmpty(t *testing.T) {
	a := seriesOf(1, WindowPoint{Start: 0, End: 1, Active: 1})
	empty := &WindowedSeries{}
	got, err := MergeSeries([]*WindowedSeries{nil, empty, a})
	if err != nil {
		t.Fatal(err)
	}
	if pts := windows(&got); got.Width != 1 || len(pts) != 1 || pts[0].Active != 1 {
		t.Errorf("merge with nil/empty series = %+v", pts)
	}
	got, err = MergeSeries([]*WindowedSeries{nil, empty})
	if err != nil {
		t.Fatal(err)
	}
	if got.Width != 0 || got.Len() != 0 {
		t.Errorf("all-empty merge = %+v, want zero series", got)
	}
}

// Lifecycle runs produce partial-lifetime machines: a machine that
// fails mid-run stops collecting windows (short series), and an
// autoscaled join contributes idle leading windows before its first
// admission. The merge must treat both as "absent", not as zeros that
// drag cluster stats down.
func TestMergeSeriesPartialLifetimes(t *testing.T) {
	// Survivor: active the whole run, four windows.
	full := seriesOf(1,
		WindowPoint{Start: 0, End: 1, Active: 1, RunsCompleted: 2, Throughput: 2, STP: 0.5, MeanSlowdown: 2, Samples: 1, MinSlowdown: 2, MaxSlowdown: 2},
		WindowPoint{Start: 1, End: 2, Active: 1, RunsCompleted: 2, Throughput: 2, STP: 0.5, MeanSlowdown: 2, Samples: 1, MinSlowdown: 2, MaxSlowdown: 2},
		WindowPoint{Start: 2, End: 3, Active: 1, RunsCompleted: 2, Throughput: 2, STP: 0.5, MeanSlowdown: 2, Samples: 1, MinSlowdown: 2, MaxSlowdown: 2},
		WindowPoint{Start: 3, End: 4, Active: 1, RunsCompleted: 2, Throughput: 2, STP: 0.5, MeanSlowdown: 2, Samples: 1, MinSlowdown: 2, MaxSlowdown: 2},
	)
	// Failed at t=2: the trailing windows simply do not exist.
	failed := seriesOf(1,
		WindowPoint{Start: 0, End: 1, Active: 2, RunsCompleted: 4, Throughput: 4, STP: 1.5, MeanSlowdown: 3, Samples: 2, MinSlowdown: 1, MaxSlowdown: 5},
		WindowPoint{Start: 1, End: 2, Active: 2, RunsCompleted: 4, Throughput: 4, STP: 1.5, MeanSlowdown: 3, Samples: 2, MinSlowdown: 1, MaxSlowdown: 5},
	)
	// Autoscaled join: windows exist from t=0 (joined machines advance
	// from zero so indices align) but stay idle until t=3.
	joined := seriesOf(1,
		WindowPoint{Start: 0, End: 1, Unfairness: 1},
		WindowPoint{Start: 1, End: 2, Unfairness: 1},
		WindowPoint{Start: 2, End: 3, Unfairness: 1},
		WindowPoint{Start: 3, End: 4, Active: 1, RunsCompleted: 6, Throughput: 6, STP: 0.25, MeanSlowdown: 4, Samples: 1, MinSlowdown: 4, MaxSlowdown: 4},
	)
	got, err := MergeSeries([]*WindowedSeries{full, failed, joined})
	if err != nil {
		t.Fatal(err)
	}
	pts := windows(&got)
	if len(pts) != 4 {
		t.Fatalf("merged to %d windows, want the longest lifetime (4)", len(pts))
	}
	// While all three contribute: samples and STP add across machines.
	if w := pts[1]; w.Active != 3 || w.Samples != 3 || w.STP != 2 || w.Unfairness != 5 {
		t.Errorf("window 1 = %+v, want all three machines merged", w)
	}
	// After the failure the dead machine must vanish from the stats, not
	// contribute zeros: window 2 is the survivor alone (joined is idle).
	if w := pts[2]; w.Active != 1 || w.Samples != 1 || w.Unfairness != 1 || w.MeanSlowdown != 2 {
		t.Errorf("window 2 = %+v, want survivor-only stats", w)
	}
	// The late joiner shows up only once it admits work.
	if w := pts[3]; w.Active != 2 || w.Samples != 2 || w.RunsCompleted != 8 {
		t.Errorf("window 3 = %+v, want survivor + joiner", w)
	}
	if w := pts[3]; w.Unfairness != 2 || w.MeanSlowdown != 3 {
		t.Errorf("window 3 unfairness/mean = %v/%v, want 2/3", w.Unfairness, w.MeanSlowdown)
	}
	// Merged throughput is recomputed from the merged span, not summed.
	if w := pts[0]; w.Throughput != 6 {
		t.Errorf("window 0 throughput = %v, want 6 runs over 1s", w.Throughput)
	}
}

func TestFingerprintDistinguishes(t *testing.T) {
	a := seriesOf(1, WindowPoint{Start: 0, End: 1, STP: 2})
	b := seriesOf(1, WindowPoint{Start: 0, End: 1, STP: 2})
	if a.Fingerprint() != b.Fingerprint() {
		t.Error("identical series, different fingerprints")
	}
	b = seriesOf(1, WindowPoint{Start: 0, End: 1, STP: math.Nextafter(2, 3)})
	if a.Fingerprint() == b.Fingerprint() {
		t.Error("one-ulp STP difference not visible in fingerprint")
	}
}

// naiveMergeSeries is the pre-compaction reference merge: rescan every
// series at every window index. Kept here as the oracle for the
// fleet-scale merge below and for FuzzWindowedSeries.
func naiveMergeSeries(series []*WindowedSeries) WindowedSeries {
	out := WindowedSeries{}
	pts := make([][]WindowPoint, len(series))
	maxLen := 0
	for i, s := range series {
		if s == nil || s.Len() == 0 {
			continue
		}
		if out.Width == 0 {
			out.Width = s.Width
		}
		pts[i] = windows(s)
		maxLen = max(maxLen, len(pts[i]))
	}
	out.Grow(maxLen)
	for i := 0; i < maxLen; i++ {
		var m WindowPoint
		first := true
		sdSum := 0.0
		for _, sp := range pts {
			if i >= len(sp) {
				continue
			}
			p := sp[i]
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
	return out
}

// Fleet-scale merge contract at 1024 machines with ragged lifetimes:
// the compacting single-pass merge must reproduce the naive rescan bit
// for bit (same float accumulation order), keep every window at the
// shared width, and cover as many windows as the longest series.
func TestMergeSeriesFleetScale(t *testing.T) {
	const n, width = 1024, 0.25
	series := make([]*WindowedSeries, n)
	maxLen := 0
	for i := range series {
		if i%97 == 0 {
			continue // sprinkle nil machines (failed before any window)
		}
		// Ragged lifetimes: lengths cycle 1..32 windows.
		length := 1 + (i*7)%32
		if length > maxLen {
			maxLen = length
		}
		s := &WindowedSeries{Width: width}
		for w := 0; w < length; w++ {
			samples := (i + w) % 3
			p := WindowPoint{
				Start:         float64(w) * width,
				End:           float64(w+1) * width,
				Active:        samples,
				Arrivals:      i % 5,
				RunsCompleted: w % 4,
				STP:           float64(i%13) / 7,
				Samples:       samples,
			}
			if samples > 0 {
				p.MinSlowdown = 1 + float64(i%11)/3
				p.MaxSlowdown = p.MinSlowdown + float64(w%5)
				p.MeanSlowdown = (p.MinSlowdown + p.MaxSlowdown) / 2
			}
			s.Add(p)
		}
		series[i] = s
	}
	got, err := MergeSeries(series)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != maxLen {
		t.Fatalf("merged %d windows, want the longest lifetime %d", got.Len(), maxLen)
	}
	for i, p := range got.All() {
		if w := p.End - p.Start; math.Abs(w-width) > 1e-12 {
			t.Fatalf("window %d spans %v, want the shared width %v", i, w, width)
		}
	}
	want := naiveMergeSeries(series)
	if got.Fingerprint() != want.Fingerprint() {
		t.Error("compacting merge diverges from the naive reference rescan")
	}
}
