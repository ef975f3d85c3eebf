package metrics

import "fmt"

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

// WindowedSeries is a sequence of contiguous windows of equal width.
type WindowedSeries struct {
	// Width is the window length in simulated seconds.
	Width  float64
	Points []WindowPoint
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

// Add appends a window point.
func (s *WindowedSeries) Add(p WindowPoint) { s.Points = append(s.Points, p) }

// MeanUnfairness averages Unfairness over windows that had at least one
// active application (1 when there were none).
func (s *WindowedSeries) MeanUnfairness() float64 {
	sum, n := 0.0, 0
	for _, p := range s.Points {
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
	for _, p := range s.Points {
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
	for _, p := range s.Points {
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
	for _, p := range s.Points {
		if p.Active > peak {
			peak = p.Active
		}
	}
	return peak
}

// Fingerprint renders the series compactly for determinism checks: two
// series are byte-identical iff every windowed metric is.
func (s *WindowedSeries) Fingerprint() string {
	out := fmt.Sprintf("w=%.17g n=%d", s.Width, len(s.Points))
	for _, p := range s.Points {
		out += fmt.Sprintf(";[%.17g,%.17g)a=%d+%d-%d r=%d u=%.17g stp=%.17g ms=%.17g n=%d lo=%.17g hi=%.17g",
			p.Start, p.End, p.Active, p.Arrivals, p.Departures, p.RunsCompleted,
			p.Unfairness, p.STP, p.MeanSlowdown, p.Samples, p.MinSlowdown, p.MaxSlowdown)
	}
	return out
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
	// One validation pass builds the live set (non-nil, non-empty, in
	// input order); the merge loop then compacts it in place as series
	// exhaust, so each window only visits series that still contribute
	// — O(total points), not O(windows × fleet). Compaction preserves
	// relative order, which keeps the float accumulation order — and
	// therefore the merged values — bit-identical to a full rescan.
	live := make([]*WindowedSeries, 0, len(series))
	maxLen := 0
	for i, s := range series {
		if s == nil || len(s.Points) == 0 {
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
		if len(s.Points) > maxLen {
			maxLen = len(s.Points)
		}
		live = append(live, s)
	}
	out.Points = make([]WindowPoint, 0, maxLen)
	for i := 0; i < maxLen; i++ {
		var m WindowPoint
		first := true
		sdSum := 0.0
		n := 0
		for _, s := range live {
			if i >= len(s.Points) {
				continue // exhausted: drop from the live set
			}
			live[n] = s
			n++
			p := s.Points[i]
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
