// Package pmc models the hardware performance-monitoring counters LFOC and
// Dunn consume: instructions retired, core cycles, LLC misses, LLC
// accesses, the STALLS_L2_MISS event (cycles the pipeline stalls on
// long-latency memory accesses), and the CMT LLC-occupancy counter.
//
// Hardware exposes free-running counters; system software computes rates
// over sampling windows. Counter mirrors that structure: Add accumulates a
// delta, ReadWindow returns and closes the current window. Derived-metric
// helpers return fixed-point values because the policy code that consumes
// them emulates kernel code and must not touch floating point.
package pmc

import (
	"fmt"

	fp "github.com/faircache/lfoc/internal/fixedpoint"
)

// Sample is a vector of raw event counts covering one interval.
type Sample struct {
	Instructions uint64
	Cycles       uint64
	LLCMisses    uint64
	LLCAccesses  uint64
	StallsL2Miss uint64
	// OccupancyBytes is a point-in-time CMT reading, not an accumulating
	// count: Add keeps the most recent value.
	OccupancyBytes uint64
}

// Add accumulates the accumulating events of d into s and adopts d's
// occupancy reading.
//
//lfoc:hotpath
func (s *Sample) Add(d Sample) {
	s.Instructions += d.Instructions
	s.Cycles += d.Cycles
	s.LLCMisses += d.LLCMisses
	s.LLCAccesses += d.LLCAccesses
	s.StallsL2Miss += d.StallsL2Miss
	s.OccupancyBytes = d.OccupancyBytes
}

// Sub returns s - o for the accumulating events, keeping s's occupancy.
//
//lfoc:hotpath
func (s Sample) Sub(o Sample) Sample {
	return Sample{
		Instructions:   s.Instructions - o.Instructions,
		Cycles:         s.Cycles - o.Cycles,
		LLCMisses:      s.LLCMisses - o.LLCMisses,
		LLCAccesses:    s.LLCAccesses - o.LLCAccesses,
		StallsL2Miss:   s.StallsL2Miss - o.StallsL2Miss,
		OccupancyBytes: s.OccupancyBytes,
	}
}

// IPC returns instructions per cycle as a fixed-point value (0 when no
// cycles elapsed).
func (s Sample) IPC() fp.Value {
	if s.Cycles == 0 {
		return 0
	}
	return fp.FromRatio(int64(s.Instructions), int64(s.Cycles))
}

// LLCMPKC returns LLC misses per kilo-cycle — the metric Table 1 and the
// runtime heuristics of §4.2 are defined on.
func (s Sample) LLCMPKC() fp.Value {
	if s.Cycles == 0 {
		return 0
	}
	return fp.FromRatio(int64(s.LLCMisses)*1000, int64(s.Cycles))
}

// StallFraction returns STALLS_L2_MISS / cycles — the fraction of time the
// core was stalled on long-latency memory accesses (the Dunn metric).
func (s Sample) StallFraction() fp.Value {
	if s.Cycles == 0 {
		return 0
	}
	return fp.FromRatio(int64(s.StallsL2Miss), int64(s.Cycles))
}

func (s Sample) String() string {
	return fmt.Sprintf("insns=%d cycles=%d misses=%d accesses=%d stalls=%d occ=%d",
		s.Instructions, s.Cycles, s.LLCMisses, s.LLCAccesses, s.StallsL2Miss, s.OccupancyBytes)
}

// Counter is a per-task counter set with window semantics.
type Counter struct {
	total      Sample
	windowBase Sample
}

// Add accumulates a delta into the counter.
//
// Batching is exact: every accumulating field is an integer sum
// (associative, no rounding) and occupancy adopts the most recent
// reading, so adding n per-interval samples is field-identical to
// adding their field-wise sum carrying the last interval's occupancy —
// window totals and ReadWindow boundaries cannot tell the difference.
// The simulator's event-horizon advancement relies on this to issue one
// add per app per horizon instead of one per tick
// (TestCounterBatchedAddEquivalence pins it).
//
//lfoc:hotpath
func (c *Counter) Add(d Sample) { c.total.Add(d) }

// Total returns the counts since creation.
func (c *Counter) Total() Sample { return c.total }

// Window returns the counts accumulated since the last ReadWindow without
// closing the window.
//
//lfoc:hotpath
func (c *Counter) Window() Sample { return c.total.Sub(c.windowBase) }

// ReadWindow returns the counts accumulated since the previous ReadWindow
// and starts a new window.
//
//lfoc:hotpath
func (c *Counter) ReadWindow() Sample {
	w := c.total.Sub(c.windowBase)
	c.windowBase = c.total
	return w
}

// Reset zeroes the counter entirely.
func (c *Counter) Reset() { *c = Counter{} }
