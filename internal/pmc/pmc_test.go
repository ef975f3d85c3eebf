package pmc

import (
	"math"
	"testing"
	"testing/quick"

	fp "github.com/faircache/lfoc/internal/fixedpoint"
)

func TestSampleAddSub(t *testing.T) {
	var s Sample
	s.Add(Sample{Instructions: 100, Cycles: 50, LLCMisses: 5, LLCAccesses: 10, StallsL2Miss: 20, OccupancyBytes: 4096})
	s.Add(Sample{Instructions: 200, Cycles: 100, LLCMisses: 1, LLCAccesses: 2, StallsL2Miss: 3, OccupancyBytes: 8192})
	if s.Instructions != 300 || s.Cycles != 150 || s.LLCMisses != 6 || s.LLCAccesses != 12 || s.StallsL2Miss != 23 {
		t.Errorf("Add wrong: %v", s)
	}
	if s.OccupancyBytes != 8192 {
		t.Errorf("occupancy should adopt latest reading, got %d", s.OccupancyBytes)
	}
	d := s.Sub(Sample{Instructions: 100, Cycles: 50, LLCMisses: 5, LLCAccesses: 10, StallsL2Miss: 20})
	if d.Instructions != 200 || d.Cycles != 100 || d.LLCMisses != 1 || d.OccupancyBytes != 8192 {
		t.Errorf("Sub wrong: %v", d)
	}
}

func TestDerivedMetrics(t *testing.T) {
	s := Sample{Instructions: 2000, Cycles: 1000, LLCMisses: 10, StallsL2Miss: 250}
	if got := s.IPC().Float(); math.Abs(got-2.0) > 1e-3 {
		t.Errorf("IPC = %v", got)
	}
	if got := s.LLCMPKC().Float(); math.Abs(got-10.0) > 1e-3 {
		t.Errorf("LLCMPKC = %v", got)
	}
	if got := s.StallFraction().Float(); math.Abs(got-0.25) > 1e-3 {
		t.Errorf("StallFraction = %v", got)
	}
}

func TestDerivedMetricsZeroDenominators(t *testing.T) {
	var s Sample
	if s.IPC() != 0 || s.LLCMPKC() != 0 || s.StallFraction() != 0 {
		t.Error("zero-cycle metrics should be 0")
	}
}

func TestCounterWindows(t *testing.T) {
	var c Counter
	c.Add(Sample{Instructions: 100, Cycles: 100})
	c.Add(Sample{Instructions: 50, Cycles: 25})
	if w := c.Window(); w.Instructions != 150 {
		t.Errorf("Window = %v", w)
	}
	w := c.ReadWindow()
	if w.Instructions != 150 || w.Cycles != 125 {
		t.Errorf("ReadWindow = %v", w)
	}
	// New window starts empty.
	if w := c.Window(); w.Instructions != 0 {
		t.Errorf("post-read Window = %v", w)
	}
	c.Add(Sample{Instructions: 30, Cycles: 10})
	if w := c.ReadWindow(); w.Instructions != 30 || w.Cycles != 10 {
		t.Errorf("second ReadWindow = %v", w)
	}
	if tot := c.Total(); tot.Instructions != 180 {
		t.Errorf("Total = %v", tot)
	}
	c.Reset()
	if c.Total().Instructions != 0 || c.Window().Instructions != 0 {
		t.Error("Reset incomplete")
	}
}

func TestHistoryBasics(t *testing.T) {
	h := NewHistory(3)
	if h.Len() != 0 || h.Mean() != 0 || h.Last() != 0 || h.Full() {
		t.Error("empty history wrong")
	}
	h.Push(fp.FromInt(2))
	h.Push(fp.FromInt(4))
	if h.Len() != 2 || h.Full() {
		t.Error("partial fill wrong")
	}
	if got := h.Mean().Float(); math.Abs(got-3) > 1e-3 {
		t.Errorf("Mean = %v", got)
	}
	if h.Last() != fp.FromInt(4) {
		t.Error("Last wrong")
	}
	h.Push(fp.FromInt(6))
	h.Push(fp.FromInt(8)) // evicts 2
	if !h.Full() || h.Len() != 3 {
		t.Error("full state wrong")
	}
	if got := h.Mean().Float(); math.Abs(got-6) > 1e-3 {
		t.Errorf("Mean after wrap = %v", got)
	}
	if h.Last() != fp.FromInt(8) {
		t.Error("Last after wrap wrong")
	}
	h.Reset()
	if h.Len() != 0 {
		t.Error("Reset incomplete")
	}
}

func TestHistoryMinimumCapacity(t *testing.T) {
	h := NewHistory(0)
	h.Push(fp.One)
	if h.Len() != 1 || h.Last() != fp.One {
		t.Error("degenerate capacity not clamped to 1")
	}
}

// Property: Counter windows partition the total — the sum of all
// ReadWindow results equals Total.
func TestQuickWindowsPartitionTotal(t *testing.T) {
	f := func(deltas []uint16, readAt []bool) bool {
		var c Counter
		var windowSum uint64
		i := 0
		for _, d := range deltas {
			c.Add(Sample{Instructions: uint64(d)})
			if i < len(readAt) && readAt[i] {
				windowSum += c.ReadWindow().Instructions
			}
			i++
		}
		windowSum += c.ReadWindow().Instructions
		return windowSum == c.Total().Instructions
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: History mean is bounded by min and max of the pushed window.
func TestQuickHistoryMeanBounded(t *testing.T) {
	f := func(vals []int32) bool {
		if len(vals) == 0 {
			return true
		}
		h := NewHistory(5)
		for _, v := range vals {
			h.Push(fp.Value(v))
		}
		start := len(vals) - 5
		if start < 0 {
			start = 0
		}
		lo, hi := fp.Value(vals[start]), fp.Value(vals[start])
		for _, v := range vals[start:] {
			if fp.Value(v) < lo {
				lo = fp.Value(v)
			}
			if fp.Value(v) > hi {
				hi = fp.Value(v)
			}
		}
		m := h.Mean()
		return m >= lo-1 && m <= hi+1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: adding per-interval samples one by one is field-identical
// to adding their batched sum with the last interval's occupancy — the
// exactness the simulator's event-horizon batching relies on, across
// window boundaries too.
func TestCounterBatchedAddEquivalence(t *testing.T) {
	f := func(raw [][6]uint16, readAt uint8) bool {
		var tickwise, batched Counter
		var sum Sample
		ticks := 0 // intervals in the current batch
		for i, r := range raw {
			d := Sample{
				Instructions:   uint64(r[0]),
				Cycles:         uint64(r[1]),
				LLCMisses:      uint64(r[2]),
				LLCAccesses:    uint64(r[3]),
				StallsL2Miss:   uint64(r[4]),
				OccupancyBytes: uint64(r[5]),
			}
			tickwise.Add(d)
			sum.Add(d)
			ticks++
			// Windows may only close on batch boundaries; close the same
			// one on both counters mid-stream.
			if i == int(readAt)%len(raw) {
				batched.Add(sum)
				sum, ticks = Sample{}, 0
				if tickwise.ReadWindow() != batched.ReadWindow() {
					return false
				}
			}
		}
		if ticks > 0 {
			batched.Add(sum)
		}
		return tickwise.Total() == batched.Total() && tickwise.Window() == batched.Window()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
