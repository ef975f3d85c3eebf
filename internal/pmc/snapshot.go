package pmc

import fp "github.com/faircache/lfoc/internal/fixedpoint"

// CounterSnapshot is the serializable state of a Counter: the running
// total plus the open window's base. Restoring both reproduces Total,
// Window and the next ReadWindow exactly.
type CounterSnapshot struct {
	Total      Sample `json:"total"`
	WindowBase Sample `json:"window_base"`
}

// Snapshot captures the counter for checkpointing.
func (c *Counter) Snapshot() CounterSnapshot {
	return CounterSnapshot{Total: c.total, WindowBase: c.windowBase}
}

// Restore overwrites the counter from a snapshot.
func (c *Counter) Restore(s CounterSnapshot) {
	c.total = s.Total
	c.windowBase = s.WindowBase
}

// Values returns the recorded readings oldest-first. Re-pushing them
// into a fresh History of the same capacity rebuilds a window whose
// Mean, Last, Full and subsequent eviction order are identical — Push
// semantics are rotation-invariant, so the ring offset itself is not
// state worth preserving.
func (h *History) Values() []fp.Value {
	out := make([]fp.Value, 0, h.n)
	start := h.next - h.n
	if start < 0 {
		start += len(h.buf)
	}
	for i := 0; i < h.n; i++ {
		out = append(out, h.buf[(start+i)%len(h.buf)])
	}
	return out
}
