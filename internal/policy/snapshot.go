package policy

import (
	"encoding/json"
	"fmt"

	"github.com/faircache/lfoc/internal/plan"
)

// Checkpoint support: every dynamic policy implements
// sim.PolicySnapshotter by serializing exactly the state its
// construction parameters do not determine — learned histories, sweep
// positions, the current plan — so a freshly constructed policy plus
// PolicyRestore renders the identical Assignment(). Construction
// parameters (way count, window cadence, clustering bounds) are code,
// not checkpoint data; restoring under different ones is a user error
// the cross-checks below catch where cheap.

// stallWindowSnapshot serializes a stallWindow ring verbatim (values,
// cursor, fill) — raw is simpler than rotation-normalizing and equally
// exact.
type stallWindowSnapshot struct {
	Vals []float64 `json:"vals"`
	Next int       `json:"next"`
	N    int       `json:"n"`
}

type dunnAppSnapshot struct {
	ID      int                 `json:"id"`
	History stallWindowSnapshot `json:"history"`
}

type dunnSnapshot struct {
	Apps    []dunnAppSnapshot `json:"apps"`
	Current plan.Plan         `json:"current"`
	Have    bool              `json:"have"`
}

// PolicySnapshot implements sim.PolicySnapshotter.
func (d *DunnDynamic) PolicySnapshot() ([]byte, error) {
	snap := dunnSnapshot{Current: d.current, Have: d.have}
	for _, id := range d.order {
		h := d.history[id]
		snap.Apps = append(snap.Apps, dunnAppSnapshot{
			ID: id,
			History: stallWindowSnapshot{
				Vals: append([]float64(nil), h.vals...),
				Next: h.next,
				N:    h.n,
			},
		})
	}
	return json.Marshal(snap)
}

// PolicyRestore implements sim.PolicySnapshotter.
func (d *DunnDynamic) PolicyRestore(data []byte) error {
	if len(d.history) != 0 {
		return fmt.Errorf("dunn: restore into a policy that already has %d apps", len(d.history))
	}
	var snap dunnSnapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		return fmt.Errorf("dunn: restore: %w", err)
	}
	d.order = d.order[:0]
	for _, a := range snap.Apps {
		if _, dup := d.history[a.ID]; dup {
			return fmt.Errorf("dunn: restore: duplicate app %d", a.ID)
		}
		h := newStallWindow(5)
		if len(a.History.Vals) != len(h.vals) ||
			a.History.N < 0 || a.History.N > len(h.vals) ||
			a.History.Next < 0 || a.History.Next >= len(h.vals) {
			return fmt.Errorf("dunn: restore: app %d has a malformed stall window", a.ID)
		}
		copy(h.vals, a.History.Vals)
		h.next = a.History.Next
		h.n = a.History.N
		d.history[a.ID] = h
		d.order = append(d.order, a.ID)
	}
	d.current = snap.Current
	d.have = snap.Have
	return nil
}

type stockSnapshot struct {
	IDs []int `json:"ids,omitempty"`
}

// PolicySnapshot implements sim.PolicySnapshotter.
func (s *StockDynamic) PolicySnapshot() ([]byte, error) {
	return json.Marshal(stockSnapshot{IDs: append([]int(nil), s.ids...)})
}

// PolicyRestore implements sim.PolicySnapshotter.
func (s *StockDynamic) PolicyRestore(data []byte) error {
	if len(s.ids) != 0 {
		return fmt.Errorf("stock: restore into a policy that already has %d apps", len(s.ids))
	}
	var snap stockSnapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		return fmt.Errorf("stock: restore: %w", err)
	}
	s.ids = append(s.ids[:0], snap.IDs...)
	return nil
}
