package policy

import (
	"fmt"
	"sort"

	"github.com/faircache/lfoc/internal/cat"
	"github.com/faircache/lfoc/internal/plan"
	"github.com/faircache/lfoc/internal/pmc"
)

// DunnDynamic is the user-level dynamic variant of Dunn used in §5.2: it
// continuously monitors each application's STALLS_L2_MISS stall fraction
// (the only event Dunn needs) and re-runs the k-means clustering at every
// partitioner activation. There is no sampling mode and no per-way
// profiling — that simplicity is Dunn's selling point and its weakness.
type DunnDynamic struct {
	ways        int
	windowInsns uint64
	kMin, kMax  int

	order   []int
	history map[int]*stallWindow
	// current is the last plan Reconfigure built; it aliases planner's
	// buffers.
	current plan.Plan
	have    bool
	// masks is the map Assignment rewrites and returns.
	masks map[int]cat.WayMask

	// stalls and planner are Reconfigure's reusable scratch.
	stalls  []float64
	planner dunnPlanner
}

type stallWindow struct {
	vals []float64
	next int
	n    int
}

func newStallWindow(n int) *stallWindow { return &stallWindow{vals: make([]float64, n)} }

func (s *stallWindow) push(v float64) {
	s.vals[s.next] = v
	s.next = (s.next + 1) % len(s.vals)
	if s.n < len(s.vals) {
		s.n++
	}
}

func (s *stallWindow) mean() float64 {
	if s.n == 0 {
		return 0
	}
	sum := 0.0
	for i := 0; i < s.n; i++ {
		sum += s.vals[i]
	}
	return sum / float64(s.n)
}

// NewDunnDynamic creates the runtime for a given LLC way count. The
// window matches the paper's monitoring cadence (100M instructions).
func NewDunnDynamic(ways int) *DunnDynamic {
	return &DunnDynamic{
		ways:        ways,
		windowInsns: 100_000_000,
		kMin:        2,
		kMax:        4,
		history:     map[int]*stallWindow{},
		masks:       map[int]cat.WayMask{},
	}
}

// AddApp registers an application.
func (d *DunnDynamic) AddApp(id int) error {
	if _, dup := d.history[id]; dup {
		return fmt.Errorf("dunn: app %d already registered", id)
	}
	d.history[id] = newStallWindow(5)
	d.order = append(d.order, id)
	sort.Ints(d.order)
	d.have = false
	return nil
}

// RemoveApp deregisters an application.
func (d *DunnDynamic) RemoveApp(id int) {
	delete(d.history, id)
	for i, v := range d.order {
		if v == id {
			d.order = append(d.order[:i], d.order[i+1:]...)
			break
		}
	}
	d.have = false
}

// WindowInsns returns the monitoring window (constant for Dunn).
func (d *DunnDynamic) WindowInsns(int) uint64 { return d.windowInsns }

// SetWindow overrides the monitoring window (used by scaled experiments
// that shrink every instruction quantity by the same factor).
func (d *DunnDynamic) SetWindow(insns uint64) {
	if insns > 0 {
		d.windowInsns = insns
	}
}

// OnWindow records the stall fraction; Dunn never changes the CAT
// configuration between partitioner activations, so it always returns
// false.
func (d *DunnDynamic) OnWindow(id int, w pmc.Sample) bool {
	if h, ok := d.history[id]; ok {
		h.push(w.StallFraction().Float())
	}
	return false
}

// PassiveWindows implements the sim.PassiveWindows refinement: OnWindow
// only pushes into the window's own per-app history (never requesting a
// mask refresh), and the monitoring cadence is fixed, so the kernel may
// deliver Dunn's windows inside an event-horizon batch.
func (d *DunnDynamic) PassiveWindows() bool { return true }

// Reconfigure re-runs the clustering over the smoothed stall fractions.
// The plan it returns is valid until Dunn's next call.
//
//lfoc:hotpath
func (d *DunnDynamic) Reconfigure() plan.Plan {
	var p plan.Plan
	if len(d.order) > 0 {
		d.stalls = d.stalls[:0]
		for _, id := range d.order {
			d.stalls = append(d.stalls, d.history[id].mean())
		}
		var err error
		if p, err = d.planner.build(d.stalls, d.ways, d.kMin, d.kMax); err != nil {
			p = plan.SingleCluster(len(d.order), d.ways)
		}
		// The planner works in positional indices; translate to app ids.
		for _, c := range p.Clusters {
			for j, pos := range c.Apps {
				c.Apps[j] = d.order[pos]
			}
		}
	}
	d.current = p
	d.have = true
	return p
}

// Assignment returns the masks of the current plan (overlapping layout).
// The map is rewritten by every call; the caller must not modify it.
//
//lfoc:hotpath
func (d *DunnDynamic) Assignment() (map[int]cat.WayMask, error) {
	if !d.have {
		d.Reconfigure()
	}
	if err := d.current.MasksInto(d.masks, d.ways); err != nil {
		return nil, err
	}
	return d.masks, nil
}

// StockDynamic is the no-partitioning dynamic baseline: every application
// always runs with the full LLC mask.
type StockDynamic struct {
	ways int
	ids  []int
	// plan and masks are Reconfigure's and Assignment's results, which
	// every call rewrites.
	plan  plan.Plan
	masks map[int]cat.WayMask
}

// NewStockDynamic creates the baseline for a way count.
func NewStockDynamic(ways int) *StockDynamic {
	return &StockDynamic{
		ways:  ways,
		plan:  plan.Plan{Clusters: []plan.Cluster{{Ways: ways}}},
		masks: map[int]cat.WayMask{},
	}
}

// AddApp registers an application.
func (s *StockDynamic) AddApp(id int) error {
	s.ids = append(s.ids, id)
	sort.Ints(s.ids)
	return nil
}

// RemoveApp deregisters an application.
func (s *StockDynamic) RemoveApp(id int) {
	for i, v := range s.ids {
		if v == id {
			s.ids = append(s.ids[:i], s.ids[i+1:]...)
			return
		}
	}
}

// WindowInsns returns a long window (stock needs no monitoring).
func (s *StockDynamic) WindowInsns(int) uint64 { return 1_000_000_000 }

// OnWindow ignores samples.
func (s *StockDynamic) OnWindow(int, pmc.Sample) bool { return false }

// PassiveWindows implements the sim.PassiveWindows refinement: stock
// does no monitoring at all.
func (s *StockDynamic) PassiveWindows() bool { return true }

// Reconfigure returns the single full-LLC cluster. The plan is valid
// until stock's next call.
func (s *StockDynamic) Reconfigure() plan.Plan {
	s.plan.Clusters[0].Apps = s.ids
	return s.plan
}

// Assignment gives every app the full mask. The map is rewritten by
// every call; the caller must not modify it.
func (s *StockDynamic) Assignment() (map[int]cat.WayMask, error) {
	clear(s.masks)
	for _, id := range s.ids {
		s.masks[id] = cat.FullMask(s.ways)
	}
	return s.masks, nil
}
