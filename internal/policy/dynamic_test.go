package policy

import (
	"reflect"
	"testing"

	"github.com/faircache/lfoc/internal/cat"
	fp "github.com/faircache/lfoc/internal/fixedpoint"
	"github.com/faircache/lfoc/internal/pmc"
)

// stallSample fabricates a window with the given stall fraction (milli).
func stallSample(stallMilli uint64) pmc.Sample {
	const cycles = 1_000_000
	return pmc.Sample{
		Instructions: cycles,
		Cycles:       cycles,
		StallsL2Miss: cycles * stallMilli / 1000,
	}
}

func TestDunnDynamicLifecycle(t *testing.T) {
	d := NewDunnDynamic(11)
	for id := 0; id < 4; id++ {
		if err := d.AddApp(id); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.AddApp(0); err == nil {
		t.Error("duplicate app accepted")
	}
	if d.WindowInsns(0) != 100_000_000 {
		t.Error("default window wrong")
	}
	d.SetWindow(2_000_000)
	if d.WindowInsns(0) != 2_000_000 {
		t.Error("SetWindow ignored")
	}
	d.SetWindow(0) // ignored
	if d.WindowInsns(0) != 2_000_000 {
		t.Error("zero window accepted")
	}

	// Two high-stall apps, two low-stall apps.
	for i := 0; i < 6; i++ {
		d.OnWindow(0, stallSample(700))
		d.OnWindow(1, stallSample(680))
		d.OnWindow(2, stallSample(50))
		d.OnWindow(3, stallSample(60))
	}
	p := d.Reconfigure()
	if err := p.Validate(4, 11); err != nil {
		t.Fatalf("%v (%s)", err, p.Canonical())
	}
	if !p.Overlapping {
		t.Error("Dunn plan should be overlapping")
	}
	// High-stall apps grouped together and given more ways than the
	// low-stall group.
	if p.ClusterOf(0) != p.ClusterOf(1) || p.ClusterOf(2) != p.ClusterOf(3) {
		t.Errorf("grouping wrong: %s", p.Canonical())
	}
	wHigh := p.Clusters[p.ClusterOf(0)].Ways
	wLow := p.Clusters[p.ClusterOf(2)].Ways
	if wHigh <= wLow {
		t.Errorf("high-stall cluster got %d ways vs %d", wHigh, wLow)
	}

	masks, err := d.Assignment()
	if err != nil {
		t.Fatal(err)
	}
	if len(masks) != 4 {
		t.Fatalf("masks = %v", masks)
	}
	for id, m := range masks {
		if m == 0 {
			t.Errorf("app %d has empty mask", id)
		}
	}

	d.RemoveApp(0)
	p = d.Reconfigure()
	if p.ClusterOf(0) != -1 {
		t.Error("removed app still planned")
	}
	if p.NumApps() != 3 {
		t.Errorf("plan covers %d apps", p.NumApps())
	}
}

func TestDunnDynamicEmpty(t *testing.T) {
	d := NewDunnDynamic(11)
	p := d.Reconfigure()
	if len(p.Clusters) != 0 {
		t.Error("empty Dunn should produce empty plan")
	}
	masks, err := d.Assignment()
	if err != nil || len(masks) != 0 {
		t.Error("empty assignment wrong")
	}
	// OnWindow for unknown app is a no-op.
	if d.OnWindow(99, stallSample(100)) {
		t.Error("unknown app changed config")
	}
}

func TestDunnDynamicAssignmentBeforeReconfigure(t *testing.T) {
	d := NewDunnDynamic(11)
	_ = d.AddApp(0)
	// Assignment before any Reconfigure must self-initialize.
	masks, err := d.Assignment()
	if err != nil {
		t.Fatal(err)
	}
	if masks[0] == 0 {
		t.Error("no mask for app 0")
	}
}

func TestStockDynamic(t *testing.T) {
	s := NewStockDynamic(11)
	_ = s.AddApp(2)
	_ = s.AddApp(0)
	if s.WindowInsns(0) == 0 {
		t.Error("window should be positive")
	}
	if s.OnWindow(0, stallSample(500)) {
		t.Error("stock should never change config")
	}
	p := s.Reconfigure()
	if len(p.Clusters) != 1 || p.Clusters[0].Ways != 11 || len(p.Clusters[0].Apps) != 2 {
		t.Errorf("plan = %s", p.Canonical())
	}
	masks, err := s.Assignment()
	if err != nil {
		t.Fatal(err)
	}
	if masks[0] != cat.FullMask(11) || masks[2] != cat.FullMask(11) {
		t.Error("stock masks wrong")
	}
	s.RemoveApp(0)
	if masks, _ = s.Assignment(); len(masks) != 1 {
		t.Error("RemoveApp ignored")
	}
	s.RemoveApp(42) // no-op
}

// TestStockDynamicCachesUntilAppSetChanges pins the stock policy's
// share of the sim.Dynamic contract across a restore: one map, whose
// masks follow the app set.
func TestStockDynamicCachesUntilAppSetChanges(t *testing.T) {
	src := NewStockDynamic(11)
	_ = src.AddApp(0)
	_ = src.AddApp(1)
	snap, err := src.PolicySnapshot()
	if err != nil {
		t.Fatal(err)
	}
	// A restored machine's kernel activates the fresh policy and reads
	// its empty assignment before the restore.
	s := NewStockDynamic(11)
	s.Reconfigure()
	if m, _ := s.Assignment(); len(m) != 0 {
		t.Fatalf("empty policy assigned %v", m)
	}
	if err := s.PolicyRestore(snap); err != nil {
		t.Fatal(err)
	}
	if p := s.Reconfigure(); len(p.Clusters[0].Apps) != 2 {
		t.Errorf("restored plan = %s", p.Canonical())
	}
	held, _ := s.Assignment()
	if len(held) != 2 {
		t.Errorf("restored assignment = %v", held)
	}
	if again, _ := s.Assignment(); reflect.ValueOf(again).Pointer() != reflect.ValueOf(held).Pointer() {
		t.Error("Assignment returned a second map")
	}
	_ = s.AddApp(2)
	if p := s.Reconfigure(); len(p.Clusters[0].Apps) != 3 {
		t.Errorf("plan after AddApp = %s", p.Canonical())
	}
	if m, _ := s.Assignment(); len(m) != 3 {
		t.Errorf("assignment after AddApp = %v", m)
	}
	s.RemoveApp(0)
	if m, _ := s.Assignment(); len(m) != 2 || m[0] != 0 {
		t.Errorf("assignment after RemoveApp = %v", m)
	}
}

// dunnWithStalls registers one app per stall fraction (milli) and fills
// each app's stall window.
func dunnWithStalls(t *testing.T, stalls ...uint64) *DunnDynamic {
	t.Helper()
	d := NewDunnDynamic(11)
	for id, s := range stalls {
		if err := d.AddApp(id); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 5; i++ {
			d.OnWindow(id, stallSample(s))
		}
	}
	return d
}

// TestDunnDynamicSteadyStateAllocFree pins Dunn's reused scratch: when
// the stall means yield the current plan again, an activation and the
// mask lookup allocate nothing.
func TestDunnDynamicSteadyStateAllocFree(t *testing.T) {
	for name, d := range map[string]*DunnDynamic{
		"empty":    NewDunnDynamic(11),
		"one app":  dunnWithStalls(t, 300),
		"six apps": dunnWithStalls(t, 700, 680, 50, 60, 400, 390),
	} {
		d.Reconfigure() // warm the scratch and the map
		if _, err := d.Assignment(); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(50, func() {
			d.Reconfigure()
			if _, err := d.Assignment(); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: unchanged Reconfigure+Assignment allocates %v times, want 0", name, allocs)
		}
	}
}

func TestStallWindowSmoothing(t *testing.T) {
	w := newStallWindow(3)
	if w.mean() != 0 {
		t.Error("empty mean should be 0")
	}
	w.push(0.3)
	w.push(0.6)
	if m := w.mean(); m < 0.44 || m > 0.46 {
		t.Errorf("mean = %v", m)
	}
	w.push(0.9)
	w.push(1.2) // evicts 0.3
	if m := w.mean(); m < 0.89 || m > 0.91 {
		t.Errorf("mean after wrap = %v", m)
	}
}

func TestDunnPlanDegenerateStalls(t *testing.T) {
	// All-zero stalls: proportional allocation degenerates; every
	// cluster must still get at least one way.
	p, err := new(dunnPlanner).build([]float64{0, 0, 0}, 11, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range p.Clusters {
		if c.Ways < 1 {
			t.Errorf("cluster with %d ways", c.Ways)
		}
	}
	if err := p.Validate(3, 11); err != nil {
		t.Error(err)
	}
}

func TestProfileFromTableBoundary(t *testing.T) {
	w := workloadOf(t, "xalancbmk06")
	prof := ProfileFromTable(w.Tables[0])
	// Fixed-point slowdown at 1 way must match the float table within
	// rounding.
	want := w.Tables[0].Slowdown(1)
	got := fp.Value(prof.SlowdownTable()[1]).Float()
	if got < want*0.99 || got > want*1.01 {
		t.Errorf("fixed-point slowdown %v vs float %v", got, want)
	}
}
