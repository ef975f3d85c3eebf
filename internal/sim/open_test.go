package sim_test

import (
	"testing"
	"time"

	"github.com/faircache/lfoc/internal/appmodel"
	"github.com/faircache/lfoc/internal/core"
	"github.com/faircache/lfoc/internal/machine"
	"github.com/faircache/lfoc/internal/policy"
	"github.com/faircache/lfoc/internal/profiles"
	"github.com/faircache/lfoc/internal/sim"
	"github.com/faircache/lfoc/internal/sim/scenario"
)

func openConfig() sim.Config {
	return sim.Config{
		Plat:         machine.Skylake(),
		TargetInsns:  500_000_000,
		PolicyPeriod: 100 * time.Millisecond,
	}
}

func openPool(names ...string) []*appmodel.Spec {
	out := make([]*appmodel.Spec, len(names))
	for i, n := range names {
		out[i] = profiles.MustGet(n)
	}
	return out
}

func lfocPolicy(t *testing.T, plat *machine.Platform) (*core.Controller, sim.Dynamic) {
	t.Helper()
	ctrl, err := core.NewController(core.DefaultParams(plat.Ways), plat.WayBytes)
	if err != nil {
		t.Fatal(err)
	}
	return ctrl, ctrl
}

// An open trace may start over-subscribed: initial apps beyond the core
// count start in the admission queue (like arrivals on a full machine)
// and are admitted FIFO as residents depart — a closed run with the
// same population still errors, because its apps never free a core.
func TestOpenInitialOverflowQueues(t *testing.T) {
	cfg := openConfig()
	cfg.Plat = machine.Small(8, 2)
	initial := openPool("povray06", "namd06", "povray06", "namd06")
	scn, err := scenario.NewTrace("overflow", initial, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.RunOpen(cfg, scn, policy.NewStockDynamic(cfg.Plat.Ways))
	if err != nil {
		t.Fatal(err)
	}
	if res.Departed != len(initial) || res.Remaining != 0 {
		t.Fatalf("departed %d remaining %d, want all %d initial apps to complete",
			res.Departed, res.Remaining, len(initial))
	}
	if res.PeakActive > cfg.Plat.Cores {
		t.Errorf("peak active %d exceeds %d cores", res.PeakActive, cfg.Plat.Cores)
	}
	queued := 0
	for _, a := range res.Apps {
		if a.WaitSeconds > 0 {
			queued++
		}
	}
	if queued != len(initial)-cfg.Plat.Cores {
		t.Errorf("%d apps waited, want the %d over-capacity initial apps",
			queued, len(initial)-cfg.Plat.Cores)
	}
	if _, err := sim.RunDynamic(cfg, initial, policy.NewStockDynamic(cfg.Plat.Ways)); err == nil {
		t.Error("over-subscribed closed run accepted")
	}
}

func TestOpenPoissonChurn(t *testing.T) {
	cfg := openConfig()
	pool := openPool("xalancbmk06", "lbm06", "povray06", "libquantum06", "soplex06")
	scn, err := scenario.NewPoisson("churn", pool, 8, 3, 42)
	if err != nil {
		t.Fatal(err)
	}
	_, pol := lfocPolicy(t, cfg.Plat)
	res, err := sim.RunOpen(cfg, scn, pol)
	if err != nil {
		t.Fatal(err)
	}
	if res.Departed == 0 {
		t.Fatal("no application ever departed")
	}
	if res.Remaining != 0 {
		t.Errorf("%d apps remaining after drain", res.Remaining)
	}
	if res.PeakActive == 0 || res.PeakActive > cfg.Plat.Cores {
		t.Errorf("peak active = %d (cores %d)", res.PeakActive, cfg.Plat.Cores)
	}
	if res.Series.Len() == 0 {
		t.Fatal("no windowed metrics collected")
	}
	var prevEnd float64
	for i, p := range res.Series.All() {
		if p.End <= p.Start {
			t.Errorf("window %d: degenerate bounds [%v,%v)", i, p.Start, p.End)
		}
		if i > 0 && p.Start != prevEnd {
			t.Errorf("window %d: not contiguous", i)
		}
		prevEnd = p.End
	}
	for _, a := range res.Apps {
		if a.DepartedAt < 0 {
			t.Errorf("app %d (%s) never departed", a.Slot, a.Name)
			continue
		}
		if a.Slowdown < 1 {
			t.Errorf("app %d: slowdown %v < 1", a.Slot, a.Slowdown)
		}
		if a.AdmittedAt < a.ArrivedAt {
			t.Errorf("app %d: admitted %v before arrival %v", a.Slot, a.AdmittedAt, a.ArrivedAt)
		}
		if a.Runs != 1 {
			t.Errorf("app %d: %d runs in a depart-on-completion scenario", a.Slot, a.Runs)
		}
	}
}

// Same trace + seed + config must reproduce every windowed metric and
// every per-app outcome exactly. CI runs this under -race.
func TestOpenDeterminism(t *testing.T) {
	cfg := openConfig()
	pool := openPool("xalancbmk06", "lbm06", "povray06", "namd06")
	run := func(seed int64) *sim.OpenResult {
		scn, err := scenario.NewPoisson("det", pool, 6, 2, seed)
		if err != nil {
			t.Fatal(err)
		}
		_, pol := lfocPolicy(t, cfg.Plat)
		res, err := sim.RunOpen(cfg, scn, pol)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(7), run(7)
	if a.Series.Fingerprint() != b.Series.Fingerprint() {
		t.Error("same seed, different windowed series")
	}
	if len(a.Apps) != len(b.Apps) {
		t.Fatalf("same seed, different populations: %d vs %d", len(a.Apps), len(b.Apps))
	}
	for i := range a.Apps {
		if a.Apps[i] != b.Apps[i] {
			t.Errorf("app %d diverges: %+v vs %+v", i, a.Apps[i], b.Apps[i])
		}
	}
	c := run(8)
	if len(c.Apps) == len(a.Apps) && a.Series.Fingerprint() == c.Series.Fingerprint() {
		t.Error("different seeds produced identical runs")
	}
}

// A machine smaller than the offered load must queue arrivals FIFO and
// still drain deterministically.
func TestOpenQueueingOnFullMachine(t *testing.T) {
	cfg := openConfig()
	cfg.Plat = machine.Small(8, 2)
	pool := openPool("povray06", "namd06")
	scn, err := scenario.NewPoisson("overload", pool, 30, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.RunOpen(cfg, scn, policy.NewStockDynamic(cfg.Plat.Ways))
	if err != nil {
		t.Fatal(err)
	}
	if res.PeakActive > 2 {
		t.Errorf("peak active %d exceeds 2 cores", res.PeakActive)
	}
	queued := 0
	for _, a := range res.Apps {
		if a.WaitSeconds > 0 {
			queued++
		}
	}
	if queued == 0 {
		t.Error("overloaded machine never queued an arrival")
	}
	if res.Remaining != 0 {
		t.Errorf("%d apps never admitted/departed", res.Remaining)
	}
}

// An explicit trace admits in order and respects arrival times.
func TestOpenExplicitTrace(t *testing.T) {
	cfg := openConfig()
	spec := profiles.MustGet("povray06")
	arrivals := []scenario.Arrival{
		{Time: 0.5, Spec: spec},
		{Time: 0.1, Spec: profiles.MustGet("lbm06")}, // out of order: NewTrace sorts
	}
	scn, err := scenario.NewTrace("t", openPool("namd06"), arrivals)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.RunOpen(cfg, scn, policy.NewStockDynamic(cfg.Plat.Ways))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Apps) != 3 {
		t.Fatalf("expected 3 apps, got %d", len(res.Apps))
	}
	if res.Apps[0].Name != "namd06" || res.Apps[0].ArrivedAt != 0 {
		t.Errorf("initial app wrong: %+v", res.Apps[0])
	}
	if res.Apps[1].Name != "lbm06" || res.Apps[2].Name != "povray06" {
		t.Errorf("trace order not respected: %s then %s", res.Apps[1].Name, res.Apps[2].Name)
	}
	if res.Apps[2].AdmittedAt < 0.5 {
		t.Errorf("povray admitted at %v, before its arrival at 0.5", res.Apps[2].AdmittedAt)
	}
}

// Open runs must release policy state on departure: after the system
// drains, every dynamic policy's assignment must be empty — otherwise
// monitoring state (and, downstream, classes of service) leak.
func TestOpenPolicyStateReclaimed(t *testing.T) {
	cfg := openConfig()
	pool := openPool("xalancbmk06", "lbm06", "povray06")
	pols := map[string]sim.Dynamic{
		"stock": policy.NewStockDynamic(cfg.Plat.Ways),
		"dunn":  policy.NewDunnDynamic(cfg.Plat.Ways),
	}
	ctrl, lfocPol := lfocPolicy(t, cfg.Plat)
	pols["lfoc"] = lfocPol
	for name, pol := range pols {
		scn, err := scenario.NewPoisson("drain", pool, 10, 2, 11)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.RunOpen(cfg, scn, pol)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Remaining != 0 {
			t.Errorf("%s: %d apps remaining", name, res.Remaining)
		}
		asg, err := pol.Assignment()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(asg) != 0 {
			t.Errorf("%s: %d stale assignments after drain: %v", name, len(asg), asg)
		}
	}
	if got := ctrl.SamplingActive(); got != -1 {
		t.Errorf("lfoc still sampling app %d after drain", got)
	}
}

// The documented simplification — restarted programs keep their
// monitoring identity — becomes a scenario knob: with
// ResetIdentityOnRestart the policy sees an exit+spawn per run and must
// re-learn the class, and the re-learned classification converges to
// what the keep-identity run established.
func TestIdentityResetReclassificationConverges(t *testing.T) {
	cfg := openConfig()
	cfg.TargetInsns = 2_000_000_000
	specs := openPool("xalancbmk06", "lbm06", "povray06")

	baseCtrl, basePol := lfocPolicy(t, cfg.Plat)
	baseRes, err := sim.RunClosed(cfg, scenario.NewClosed(specs, 3), basePol)
	if err != nil {
		t.Fatal(err)
	}

	resetCtrl, resetPol := lfocPolicy(t, cfg.Plat)
	scn := scenario.NewClosed(specs, 3)
	scn.ResetIdentityOnRestart = true
	resetRes, err := sim.RunClosed(cfg, scn, resetPol)
	if err != nil {
		t.Fatal(err)
	}

	// Every classified fresh identity must agree with the keep-identity
	// baseline (convergence); at least one fresh identity must actually
	// have been re-classified. The very last spawn of the slowest slot
	// is legitimately still ClassUnknown — it was born as the experiment
	// ended.
	fresh, relearned := 0, 0
	for slot := range specs {
		baseID := baseRes.FinalMonIDs[slot]
		resetID := resetRes.FinalMonIDs[slot]
		if baseID != slot {
			t.Errorf("keep-identity run changed slot %d's id to %d", slot, baseID)
		}
		if resetID != slot {
			fresh++
		}
		want := baseCtrl.ClassOf(baseID)
		if want == core.ClassUnknown {
			t.Errorf("slot %d never classified in the baseline run", slot)
		}
		got := resetCtrl.ClassOf(resetID)
		if got == core.ClassUnknown {
			continue
		}
		if got != want {
			t.Errorf("slot %d: fresh identity re-classified as %v, keep-identity says %v", slot, got, want)
		} else if resetID != slot {
			relearned++
		}
	}
	if fresh == 0 {
		t.Error("no slot ever received a fresh identity despite ResetIdentityOnRestart")
	}
	if relearned == 0 {
		t.Error("no fresh identity converged to the baseline classification")
	}
}

// A horizon that cuts the run off mid-queue must not make the
// unadmitted arrivals vanish: the offered load stays visible in Apps
// and Remaining.
func TestOpenHorizonKeepsUnadmittedArrivalsVisible(t *testing.T) {
	cfg := openConfig()
	cfg.Plat = machine.Small(8, 2)
	spec := profiles.MustGet("povray06")
	var arrivals []scenario.Arrival
	for i := 0; i < 10; i++ {
		arrivals = append(arrivals, scenario.Arrival{Time: float64(i) * 0.001, Spec: spec})
	}
	scn, err := scenario.NewTrace("cutoff", nil, arrivals)
	if err != nil {
		t.Fatal(err)
	}
	scn.WithHorizon(0.05) // far less than one service time
	res, err := sim.RunOpen(cfg, scn, policy.NewStockDynamic(cfg.Plat.Ways))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Apps) != 10 {
		t.Fatalf("%d apps reported, 10 arrived", len(res.Apps))
	}
	if res.Departed+res.Remaining != 10 {
		t.Errorf("departed %d + remaining %d != 10", res.Departed, res.Remaining)
	}
	unadmitted := 0
	for _, a := range res.Apps {
		if a.AdmittedAt < 0 {
			unadmitted++
			if a.Slot != -1 || a.DepartedAt >= 0 {
				t.Errorf("unadmitted outcome inconsistent: %+v", a)
			}
		}
	}
	if unadmitted != 8 {
		t.Errorf("%d unadmitted arrivals reported, want 8 (2 cores)", unadmitted)
	}
}

// An empty machine closes one idle window per policy period for as
// long as it stays empty. Once the stretch has begun, extending it
// allocates nothing: the stretch is one run record, however long.
func TestIdleMachineAllocatesNothing(t *testing.T) {
	cfg := openConfig()
	ctrl, err := core.NewController(core.DefaultParams(cfg.Plat.Ways), cfg.Plat.WayBytes)
	if err != nil {
		t.Fatal(err)
	}
	m, err := sim.NewOpenMachine(cfg, ctrl, "idle", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	period := cfg.PolicyPeriod.Seconds()
	if err := m.AdvanceTo(period); err != nil {
		t.Fatal(err)
	}
	// AllocsPerRun runs the loop twice, a warm-up and the measured
	// call, each advancing the machine another steps×periodsPerStep
	// periods. Without an allocation no byte is allocated either.
	const steps, periodsPerStep = 100, 100
	step := 0
	allocs := testing.AllocsPerRun(1, func() {
		for i := 0; i < steps; i++ {
			step++
			if err := m.AdvanceTo(period * float64(1+step*periodsPerStep)); err != nil {
				t.Fatal(err)
			}
		}
	})
	if allocs != 0 {
		t.Errorf("%d idle periods allocated %v times, want 0", steps*periodsPerStep, allocs)
	}
	if err := m.Drain(); err != nil {
		t.Fatal(err)
	}
	if res := m.Result(); res.Series.Len() < steps*periodsPerStep {
		t.Errorf("%d windows recorded over %d idle periods", res.Series.Len(), steps*periodsPerStep)
	}
}
