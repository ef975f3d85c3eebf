package cluster

// Differential tests for the lazy fleet event queue: the heap-driven
// advancement path must be bit-identical to the eager reference, which
// advances every machine at every synchronization instant (allDue,
// swapped in through dueMachines), across placements, worker counts,
// heterogeneous fleets and lifecycle schedules — and must do strictly
// less machine-advancement work on sparse fleets. CI runs this package
// under -race, which also exercises the parallel horizon-recompute path.

import (
	"fmt"
	"math"
	"reflect"
	"testing"
	"time"

	"github.com/faircache/lfoc/internal/appmodel"
	"github.com/faircache/lfoc/internal/machine"
	"github.com/faircache/lfoc/internal/policy"
	"github.com/faircache/lfoc/internal/profiles"
	"github.com/faircache/lfoc/internal/sim"
	"github.com/faircache/lfoc/internal/sim/scenario"
)

func lazySimConfig(plat *machine.Platform) sim.Config {
	return sim.Config{
		Plat:         plat,
		TargetInsns:  500_000_000,
		PolicyPeriod: 100 * time.Millisecond,
	}
}

func lazySpecs(names ...string) []*appmodel.Spec {
	out := make([]*appmodel.Spec, len(names))
	for i, n := range names {
		out[i] = profiles.MustGet(n)
	}
	return out
}

// lazyScenario rebuilds the identical seeded trace for each half of a
// differential pair: scenarios are consumed by a run.
func lazyScenario(t *testing.T, rate, window float64, seed int64) *scenario.Open {
	t.Helper()
	scn, err := scenario.NewPoisson("lazy-diff",
		lazySpecs("xalancbmk06", "lbm06", "povray06", "namd06"), rate, window, seed)
	if err != nil {
		t.Fatal(err)
	}
	return scn
}

// allDue is the eager reference's due set: every machine, in index
// order, at every instant.
func allDue(q *fleetQueue, _ float64, dst []int) []int {
	for i := range q.horizon {
		dst = append(dst, i)
	}
	return dst
}

// eagerQueue makes advanceDue advance every machine (allDue) until the
// returned function restores the lazy queue:
//
//	defer eagerQueue()()
func eagerQueue() func() {
	dueMachines = allDue
	return func() { dueMachines = (*fleetQueue).collectDue }
}

func stockPolicyFactory(sims []sim.Config) func(int) (sim.Dynamic, error) {
	return func(i int) (sim.Dynamic, error) {
		return policy.NewStockDynamic(sims[i].Plat.Ways), nil
	}
}

// sameResults reports whether two cluster results are identical, down
// to per-app departure instants and series points.
func sameResults(a, b *Result) bool {
	return reflect.DeepEqual(a, b)
}

// runDiffPair executes the identical cluster configuration twice —
// once on the lazy fleet event queue, once on the eager reference loop
// — with fresh placement, lifecycle and scenario state for each half,
// and returns both results plus the advancement statistics.
func runDiffPair(t *testing.T, mkCfg func() Config, rate, window float64, seed int64) (lazy, eager *Result, lazyStats, eagerStats fleetStats) {
	t.Helper()
	run := func(eagerMode bool) (*Result, fleetStats) {
		if eagerMode {
			defer eagerQueue()()
		}
		cfg := mkCfg()
		var st fleetStats
		cfg.statsSink = &st
		sims, err := cfg.MachineConfigs()
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(cfg, lazyScenario(t, rate, window, seed), stockPolicyFactory(sims))
		if err != nil {
			t.Fatal(err)
		}
		return res, st
	}
	lazy, lazyStats = run(false)
	eager, eagerStats = run(true)
	return lazy, eager, lazyStats, eagerStats
}

// The lazy fleet event queue is an execution-strategy change, not a
// semantics change: over seeds × worker counts × fleet shapes — with
// scheduled drains, failures, joins, a seeded MTBF failure process and
// migration all armed — every field of the result must match the eager
// loop exactly.
func TestLazyEagerDifferential(t *testing.T) {
	plat := machine.Small(8, 4)
	base := lazySimConfig(plat)

	mkLifecycle := func() *Lifecycle {
		return &Lifecycle{
			Events: []Event{
				{Time: 0.4, Kind: MachineDrain, Machine: 1},
				{Time: 0.9, Kind: MachineFail, Machine: 0},
				{Time: 1.3, Kind: MachineJoin},
			},
			MTBF:          2.5,
			FailureSeed:   11,
			MigrationCost: 0.02,
			JoinPolicy: func(_ int, mc sim.Config) (sim.Dynamic, error) {
				return policy.NewStockDynamic(mc.Plat.Ways), nil
			},
		}
	}
	het := func() []sim.Config {
		fleet, err := ParseMachineMix("2x11way,2x7way", base)
		if err != nil {
			t.Fatal(err)
		}
		return fleet
	}

	cases := []struct {
		name string
		cfg  func() Config
	}{
		{"rr-3", func() Config {
			return Config{Sim: base, Machines: 3, Placement: NewRoundRobin()}
		}},
		{"least-4", func() Config {
			return Config{Sim: base, Machines: 4, Placement: NewLeastLoaded()}
		}},
		{"fair-3", func() Config {
			return Config{Sim: base, Machines: 3, Placement: NewFairnessAware(plat)}
		}},
		{"het-least", func() Config {
			return Config{Fleet: het(), Placement: NewLeastLoaded()}
		}},
		{"lifecycle-least", func() Config {
			return Config{Sim: base, Machines: 4, Placement: NewLeastLoaded(), Lifecycle: mkLifecycle()}
		}},
		{"lifecycle-het-rr", func() Config {
			return Config{Fleet: het(), Placement: NewRoundRobin(), Lifecycle: mkLifecycle()}
		}},
	}

	for _, tc := range cases {
		for _, workers := range []int{1, 2, 4} {
			for _, seed := range []int64{3, 17} {
				t.Run(fmt.Sprintf("%s/w%d/seed%d", tc.name, workers, seed), func(t *testing.T) {
					mk := func() Config {
						cfg := tc.cfg()
						cfg.Workers = workers
						cfg.RecordAssignments = true
						return cfg
					}
					lazy, eager, _, _ := runDiffPair(t, mk, 8, 2, seed)
					if !sameResults(lazy, eager) {
						t.Errorf("lazy result diverges from eager reference:\nlazy:  %+v\neager: %+v", lazy, eager)
					}
				})
			}
		}
	}
}

// The point of the queue: on a sparse fleet (many machines, few of
// them busy at any instant) the lazy path advances an order of
// magnitude fewer machine-steps per arrival than the eager
// every-machine barrier. 256 machines at 6 arrivals/s leaves most of
// the fleet idle at every sync — exactly the 1024-machine regime the
// cluster-1k benchmark gates, shrunk to test size.
func TestLazyAdvanceSavings(t *testing.T) {
	plat := machine.Small(8, 4)
	mk := func() Config {
		return Config{Sim: lazySimConfig(plat), Machines: 256, Placement: NewLeastLoaded()}
	}
	lazy, eager, lazyStats, eagerStats := runDiffPair(t, mk, 6, 2, 5)
	if !sameResults(lazy, eager) {
		t.Fatal("lazy result diverges from eager reference on the sparse fleet")
	}
	if lazyStats.Syncs != eagerStats.Syncs {
		t.Errorf("sync counts differ: lazy %d eager %d", lazyStats.Syncs, eagerStats.Syncs)
	}
	if eagerStats.Advances < 10*lazyStats.Advances {
		t.Errorf("lazy advanced %d machine-steps vs eager %d: want >=10x reduction",
			lazyStats.Advances, eagerStats.Advances)
	}
	if lazyStats.Advances == 0 {
		t.Error("lazy path advanced no machines at all")
	}
}

// A machine's advertised horizon is a conservative lower bound:
// advancing to any instant strictly below it must not change
// placement-visible state (active/queued populations).
func TestNextEventHorizonConservative(t *testing.T) {
	plat := machine.Small(8, 4)
	scn := lazyScenario(t, 8, 2, 9)
	m, err := sim.NewOpenMachine(lazySimConfig(plat), policy.NewStockDynamic(plat.Ways), scn.Name(), scn.Initial(), scn.Horizon())
	if err != nil {
		t.Fatal(err)
	}
	for _, arr := range scn.Arrivals() {
		h := m.NextEventHorizon()
		if math.IsInf(h, 1) {
			break
		}
		a, q := m.Active(), m.Queued()
		// Probe just below the horizon: no event may fire there.
		probe := h - 1e-9*math.Max(1, math.Abs(h))
		if probe > 0 {
			if err := m.AdvanceTo(probe); err != nil {
				t.Fatal(err)
			}
			if m.Active() != a || m.Queued() != q {
				t.Fatalf("state changed below the advertised horizon %g: active %d->%d queued %d->%d",
					h, a, m.Active(), q, m.Queued())
			}
		}
		if err := m.AdvanceTo(arr.Time); err != nil {
			t.Fatal(err)
		}
		if err := m.Inject(arr); err != nil {
			t.Fatal(err)
		}
		if got := m.NextEventHorizon(); got > arr.Time {
			t.Fatalf("horizon %g ignores pending injected arrival at t=%g", got, arr.Time)
		}
	}
}
