package cluster_test

import (
	"reflect"
	"runtime"
	"testing"
	"time"

	"github.com/faircache/lfoc/internal/appmodel"
	"github.com/faircache/lfoc/internal/cluster"
	"github.com/faircache/lfoc/internal/core"
	"github.com/faircache/lfoc/internal/machine"
	"github.com/faircache/lfoc/internal/policy"
	"github.com/faircache/lfoc/internal/profiles"
	"github.com/faircache/lfoc/internal/sim"
	"github.com/faircache/lfoc/internal/sim/scenario"
	"github.com/faircache/lfoc/internal/workloads"
)

func clusterSimConfig(plat *machine.Platform) sim.Config {
	return sim.Config{
		Plat:         plat,
		TargetInsns:  500_000_000,
		PolicyPeriod: 100 * time.Millisecond,
	}
}

func pool(names ...string) []*appmodel.Spec {
	out := make([]*appmodel.Spec, len(names))
	for i, n := range names {
		out[i] = profiles.MustGet(n)
	}
	return out
}

func stockFactory(plat *machine.Platform) func(int) (sim.Dynamic, error) {
	return func(int) (sim.Dynamic, error) { return policy.NewStockDynamic(plat.Ways), nil }
}

func lfocFactory(plat *machine.Platform) func(int) (sim.Dynamic, error) {
	return func(int) (sim.Dynamic, error) {
		return core.NewController(core.DefaultParams(plat.Ways), plat.WayBytes)
	}
}

// An N=1 cluster must reproduce RunOpen bit-for-bit: same trace, same
// policy, same config — the cluster layer adds routing, not physics.
func TestClusterN1GoldenVsRunOpen(t *testing.T) {
	plat := machine.Skylake()
	cfg := clusterSimConfig(plat)
	mkScn := func() *scenario.Open {
		scn, err := scenario.NewPoisson("golden", pool("xalancbmk06", "lbm06", "povray06", "libquantum06"), 8, 3, 42)
		if err != nil {
			t.Fatal(err)
		}
		return scn
	}

	ctrl, err := core.NewController(core.DefaultParams(plat.Ways), plat.WayBytes)
	if err != nil {
		t.Fatal(err)
	}
	want, err := sim.RunOpen(cfg, mkScn(), ctrl)
	if err != nil {
		t.Fatal(err)
	}

	res, err := cluster.Run(cluster.Config{Sim: cfg, Machines: 1, Placement: cluster.NewRoundRobin()},
		mkScn(), lfocFactory(plat))
	if err != nil {
		t.Fatal(err)
	}
	got := res.PerMachine[0].Open
	if !reflect.DeepEqual(got, want) {
		if got.Series.Fingerprint() != want.Series.Fingerprint() {
			t.Errorf("series diverge:\n cluster %s\n solo    %s", got.Series.Fingerprint(), want.Series.Fingerprint())
		}
		if len(got.Apps) != len(want.Apps) {
			t.Fatalf("populations diverge: %d vs %d", len(got.Apps), len(want.Apps))
		}
		for i := range got.Apps {
			if got.Apps[i] != want.Apps[i] {
				t.Errorf("app %d diverges:\n cluster %+v\n solo    %+v", i, got.Apps[i], want.Apps[i])
			}
		}
		t.Errorf("N=1 cluster result not bit-identical to RunOpen:\n cluster %+v\n solo    %+v",
			*got, *want)
	}
	// Cluster-wide aggregates of a single machine collapse to the
	// machine's own numbers.
	if res.Departed != want.Departed || res.Remaining != want.Remaining {
		t.Errorf("aggregate departed/remaining %d/%d, want %d/%d",
			res.Departed, res.Remaining, want.Departed, want.Remaining)
	}
	if res.MeanSlowdown != want.MeanSlowdown {
		t.Errorf("aggregate mean slowdown %v, want %v", res.MeanSlowdown, want.MeanSlowdown)
	}
}

// An over-subscribed time-zero fleet must actually run: initial apps
// beyond a machine's core count start in its admission queue (like
// arrivals on a full machine) and are admitted as residents depart, so
// the whole population eventually completes.
func TestClusterOverCapacityTimeZeroRuns(t *testing.T) {
	plat := machine.Small(8, 2)
	cfg := clusterSimConfig(plat)
	initial := pool("povray06", "namd06", "povray06", "namd06", "povray06", "namd06", "povray06")
	scn, err := scenario.NewTrace("overcap", initial, nil)
	if err != nil {
		t.Fatal(err)
	}
	// 7 initial apps over 2 machines × 2 cores: 4 cores' worth start
	// resident, 3 start queued.
	res, err := cluster.Run(cluster.Config{Sim: cfg, Machines: 2, Placement: cluster.NewLeastLoaded()},
		scn, stockFactory(plat))
	if err != nil {
		t.Fatal(err)
	}
	if res.Departed != len(initial) || res.Remaining != 0 {
		t.Errorf("departed %d remaining %d, want all %d initial apps to complete",
			res.Departed, res.Remaining, len(initial))
	}
	queued := 0
	for _, m := range res.PerMachine {
		for _, a := range m.Open.Apps {
			if a.WaitSeconds > 0 {
				queued++
			}
		}
	}
	if queued != 3 {
		t.Errorf("%d apps report queue wait, want the 3 over-capacity initial apps", queued)
	}
}

// Machines with different policy cadences collect metric windows of
// different widths unless MetricsWindow is set explicitly; the mismatch
// must be rejected before any machine simulates, and an explicit common
// window must make the same fleet run.
func TestClusterMixedCadenceNeedsExplicitWindow(t *testing.T) {
	plat := machine.Small(8, 4)
	fast := clusterSimConfig(plat)
	slow := fast
	slow.PolicyPeriod = 2 * fast.PolicyPeriod
	cfg := cluster.Config{Fleet: []sim.Config{fast, slow}}
	if _, err := cfg.MachineConfigs(); err == nil {
		t.Fatal("mixed-cadence fleet without explicit MetricsWindow accepted")
	}
	fast.MetricsWindow = fast.PolicyPeriod
	slow.MetricsWindow = fast.PolicyPeriod
	scn, err := scenario.NewPoisson("cadence", pool("povray06", "lbm06"), 6, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	res, err := cluster.Run(cluster.Config{Fleet: []sim.Config{fast, slow}, Placement: cluster.NewRoundRobin()},
		scn, stockFactory(plat))
	if err != nil {
		t.Fatal(err)
	}
	if res.Series.Width != fast.MetricsWindow.Seconds() {
		t.Errorf("merged width %v, want %v", res.Series.Width, fast.MetricsWindow.Seconds())
	}
}

// A homogeneous fleet expressed through the per-machine Fleet list must
// be byte-identical to the Sim+Machines shorthand: the heterogeneous
// config path adds expressiveness, not physics.
func TestClusterHomogeneousFleetConfigEquivalence(t *testing.T) {
	plat := machine.Small(8, 4)
	cfg := clusterSimConfig(plat)
	mkScn := func() *scenario.Open {
		scn, err := scenario.NewPoisson("hom-fleet", pool("xalancbmk06", "lbm06", "povray06"), 10, 3, 5)
		if err != nil {
			t.Fatal(err)
		}
		return scn
	}
	want, err := cluster.Run(cluster.Config{Sim: cfg, Machines: 3, Placement: cluster.NewLeastLoaded()},
		mkScn(), lfocFactory(plat))
	if err != nil {
		t.Fatal(err)
	}
	got, err := cluster.Run(cluster.Config{Fleet: []sim.Config{cfg, cfg, cfg}, Placement: cluster.NewLeastLoaded()},
		mkScn(), lfocFactory(plat))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("fleet-config homogeneous run differs from Sim+Machines run:\n fleet %s\n plain %s",
			got.Series.Fingerprint(), want.Series.Fingerprint())
	}
}

// An N=1 cluster built from a heterogeneous-config Fleet entry must
// reproduce RunOpen on that same config bit-for-bit, exactly like the
// homogeneous N=1 golden.
func TestClusterHeterogeneousN1GoldenVsRunOpen(t *testing.T) {
	plat := machine.Small(7, 4)
	cfg := clusterSimConfig(plat)
	mkScn := func() *scenario.Open {
		scn, err := scenario.NewPoisson("het-golden", pool("xalancbmk06", "lbm06", "povray06"), 8, 3, 13)
		if err != nil {
			t.Fatal(err)
		}
		return scn
	}
	want, err := sim.RunOpen(cfg, mkScn(), policy.NewStockDynamic(plat.Ways))
	if err != nil {
		t.Fatal(err)
	}
	res, err := cluster.Run(cluster.Config{Fleet: []sim.Config{cfg}, Placement: cluster.NewRoundRobin()},
		mkScn(), stockFactory(plat))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.PerMachine[0].Open, want) {
		t.Errorf("heterogeneous-config N=1 cluster not bit-identical to RunOpen:\n cluster %s\n solo    %s",
			res.PerMachine[0].Open.Series.Fingerprint(), want.Series.Fingerprint())
	}
	if res.PerMachine[0].Ways != plat.Ways || res.PerMachine[0].Cores != plat.Cores {
		t.Errorf("machine reports %dw/%dc, want %dw/%dc",
			res.PerMachine[0].Ways, res.PerMachine[0].Cores, plat.Ways, plat.Cores)
	}
}

// Heterogeneous machines stay independent too: each machine of a mixed
// fleet must equal a solo RunOpen replay of its split sub-trace on its
// own platform with its own policy.
func TestClusterHeterogeneousSplitTraceEquivalence(t *testing.T) {
	base := clusterSimConfig(machine.Small(8, 4))
	fleet, err := cluster.ParseMachineMix("1x8way4c,1x5way3c", base)
	if err != nil {
		t.Fatal(err)
	}
	scn, err := scenario.NewPoisson("het-split", pool("xalancbmk06", "lbm06", "povray06", "namd06"), 10, 3, 7)
	if err != nil {
		t.Fatal(err)
	}
	res, err := cluster.Run(cluster.Config{Fleet: fleet, Placement: cluster.NewLeastLoaded(), RecordAssignments: true},
		scn, func(i int) (sim.Dynamic, error) {
			return policy.NewStockDynamic(fleet[i].Plat.Ways), nil
		})
	if err != nil {
		t.Fatal(err)
	}
	split, err := workloads.SplitArrivals(scn.Arrivals(), res.Assignments, len(fleet))
	if err != nil {
		t.Fatal(err)
	}
	for m := range fleet {
		if len(split[m]) == 0 {
			t.Errorf("machine %d got no arrivals", m)
			continue
		}
		sub, err := scenario.NewTrace(scn.Name(), nil, split[m])
		if err != nil {
			t.Fatal(err)
		}
		solo, err := sim.RunOpen(fleet[m], sub, policy.NewStockDynamic(fleet[m].Plat.Ways))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res.PerMachine[m].Open, solo) {
			t.Errorf("machine %d (%s): cluster result differs from solo replay on its own platform",
				m, res.PerMachine[m].Platform)
		}
	}
}

// Parallel fleet advancement must be bit-identical to the serial loop:
// machines share nothing between placement points, so neither the
// worker-pool size nor GOMAXPROCS may perturb any result. Eight workers
// exceed the 4-machine fleet, so the pool caps them at the fleet size.
// CI runs this under -race, which also exercises the pool itself.
func TestClusterParallelAdvanceDeterminism(t *testing.T) {
	base := clusterSimConfig(machine.Small(8, 4))
	fleet, err := cluster.ParseMachineMix("2x8way4c,2x5way4c", base)
	if err != nil {
		t.Fatal(err)
	}
	run := func(workers int) *cluster.Result {
		scn, err := scenario.NewPoisson("par-det", pool("xalancbmk06", "lbm06", "povray06", "soplex06"), 12, 2, 11)
		if err != nil {
			t.Fatal(err)
		}
		res, err := cluster.Run(
			cluster.Config{Fleet: fleet, Placement: cluster.NewLeastLoaded(), Workers: workers},
			scn, func(i int) (sim.Dynamic, error) {
				return policy.NewStockDynamic(fleet[i].Plat.Ways), nil
			})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	serial := run(1)
	for _, workers := range []int{2, 3, 4, 8} {
		if got := run(workers); !reflect.DeepEqual(got, serial) {
			t.Errorf("workers=%d: parallel advancement diverges from serial:\n parallel %s\n serial   %s",
				workers, got.Series.Fingerprint(), serial.Series.Fingerprint())
		}
	}
	// The acceptance knob is GOMAXPROCS (Workers defaults to it): the
	// same run must be bit-identical at GOMAXPROCS 1 and 4.
	prev := runtime.GOMAXPROCS(1)
	gm1 := run(0)
	runtime.GOMAXPROCS(4)
	gm4 := run(0)
	runtime.GOMAXPROCS(prev)
	if !reflect.DeepEqual(gm1, gm4) {
		t.Error("GOMAXPROCS=1 and GOMAXPROCS=4 cluster results differ")
	}
}

// Machines inside a cluster are independent: replaying each machine's
// split sub-trace through a solo RunOpen must reproduce that machine's
// cluster result exactly.
func TestClusterSplitTraceEquivalence(t *testing.T) {
	plat := machine.Small(8, 4)
	cfg := clusterSimConfig(plat)
	const machines = 3
	scn, err := scenario.NewPoisson("split", pool("xalancbmk06", "lbm06", "povray06", "namd06"), 10, 3, 7)
	if err != nil {
		t.Fatal(err)
	}
	res, err := cluster.Run(cluster.Config{Sim: cfg, Machines: machines, Placement: cluster.NewLeastLoaded(), RecordAssignments: true},
		scn, stockFactory(plat))
	if err != nil {
		t.Fatal(err)
	}

	split, err := workloads.SplitArrivals(scn.Arrivals(), res.Assignments, machines)
	if err != nil {
		t.Fatal(err)
	}
	for m := 0; m < machines; m++ {
		if len(split[m]) == 0 {
			t.Errorf("machine %d got no arrivals; least-loaded should spread %d arrivals", m, len(scn.Arrivals()))
			continue
		}
		sub, err := scenario.NewTrace(scn.Name(), nil, split[m])
		if err != nil {
			t.Fatal(err)
		}
		solo, err := sim.RunOpen(cfg, sub, policy.NewStockDynamic(plat.Ways))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res.PerMachine[m].Open, solo) {
			t.Errorf("machine %d: cluster result differs from solo replay of its sub-trace", m)
		}
	}
}

// Identical (scenario, seed, placement, policy) inputs must reproduce
// the whole cluster result. CI runs this under -race, which also
// exercises the concurrent drain.
func TestClusterDeterminism(t *testing.T) {
	plat := machine.Small(8, 4)
	cfg := clusterSimConfig(plat)
	for _, placement := range []string{"rr", "least", "fair"} {
		run := func() *cluster.Result {
			scn, err := scenario.NewPoisson("det", pool("xalancbmk06", "lbm06", "povray06", "soplex06"), 10, 2, 11)
			if err != nil {
				t.Fatal(err)
			}
			p, err := cluster.NewPlacement(placement, plat)
			if err != nil {
				t.Fatal(err)
			}
			res, err := cluster.Run(cluster.Config{Sim: cfg, Machines: 4, Placement: p, RecordAssignments: true}, scn, lfocFactory(plat))
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		a, b := run(), run()
		if !reflect.DeepEqual(a, b) {
			t.Errorf("placement %q: same inputs, different cluster results", placement)
		}
		if got := len(a.Assignments); got != len(a.PerMachine[0].Open.Apps)+len(a.PerMachine[1].Open.Apps)+
			len(a.PerMachine[2].Open.Apps)+len(a.PerMachine[3].Open.Apps) {
			t.Errorf("placement %q: %d assignments but machine populations disagree", placement, got)
		}
	}
}

// The fleet-wide series must conserve counts: arrivals, departures and
// completed runs across machines sum into the merged series.
func TestClusterSeriesConservation(t *testing.T) {
	plat := machine.Small(8, 4)
	cfg := clusterSimConfig(plat)
	scn, err := scenario.NewPoisson("conserve", pool("xalancbmk06", "lbm06", "povray06"), 12, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	res, err := cluster.Run(cluster.Config{Sim: cfg, Machines: 2, Placement: cluster.NewRoundRobin(), RecordAssignments: true},
		scn, stockFactory(plat))
	if err != nil {
		t.Fatal(err)
	}
	var wantArr, gotArr, wantRuns, gotRuns int
	for _, m := range res.PerMachine {
		for _, p := range m.Open.Series.All() {
			wantArr += p.Arrivals
			wantRuns += p.RunsCompleted
		}
	}
	for _, p := range res.Series.All() {
		gotArr += p.Arrivals
		gotRuns += p.RunsCompleted
	}
	if gotArr != wantArr || gotRuns != wantRuns {
		t.Errorf("merged series arrivals/runs = %d/%d, machines sum %d/%d", gotArr, gotRuns, wantArr, wantRuns)
	}
	if res.Departed+res.Remaining != len(res.Assignments) {
		t.Errorf("departed %d + remaining %d != %d placed arrivals",
			res.Departed, res.Remaining, len(res.Assignments))
	}
	if res.Summary.Unfairness < 1 {
		t.Errorf("cluster unfairness %v < 1", res.Summary.Unfairness)
	}
}

func TestClusterRejectsBadConfig(t *testing.T) {
	plat := machine.Small(8, 4)
	cfg := clusterSimConfig(plat)
	scn, err := scenario.NewPoisson("bad", pool("povray06"), 5, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cluster.Run(cluster.Config{Sim: cfg, Machines: 0, Placement: cluster.NewRoundRobin()},
		scn, stockFactory(plat)); err == nil {
		t.Error("zero machines accepted")
	}
	if _, err := cluster.Run(cluster.Config{Machines: 2, Placement: cluster.NewRoundRobin()},
		scn, stockFactory(plat)); err == nil {
		t.Error("zero-value sim config (nil platform) accepted")
	}
	if _, err := cluster.Run(cluster.Config{Sim: cfg, Machines: 2}, scn, stockFactory(plat)); err == nil {
		t.Error("nil placement accepted")
	}
	if _, err := cluster.Run(cluster.Config{Sim: cfg, Machines: 2, Placement: cluster.NewRoundRobin()},
		scn, nil); err == nil {
		t.Error("nil policy factory accepted")
	}
}
