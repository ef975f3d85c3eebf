package cluster_test

import (
	"encoding/json"
	"errors"
	"math"
	"reflect"
	"testing"

	"github.com/faircache/lfoc/internal/appmodel"
	"github.com/faircache/lfoc/internal/cluster"
	"github.com/faircache/lfoc/internal/machine"
	"github.com/faircache/lfoc/internal/sim"
	"github.com/faircache/lfoc/internal/sim/scenario"
)

// chaosConfig is a 4-machine fleet with every lifecycle mechanism armed
// at once: scheduled drain/fail/join, a seeded MTBF failure process,
// autoscaling and cost-aware migration.
func chaosConfig(plat *machine.Platform, workers int) cluster.Config {
	return cluster.Config{
		Sim:       clusterSimConfig(plat),
		Machines:  4,
		Placement: cluster.NewLeastLoaded(),
		Workers:   workers,
		Lifecycle: &cluster.Lifecycle{
			Events: []cluster.Event{
				{Time: 1.0, Kind: cluster.MachineDrain, Machine: 1},
				{Time: 1.6, Kind: cluster.MachineFail, Machine: 2},
				{Time: 2.0, Kind: cluster.MachineJoin},
			},
			MTBF:          1.5,
			FailureSeed:   7,
			MigrationCost: 0.02,
			Autoscale:     &cluster.Autoscale{Interval: 0.7, Up: 0.9, Down: 0.05, Min: 1, Max: 6},
			JoinPolicy: func(_ int, mc sim.Config) (sim.Dynamic, error) {
				return stockFactory(mc.Plat)(0)
			},
		},
	}
}

// The tentpole guarantee: the same (seed, trace, event schedule) inputs
// reproduce the identical run — byte for byte — at any worker count and
// across repetitions, with every lifecycle mechanism firing at once.
func TestLifecycleChaosDeterminism(t *testing.T) {
	plat := machine.Small(8, 4)
	mkScn := func() *scenario.Open {
		scn, err := scenario.NewPoisson("chaos", pool("xalancbmk06", "lbm06", "povray06", "libquantum06"), 8, 3, 42)
		if err != nil {
			t.Fatal(err)
		}
		return scn
	}

	var ref *cluster.Result
	for _, workers := range []int{1, 1, 4, 4} {
		res, err := cluster.Run(chaosConfig(plat, workers), mkScn(), stockFactory(plat))
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if res.Lifecycle == nil {
			t.Fatal("lifecycle run reported no lifecycle summary")
		}
		if ref == nil {
			ref = res
			if res.Lifecycle.Events == 0 {
				t.Fatal("chaos run applied no lifecycle events")
			}
			if res.Lifecycle.Disruptions == 0 {
				t.Fatal("chaos run disrupted no applications")
			}
			continue
		}
		if !reflect.DeepEqual(res, ref) {
			t.Errorf("workers=%d: result diverges from reference", workers)
			if a, b := res.Lifecycle.Series.Fingerprint(), ref.Lifecycle.Series.Fingerprint(); a != b {
				t.Errorf("lifecycle series:\n got %s\nwant %s", a, b)
			}
			if a, b := res.Series.Fingerprint(), ref.Series.Fingerprint(); a != b {
				t.Errorf("metric series:\n got %s\nwant %s", a, b)
			}
		}
	}
}

// A lifecycle-free run is the engine over an empty timeline: a nil
// Lifecycle and a set-but-event-free one give identical results, and
// neither emits the lifecycle sections — the JSON carries no lifecycle,
// state or shards keys, the shape lifecycle-free output has always had.
func TestLifecycleInactiveIsZeroCost(t *testing.T) {
	plat := machine.Small(8, 4)
	mkScn := func() *scenario.Open {
		scn, err := scenario.NewPoisson("quiet", pool("xalancbmk06", "lbm06", "povray06"), 6, 2, 11)
		if err != nil {
			t.Fatal(err)
		}
		return scn
	}
	run := func(lc *cluster.Lifecycle) *cluster.Result {
		res, err := cluster.Run(cluster.Config{
			Sim: clusterSimConfig(plat), Machines: 3,
			Placement: cluster.NewLeastLoaded(), Workers: 1, Lifecycle: lc,
		}, mkScn(), stockFactory(plat))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	want := run(nil)
	got := run(&cluster.Lifecycle{MaxRetries: 5, MigrationCost: 0.5})
	if !reflect.DeepEqual(got, want) {
		t.Error("event-free lifecycle perturbed the run")
	}
	for name, res := range map[string]*cluster.Result{"nil": want, "event-free": got} {
		raw, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		var doc struct {
			Top        map[string]json.RawMessage
			PerMachine []map[string]json.RawMessage `json:"per_machine"`
		}
		if err := json.Unmarshal(raw, &doc); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(raw, &doc.Top); err != nil {
			t.Fatal(err)
		}
		for _, key := range []string{"lifecycle", "shards"} {
			if _, ok := doc.Top[key]; ok {
				t.Errorf("%s lifecycle: result JSON carries a %q key", name, key)
			}
		}
		for i, m := range doc.PerMachine {
			for _, key := range []string{"state", "joined_at", "down_at"} {
				if _, ok := m[key]; ok {
					t.Errorf("%s lifecycle: machine %d JSON carries a %q key", name, i, key)
				}
			}
		}
	}
}

// Degradation contract: when every machine fails, the run still
// completes — arrivals and requeued residents are parked and reported
// as unplaced/remaining or dead-lettered, never an error.
func TestLifecycleAllMachinesFailedDegradesGracefully(t *testing.T) {
	plat := machine.Small(8, 2)
	scn, err := scenario.NewPoisson("blackout", pool("xalancbmk06", "lbm06"), 6, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	nArr := len(scn.Arrivals())
	res, err := cluster.Run(cluster.Config{
		Sim: clusterSimConfig(plat), Machines: 2,
		Placement: cluster.NewLeastLoaded(), Workers: 1,
		RecordAssignments: true,
		Lifecycle: &cluster.Lifecycle{
			Events: []cluster.Event{
				{Time: 0.2, Kind: cluster.MachineFail, Machine: 0},
				{Time: 0.3, Kind: cluster.MachineFail, Machine: 1},
			},
			MaxRetries: 1,
		},
	}, scn, stockFactory(plat))
	if err != nil {
		t.Fatalf("all-machines-failed run errored: %v", err)
	}
	lc := res.Lifecycle
	if lc == nil {
		t.Fatal("no lifecycle summary")
	}
	if lc.Failures != 2 || lc.FinalMachines != 0 {
		t.Fatalf("failures=%d final=%d, want 2 and 0", lc.Failures, lc.FinalMachines)
	}
	if res.Departed != 0 {
		t.Errorf("%d applications departed from a fleet that was fully down at t=0.3", res.Departed)
	}
	// Every trace arrival is accounted for: unplaced (parked forever)
	// or dead-lettered; nothing vanishes and nothing errors.
	if lc.Unplaced == 0 {
		t.Error("no arrivals parked despite zero up machines")
	}
	if res.Remaining < lc.Unplaced {
		t.Errorf("Remaining %d < Unplaced %d: parked arrivals left out of the aggregate", res.Remaining, lc.Unplaced)
	}
	for i, m := range res.Assignments {
		if m >= 0 && scn.Arrivals()[i].Time > 0.3 {
			t.Errorf("arrival %d at t=%g assigned to machine %d after the fleet was down",
				i, scn.Arrivals()[i].Time, m)
		}
	}
	if nArr == 0 {
		t.Fatal("trace generated no arrivals")
	}
	if len(res.Assignments) != nArr {
		t.Errorf("assignments %d, want %d", len(res.Assignments), nArr)
	}
	if lc.Availability >= 0.2 {
		t.Errorf("availability %v for a fleet down from t=0.3", lc.Availability)
	}
}

// A NaN event time passes a "< 0" test and a NaN autoscale interval a
// "<= 0" one; an infinite event time would advance the fleet to +Inf.
// A negative retry backoff schedules each retry before the failure that
// caused it, and a negative retry budget dead-letters every displaced
// application at once. Each is rejected before the run starts.
func TestLifecycleRejectsNonFiniteTimes(t *testing.T) {
	plat := machine.Small(8, 2)
	scn, err := scenario.NewPoisson("nonfinite", pool("lbm06"), 2, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	fail := []cluster.Event{{Time: 0.5, Kind: cluster.MachineFail}}
	for _, lc := range []*cluster.Lifecycle{
		{Events: []cluster.Event{{Time: math.NaN(), Kind: cluster.MachineFail}}},
		{Events: []cluster.Event{{Time: math.Inf(1), Kind: cluster.MachineDrain}}},
		{Autoscale: &cluster.Autoscale{Interval: math.NaN(), Up: 1}},
		{Events: fail, RetryBackoff: -0.5},
		{Events: fail, RetryBackoff: math.NaN()},
		{Events: fail, RetryBackoff: math.Inf(1)},
		{Events: fail, MaxRetries: -1},
	} {
		_, err := cluster.Run(cluster.Config{Sim: clusterSimConfig(plat), Machines: 2,
			Placement: cluster.NewRoundRobin(), Lifecycle: lc}, scn, stockFactory(plat))
		if err == nil {
			t.Errorf("lifecycle %+v accepted", *lc)
		}
	}
}

// badPlacement returns a constant machine index regardless of fleet
// state — out of range, or a down machine once the fleet shrinks.
type badPlacement struct{ idx int }

func (b badPlacement) Name() string { return "bad" }
func (b badPlacement) Place(_ *appmodel.Spec, _ float64, _ []cluster.MachineState) int {
	return b.idx
}

// Satellite: every out-of-contract placement decision surfaces as the
// typed *PlacementError, from the central validation — both the plain
// out-of-range index and the subtler "machine exists but is down".
func TestPlacementErrorTyped(t *testing.T) {
	plat := machine.Small(8, 2)
	mkScn := func() *scenario.Open {
		scn, err := scenario.NewPoisson("bad", pool("xalancbmk06", "lbm06"), 4, 2, 3)
		if err != nil {
			t.Fatal(err)
		}
		return scn
	}

	_, err := cluster.Run(cluster.Config{
		Sim: clusterSimConfig(plat), Machines: 2,
		Placement: badPlacement{idx: 7}, Workers: 1,
	}, mkScn(), stockFactory(plat))
	var pe *cluster.PlacementError
	if !errors.As(err, &pe) {
		t.Fatalf("out-of-range placement returned %v, want a *PlacementError", err)
	}
	if pe.Policy != "bad" || pe.Index != 7 || pe.Machines != 2 {
		t.Errorf("error fields %+v, want policy bad, index 7, machines 2", pe)
	}

	// Machine 0 exists but is down after the failure: still a
	// placement-contract violation, caught by the same validation.
	_, err = cluster.Run(cluster.Config{
		Sim: clusterSimConfig(plat), Machines: 2,
		Placement: badPlacement{idx: 0}, Workers: 1,
		Lifecycle: &cluster.Lifecycle{
			Events: []cluster.Event{{Time: 0.01, Kind: cluster.MachineFail, Machine: 0}},
		},
	}, mkScn(), stockFactory(plat))
	pe = nil
	if !errors.As(err, &pe) {
		t.Fatalf("down-machine placement returned %v, want a *PlacementError", err)
	}
	if pe.Index != 0 || pe.Reason != "machine is not up" {
		t.Errorf("error fields %+v, want index 0 and the not-up reason", pe)
	}
}

// A drain with migration enabled moves residents live: the drained
// machine reports them evicted, the fleet loses nothing, and the
// migrated applications' end-to-end outcomes (arrival through
// departure) survive the move.
func TestLifecycleDrainMigratesResidents(t *testing.T) {
	plat := machine.Small(8, 2)
	// Two initial residents on machine 0 (round-robin would split them;
	// least-loaded splits too — use an explicit trace instead).
	spec := pool("lbm06")[0]
	scn, err := scenario.NewTrace("drainmig", []*appmodel.Spec{spec, spec}, []scenario.Arrival{
		{Time: 2.0, Spec: pool("povray06")[0]},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := cluster.Run(cluster.Config{
		Sim: clusterSimConfig(plat), Machines: 2,
		Placement: cluster.NewRoundRobin(), Workers: 1,
		Lifecycle: &cluster.Lifecycle{
			// Mid-run: the time-zero lbm06 departs around t=0.48 solo.
			Events:        []cluster.Event{{Time: 0.25, Kind: cluster.MachineDrain, Machine: 0}},
			MigrationCost: 0, // migrate anything with any progress
		},
	}, scn, stockFactory(plat))
	if err != nil {
		t.Fatal(err)
	}
	lc := res.Lifecycle
	if lc == nil || lc.Drains != 1 {
		t.Fatalf("lifecycle summary %+v, want exactly one drain", lc)
	}
	if lc.Migrations == 0 {
		t.Fatalf("drain with zero migration cost migrated nothing (disruptions %d, requeues %d)",
			lc.Disruptions, lc.Requeues)
	}
	if lc.DeadLettered != 0 {
		t.Errorf("a drain dead-lettered %d applications; drains must be lossless", lc.DeadLettered)
	}
	m0 := res.PerMachine[0]
	if m0.State != "drained" || m0.DownAt != 0.25 {
		t.Errorf("machine 0 state %q down at %v, want drained at 0.25", m0.State, m0.DownAt)
	}
	if m0.Open.Evicted != lc.Migrations+lc.Requeues {
		t.Errorf("machine 0 evicted %d, want the %d displaced residents",
			m0.Open.Evicted, lc.Migrations+lc.Requeues)
	}
	// Lossless end to end: everything that entered the system departed
	// (the drained machine is gone but its applications finished
	// elsewhere).
	total := 3 // 2 initial + 1 arrival
	if res.Departed != total || res.Remaining != 0 {
		t.Errorf("departed %d remaining %d, want %d and 0", res.Departed, res.Remaining, total)
	}
	// The migrated apps departed from machine 1 with their original
	// arrival times intact (machine 1's own time-zero resident makes
	// the +1).
	var departedElsewhere int
	for _, a := range res.PerMachine[1].Open.Apps {
		if a.DepartedAt >= 0 && a.ArrivedAt == 0 {
			departedElsewhere++
		}
	}
	if departedElsewhere != lc.Migrations+1 {
		t.Errorf("%d time-zero applications departed from machine 1, want its own plus the %d migrated there",
			departedElsewhere, lc.Migrations)
	}
}

// Failures requeue with bounded retry: an application that keeps
// landing on failing machines is retried MaxRetries times, then
// dead-lettered — and the retry backoff is visible in the requeue
// latency accounting.
func TestLifecycleFailureRetryThenDeadLetter(t *testing.T) {
	plat := machine.Small(8, 2)
	spec := pool("lbm06")[0]
	scn, err := scenario.NewTrace("deadletter", []*appmodel.Spec{spec}, []scenario.Arrival{
		{Time: 5.0, Spec: spec}, // keeps the trace alive past both failures
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := cluster.Run(cluster.Config{
		Sim: clusterSimConfig(plat), Machines: 2,
		Placement: cluster.NewLeastLoaded(), Workers: 1,
		Lifecycle: &cluster.Lifecycle{
			Events: []cluster.Event{
				// Fail the app's machine; the retry (default backoff
				// 0.25s) lands on the survivor at 0.35, which then fails
				// too: attempts 2 > MaxRetries 1 → dead-letter.
				{Time: 0.1, Kind: cluster.MachineFail, Machine: 0},
				{Time: 0.6, Kind: cluster.MachineFail, Machine: 1},
			},
			MaxRetries: 1,
		},
	}, scn, stockFactory(plat))
	if err != nil {
		t.Fatal(err)
	}
	lc := res.Lifecycle
	if lc == nil {
		t.Fatal("no lifecycle summary")
	}
	if lc.Retries != 1 {
		t.Errorf("retries %d, want exactly 1 (the one allowed attempt)", lc.Retries)
	}
	if lc.DeadLettered != 1 {
		t.Errorf("dead-lettered %d, want 1 after the retry budget ran out", lc.DeadLettered)
	}
	if lc.MeanRequeueLatency <= 0 {
		t.Errorf("mean requeue latency %v, want the positive retry backoff", lc.MeanRequeueLatency)
	}
	if res.Departed != 0 {
		t.Errorf("departed %d from a fleet that failed under the only resident", res.Departed)
	}
}

// A scheduled join grows the fleet mid-run: the machine appears with
// its join time recorded, takes arrivals, and its windows merge into
// the fleet series without disturbing window alignment.
func TestLifecycleJoinGrowsFleet(t *testing.T) {
	plat := machine.Small(8, 2)
	scn, err := scenario.NewPoisson("grow", pool("xalancbmk06", "povray06"), 6, 3, 9)
	if err != nil {
		t.Fatal(err)
	}
	res, err := cluster.Run(cluster.Config{
		Sim: clusterSimConfig(plat), Machines: 1,
		Placement: cluster.NewLeastLoaded(), Workers: 1,
		Lifecycle: &cluster.Lifecycle{
			Events: []cluster.Event{{Time: 1.0, Kind: cluster.MachineJoin}},
			JoinPolicy: func(_ int, mc sim.Config) (sim.Dynamic, error) {
				return stockFactory(mc.Plat)(0)
			},
		},
	}, scn, stockFactory(plat))
	if err != nil {
		t.Fatal(err)
	}
	if res.Machines != 2 || len(res.PerMachine) != 2 {
		t.Fatalf("fleet size %d (%d per-machine), want 2 after the join", res.Machines, len(res.PerMachine))
	}
	m1 := res.PerMachine[1]
	if m1.State != "up" || m1.JoinedAt != 1.0 {
		t.Errorf("joined machine state %q joined at %v, want up, 1.0", m1.State, m1.JoinedAt)
	}
	if m1.Arrivals == 0 {
		t.Error("joined machine received no arrivals from least-loaded placement")
	}
	if res.Lifecycle.FleetSize != 2 || res.Lifecycle.Joins != 1 {
		t.Errorf("summary fleet %d joins %d, want 2 and 1", res.Lifecycle.FleetSize, res.Lifecycle.Joins)
	}
	// A join without a JoinPolicy is a configuration error, reported,
	// not panicked.
	_, err = cluster.Run(cluster.Config{
		Sim: clusterSimConfig(plat), Machines: 1,
		Placement: cluster.NewLeastLoaded(), Workers: 1,
		Lifecycle: &cluster.Lifecycle{
			Events: []cluster.Event{{Time: 1.0, Kind: cluster.MachineJoin}},
		},
	}, scn, stockFactory(plat))
	if err == nil {
		t.Error("join without JoinPolicy succeeded, want an error")
	}
}

// The lifecycle series aligns with the metric series: same width, and
// availability degrades exactly in the windows after the failure.
func TestLifecycleSeriesAlignment(t *testing.T) {
	plat := machine.Small(8, 2)
	scn, err := scenario.NewPoisson("series", pool("xalancbmk06", "lbm06"), 6, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	res, err := cluster.Run(cluster.Config{
		Sim: clusterSimConfig(plat), Machines: 2,
		Placement: cluster.NewLeastLoaded(), Workers: 1,
		Lifecycle: &cluster.Lifecycle{
			Events: []cluster.Event{{Time: 1.0, Kind: cluster.MachineFail, Machine: 1}},
		},
	}, scn, stockFactory(plat))
	if err != nil {
		t.Fatal(err)
	}
	ls := res.Lifecycle.Series
	if ls.Width != res.Series.Width {
		t.Fatalf("lifecycle window width %v, metric window width %v", ls.Width, res.Series.Width)
	}
	for _, p := range ls.Points {
		switch {
		case p.End <= 1.0 && p.Availability != 1:
			t.Errorf("window [%g,%g) availability %v before the failure, want 1", p.Start, p.End, p.Availability)
		case p.Start >= 1.0 && p.Availability != 0.5:
			t.Errorf("window [%g,%g) availability %v after the failure, want 0.5", p.Start, p.End, p.Availability)
		}
	}
	if res.Lifecycle.Availability >= 1 || res.Lifecycle.Availability <= 0.5 {
		t.Errorf("run-wide availability %v, want strictly between 0.5 and 1", res.Lifecycle.Availability)
	}
}
