package cluster_test

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"github.com/faircache/lfoc/internal/appmodel"
	"github.com/faircache/lfoc/internal/cluster"
	"github.com/faircache/lfoc/internal/harness"
	"github.com/faircache/lfoc/internal/machine"
	"github.com/faircache/lfoc/internal/sim"
	"github.com/faircache/lfoc/internal/sim/scenario"
	"github.com/faircache/lfoc/internal/workloads"
)

// hookPlacement is round-robin placement that counts its decisions,
// runs onPlace after each one, and records the decision count at every
// checkpoint capture (the cluster snapshots the placement policy once
// per checkpoint written).
type hookPlacement struct {
	*cluster.RoundRobin
	placed  int
	onPlace func(placed int)
	snaps   []int
}

func (h *hookPlacement) Place(spec *appmodel.Spec, t float64, ms []cluster.MachineState) int {
	idx := h.RoundRobin.Place(spec, t, ms)
	h.placed++
	if h.onPlace != nil {
		h.onPlace(h.placed)
	}
	return idx
}

func (h *hookPlacement) PlacementSnapshot() ([]byte, error) {
	h.snaps = append(h.snaps, h.placed)
	return h.RoundRobin.PlacementSnapshot()
}

func ckptBase(plat *machine.Platform, placement cluster.Policy) cluster.Config {
	return cluster.Config{
		Sim: clusterSimConfig(plat), Machines: 3,
		Placement: placement, Workers: 2, RecordAssignments: true,
	}
}

// An interrupted lifecycle-free run reports the placement log of the
// arrivals it placed — a prefix of the full run's, with no entries for
// arrivals it never reached — and its checkpoint carries the same
// prefix, no lifecycle section, and resumes to the full result.
func TestLifecycleFreeInterruptShape(t *testing.T) {
	plat := machine.Small(8, 4)
	full, err := cluster.Run(ckptBase(plat, cluster.NewRoundRobin()), ckptScn(t), stockFactory(plat))
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "stop.ckpt")
	cfg := ckptBase(plat, cluster.NewRoundRobin())
	cfg.StopAfter = 1.5
	cfg.Checkpoint = &cluster.CheckpointConfig{Path: path}
	partial, err := cluster.Run(cfg, ckptScn(t), stockFactory(plat))
	if err != nil {
		t.Fatal(err)
	}
	if !partial.Interrupted {
		t.Fatal("stopped run not marked interrupted")
	}
	reached := 0
	for _, a := range ckptScn(t).Arrivals() {
		if a.Time < cfg.StopAfter {
			reached++
		}
	}
	if reached == 0 || reached == len(full.Assignments) {
		t.Fatalf("stop instant reaches %d of %d arrivals, want a midpoint", reached, len(full.Assignments))
	}
	if !reflect.DeepEqual(partial.Assignments, full.Assignments[:reached]) {
		t.Errorf("interrupted assignments %v, want the placed prefix %v", partial.Assignments, full.Assignments[:reached])
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	_, line, ok := bytes.Cut(data, []byte("\n")) // the payload follows the header line
	if !ok {
		t.Fatal("checkpoint has no header line")
	}
	var payload map[string]json.RawMessage
	if err := json.Unmarshal(line, &payload); err != nil {
		t.Fatal(err)
	}
	if _, ok := payload["lifecycle"]; ok {
		t.Error("lifecycle-free checkpoint carries a lifecycle section")
	}
	var logged []int
	if err := json.Unmarshal(payload["assignments"], &logged); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(logged, partial.Assignments) {
		t.Errorf("checkpoint assignments %v, want %v", logged, partial.Assignments)
	}

	ck, err := cluster.ReadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	resumeCfg := ckptBase(plat, cluster.NewRoundRobin())
	resumeCfg.Resume = ck
	resumed, err := cluster.Run(resumeCfg, ckptScn(t), stockFactory(plat))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(resumed, full) {
		t.Error("resumed lifecycle-free run diverges from the uninterrupted run")
	}
}

// A cancellation that lands after the last arrival was placed pauses
// the final drain: the checkpoint then records every arrival as
// processed, and resuming it must still finish exactly like the
// uninterrupted run. The fleet is larger than the load, so some
// machines sit idle with clocks behind the last arrival: the resumed
// engine must re-align them there before draining.
func TestCancelDuringDrainResumes(t *testing.T) {
	plat := machine.Small(8, 4)
	mkCfg := func(placement cluster.Policy) cluster.Config {
		cfg := ckptBase(plat, placement)
		cfg.Machines = 8
		return cfg
	}
	full, err := cluster.Run(mkCfg(cluster.NewRoundRobin()), ckptScn(t), stockFactory(plat))
	if err != nil {
		t.Fatal(err)
	}

	scn := ckptScn(t)
	decisions := len(scn.Initial()) + len(scn.Arrivals())
	var flag sim.CancelFlag
	hp := &hookPlacement{RoundRobin: cluster.NewRoundRobin(), onPlace: func(n int) {
		if n == decisions {
			flag.Cancel()
		}
	}}
	path := filepath.Join(t.TempDir(), "drain.ckpt")
	cfg := mkCfg(hp)
	cfg.Cancel = &flag
	cfg.Checkpoint = &cluster.CheckpointConfig{Path: path}
	partial, err := cluster.Run(cfg, scn, stockFactory(plat))
	if err != nil {
		t.Fatal(err)
	}
	if !partial.Interrupted {
		t.Fatal("run canceled during the drain not marked interrupted")
	}
	ck, err := cluster.ReadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := ck.NextArrival(), len(full.Assignments); got != want {
		t.Fatalf("checkpoint at arrival %d, want %d (after the last arrival)", got, want)
	}

	resumeCfg := mkCfg(cluster.NewRoundRobin())
	resumeCfg.Resume = ck
	resumed, err := cluster.Run(resumeCfg, ckptScn(t), stockFactory(plat))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(resumed, full) {
		t.Error("resume of a drain-time checkpoint diverges from the uninterrupted run")
	}
}

// After a lifecycle-free resume, periodic checkpoints are spaced from
// the last arrival the checkpoint processed: the first one falls at the
// first arrival at least Every after it, and each later one at the
// first arrival at least Every after its predecessor.
func TestPeriodicCheckpointsAfterResume(t *testing.T) {
	plat := machine.Small(8, 4)
	dir := t.TempDir()
	stopCfg := ckptBase(plat, cluster.NewRoundRobin())
	stopCfg.StopAfter = 1.5
	stopCfg.Checkpoint = &cluster.CheckpointConfig{Path: filepath.Join(dir, "stop.ckpt")}
	if _, err := cluster.Run(stopCfg, ckptScn(t), stockFactory(plat)); err != nil {
		t.Fatal(err)
	}
	ck, err := cluster.ReadCheckpoint(stopCfg.Checkpoint.Path)
	if err != nil {
		t.Fatal(err)
	}

	const every = 0.4
	arrivals := ckptScn(t).Arrivals()
	start := ck.NextArrival()
	var want []int // arrivals placed since the resume, at each periodic checkpoint
	last := arrivals[start-1].Time
	for ai := start; ai < len(arrivals); ai++ {
		if arrivals[ai].Time >= last+every {
			want = append(want, ai-start)
			last = arrivals[ai].Time
		}
	}
	if len(want) < 2 {
		t.Fatalf("only %d periodic checkpoints expected, want a trace that exercises the spacing", len(want))
	}

	hp := &hookPlacement{RoundRobin: cluster.NewRoundRobin()}
	resumeCfg := ckptBase(plat, hp)
	resumeCfg.Resume = ck
	resumeCfg.Checkpoint = &cluster.CheckpointConfig{Path: filepath.Join(dir, "periodic.ckpt"), Every: every}
	if _, err := cluster.Run(resumeCfg, ckptScn(t), stockFactory(plat)); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(hp.snaps, want) {
		t.Errorf("periodic checkpoints after %v arrivals placed since the resume, want %v", hp.snaps, want)
	}
}

// Regression: with MTBF failures and autoscale drains on both sides of
// the checkpoint, a stop+resume must reproduce the uninterrupted run.
// The fleet queue used to rewrite a whole batch of horizons in place
// and then sift each key once, which can leave the heap invalid; the
// due-machine walk then missed machines, and the resumed run diverged.
// Under that bug, seeds 4, 14, 18 and 21 of seeds 1-24 of this
// configuration — the CLI's
//
//	lfoc-sim -workload S2 -arrivals poisson:16 -duration 30 -machines 16 \
//	    -placement least -mtbf 5 -autoscale i=1,up=1,down=0.1,min=8,max=24
//
// — diverge.
func TestResumeAcrossFailuresAndAutoscale(t *testing.T) {
	hc := harness.DefaultConfig()
	w, err := workloads.Get("S2")
	if err != nil {
		t.Fatal(err)
	}
	factory := func(int) (sim.Dynamic, error) {
		pol, _, err := hc.NewDynamicPolicy("lfoc")
		return pol, err
	}
	for _, seed := range []int64{4, 14} {
		mkScn := func() *scenario.Open {
			scn, err := w.OpenScenario(16, 30, seed, hc.Scale)
			if err != nil {
				t.Fatal(err)
			}
			return scn
		}
		mkCfg := func() cluster.Config {
			return cluster.Config{
				Sim: hc.SimConfig(), Machines: 16, Placement: cluster.NewLeastLoaded(),
				Lifecycle: &cluster.Lifecycle{
					MTBF:        5,
					FailureSeed: seed,
					Autoscale:   &cluster.Autoscale{Interval: 1, Up: 1, Down: 0.1, Min: 8, Max: 24},
					JoinPolicy: func(_ int, mc sim.Config) (sim.Dynamic, error) {
						pol, _, err := hc.NewDynamicPolicyFor("lfoc", mc.Plat)
						return pol, err
					},
				},
			}
		}
		full, err := cluster.Run(mkCfg(), mkScn(), factory)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "chaos.ckpt")
		stopCfg := mkCfg()
		stopCfg.StopAfter = 15
		stopCfg.Checkpoint = &cluster.CheckpointConfig{Path: path}
		if _, err := cluster.Run(stopCfg, mkScn(), factory); err != nil {
			t.Fatal(err)
		}
		ck, err := cluster.ReadCheckpoint(path)
		if err != nil {
			t.Fatal(err)
		}
		resumeCfg := mkCfg()
		resumeCfg.Resume = ck
		resumed, err := cluster.Run(resumeCfg, mkScn(), factory)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(resumed, full) {
			t.Errorf("seed %d: resumed run diverges from the uninterrupted run", seed)
		}
	}
}
