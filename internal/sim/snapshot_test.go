package sim_test

import (
	"encoding/json"
	"errors"
	"reflect"
	"testing"

	"github.com/faircache/lfoc/internal/core"
	"github.com/faircache/lfoc/internal/machine"
	"github.com/faircache/lfoc/internal/plan"
	"github.com/faircache/lfoc/internal/policy"
	"github.com/faircache/lfoc/internal/sim"
	"github.com/faircache/lfoc/internal/sim/scenario"
)

// snapPolicies enumerates every dynamic policy with checkpoint support;
// each entry builds a fresh instance, as RestoreMachine requires.
func snapPolicies(t *testing.T, plat *machine.Platform) map[string]func() sim.Dynamic {
	t.Helper()
	return map[string]func() sim.Dynamic{
		"stock": func() sim.Dynamic { return policy.NewStockDynamic(plat.Ways) },
		"dunn":  func() sim.Dynamic { return policy.NewDunnDynamic(plat.Ways) },
		"lfoc": func() sim.Dynamic {
			ctrl, err := core.NewController(core.DefaultParams(plat.Ways), plat.WayBytes)
			if err != nil {
				t.Fatal(err)
			}
			return ctrl
		},
	}
}

func snapArrivalStream() []scenario.Arrival {
	specs := openPool("lbm06", "povray06", "xalancbmk06", "libquantum06", "omnetpp06")
	var arrs []scenario.Arrival
	for i := 0; i < 10; i++ {
		arrs = append(arrs, scenario.Arrival{Time: 0.12 * float64(i+1), Spec: specs[i%len(specs)]})
	}
	return arrs
}

// The machine-level half of the headline guarantee: snapshot mid-run,
// round-trip through JSON, restore on a fresh machine, finish — the
// result is reflect.DeepEqual to an uninterrupted run's, for every
// dynamic policy that supports checkpointing.
func TestMachineSnapshotResumeDeepEqual(t *testing.T) {
	plat := machine.Small(8, 4)
	cfg := openConfig()
	cfg.Plat = plat
	arrs := snapArrivalStream()

	for name, mk := range snapPolicies(t, plat) {
		t.Run(name, func(t *testing.T) {
			// Reference: one uninterrupted run, no intermediate pauses.
			ref, err := sim.NewOpenMachine(cfg, mk(), "snap", openPool("lbm06", "povray06"), 0)
			if err != nil {
				t.Fatal(err)
			}
			for _, a := range arrs {
				if err := ref.Inject(a); err != nil {
					t.Fatal(err)
				}
			}
			if err := ref.Drain(); err != nil {
				t.Fatal(err)
			}

			// Interrupted: pause mid-trace, snapshot, JSON round-trip,
			// restore on a fresh kernel and policy, then finish.
			m, err := sim.NewOpenMachine(cfg, mk(), "snap", openPool("lbm06", "povray06"), 0)
			if err != nil {
				t.Fatal(err)
			}
			for _, a := range arrs {
				if err := m.Inject(a); err != nil {
					t.Fatal(err)
				}
			}
			if err := m.AdvanceTo(0.7); err != nil {
				t.Fatal(err)
			}
			snap, err := m.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			raw, err := json.Marshal(snap)
			if err != nil {
				t.Fatal(err)
			}
			var decoded sim.MachineSnapshot
			if err := json.Unmarshal(raw, &decoded); err != nil {
				t.Fatal(err)
			}
			resumed, err := sim.RestoreMachine(cfg, mk(), &decoded)
			if err != nil {
				t.Fatal(err)
			}
			if err := resumed.Drain(); err != nil {
				t.Fatal(err)
			}

			got, want := resumed.Result(), ref.Result()
			if !reflect.DeepEqual(got, want) {
				t.Errorf("resumed result diverges from uninterrupted run\n got: %+v\nwant: %+v", got, want)
			}
		})
	}
}

// Snapshot mid-run must not perturb the machine it was taken from: the
// donor keeps running to the identical result.
func TestSnapshotIsNonDisruptive(t *testing.T) {
	plat := machine.Small(8, 4)
	cfg := openConfig()
	cfg.Plat = plat
	arrs := snapArrivalStream()

	run := func(snapshotAt float64) *sim.OpenResult {
		m, err := sim.NewOpenMachine(cfg, policy.NewStockDynamic(plat.Ways), "donor", openPool("lbm06"), 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range arrs {
			if err := m.Inject(a); err != nil {
				t.Fatal(err)
			}
		}
		if snapshotAt > 0 {
			if err := m.AdvanceTo(snapshotAt); err != nil {
				t.Fatal(err)
			}
			if _, err := m.Snapshot(); err != nil {
				t.Fatal(err)
			}
		}
		if err := m.Drain(); err != nil {
			t.Fatal(err)
		}
		return m.Result()
	}
	if got, want := run(0.5), run(0); !reflect.DeepEqual(got, want) {
		t.Error("taking a snapshot perturbed the donor machine")
	}
}

// Cancellation pauses at a tick boundary without poisoning the machine:
// AdvanceTo returns ErrCanceled, and clearing the flag lets the same
// machine resume to the identical result.
func TestCancelPausesWithoutPoisoning(t *testing.T) {
	plat := machine.Small(8, 4)
	cfg := openConfig()
	cfg.Plat = plat
	var flag sim.CancelFlag
	cfg.Cancel = &flag

	arrs := snapArrivalStream()
	m, err := sim.NewOpenMachine(cfg, policy.NewStockDynamic(plat.Ways), "cancel", openPool("lbm06", "povray06"), 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range arrs {
		if err := m.Inject(a); err != nil {
			t.Fatal(err)
		}
	}
	flag.Cancel()
	if err := m.AdvanceTo(0.5); !errors.Is(err, sim.ErrCanceled) {
		t.Fatalf("AdvanceTo under cancellation = %v, want ErrCanceled", err)
	}

	// The pause is cooperative, not fatal: un-cancel and continue.
	flag = sim.CancelFlag{}
	cfg.Cancel = &flag
	if err := m.AdvanceTo(0.5); err != nil {
		t.Fatalf("resume after cancel: %v", err)
	}
	if err := m.Drain(); err != nil {
		t.Fatal(err)
	}

	ref, err := sim.NewOpenMachine(openConfigOn(plat), policy.NewStockDynamic(plat.Ways), "cancel", openPool("lbm06", "povray06"), 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range arrs {
		if err := ref.Inject(a); err != nil {
			t.Fatal(err)
		}
	}
	if err := ref.Drain(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m.Result(), ref.Result()) {
		t.Error("canceled-then-resumed machine diverges from uninterrupted run")
	}
}

// An advance reserves its window series before closing any window, so
// a machine paused before its first window checkpoints an empty series
// ("") and not a nil one (null), holding applications or not: an idle
// machine reserves no slots but must still mark its series non-nil.
func TestCanceledAdvanceSnapshotsEmptySeries(t *testing.T) {
	for _, initial := range [][]string{nil, {"lbm06"}} {
		cfg := openConfig()
		var flag sim.CancelFlag
		flag.Cancel()
		cfg.Cancel = &flag
		m, err := sim.NewOpenMachine(cfg, policy.NewStockDynamic(cfg.Plat.Ways), "paused", openPool(initial...), 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.AdvanceTo(1); !errors.Is(err, sim.ErrCanceled) {
			t.Fatalf("AdvanceTo under cancellation = %v, want ErrCanceled", err)
		}
		snap, err := m.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		raw, err := json.Marshal(snap.Series)
		if err != nil {
			t.Fatal(err)
		}
		if want := `{"width":0.1,"points":""}`; string(raw) != want {
			t.Errorf("%d initial apps: paused series packs to %s, want %s", len(initial), raw, want)
		}
	}
}

func openConfigOn(plat *machine.Platform) sim.Config {
	cfg := openConfig()
	cfg.Plat = plat
	return cfg
}

// A policy without PolicySnapshotter is rejected with the typed error,
// both at snapshot and at restore.
func TestSnapshotUnsupportedPolicyTyped(t *testing.T) {
	plat := machine.Small(8, 4)
	cfg := openConfigOn(plat)
	fixed, err := sim.NewFixedPlanPolicy(plan.SingleCluster(1, plat.Ways), 1, plat.Ways)
	if err != nil {
		t.Fatal(err)
	}
	m, err := sim.NewOpenMachine(cfg, fixed, "fixed", openPool("lbm06"), 0)
	if err != nil {
		t.Fatal(err)
	}
	_, err = m.Snapshot()
	var unsup *sim.SnapshotUnsupportedError
	if !errors.As(err, &unsup) {
		t.Fatalf("Snapshot with plain policy = %v, want *SnapshotUnsupportedError", err)
	}
	if _, err := sim.RestoreMachine(cfg, fixed, &sim.MachineSnapshot{Name: "fixed"}); !errors.As(err, &unsup) {
		t.Fatalf("RestoreMachine with plain policy = %v, want *SnapshotUnsupportedError", err)
	}
}
