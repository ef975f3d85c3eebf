package sim

import (
	"errors"
	"fmt"
	"math"

	"github.com/faircache/lfoc/internal/appmodel"
	"github.com/faircache/lfoc/internal/machine"
	"github.com/faircache/lfoc/internal/sim/scenario"
)

// OpenMachine is one steppable open-system machine: its arrivals are
// injected one at a time, by RunOpen or by a cluster's placement layer.
// The cluster's step protocol — AdvanceTo the arrival instant, inspect
// load, Inject, Drain at end of trace — executes exactly the operation
// sequence of RunOpen, which injects the machine's whole trace before
// draining, so an N=1 cluster is bit-identical to RunOpen and
// per-machine results equal independent replays of the split trace
// (both pinned by tests in internal/cluster).
type OpenMachine struct {
	k      *kernel
	name   string
	err    error
	halted bool // taken out of service by Halt (drain/failure)
}

// NewOpenMachine builds a machine. name labels the machine's result
// (use the cluster scenario's name); horizon, if positive, caps the
// machine's simulated time exactly like scenario.Open.WithHorizon;
// initial holds the applications placed on this machine at time zero.
// MetricsWindow defaults to the policy period, as in RunOpen.
func NewOpenMachine(cfg Config, pol Dynamic, name string, initial []*appmodel.Spec, horizon float64) (*OpenMachine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg.MetricsWindow = cfg.EffectiveMetricsWindow()
	k, err := newKernel(cfg, pol, initial, nil)
	if err != nil {
		return nil, err
	}
	k.doneAt = horizon
	return &OpenMachine{k: k, name: name}, nil
}

// ValidateArrival rejects an arrival that cannot run: one without a
// spec, or with an invalid one. Injection and checkpoint restore both
// apply it.
func ValidateArrival(arr scenario.Arrival) error {
	if arr.Spec == nil {
		return fmt.Errorf("sim: arrival at t=%v without a spec", arr.Time)
	}
	return arr.Spec.Validate()
}

// Inject schedules one arrival on this machine. Arrivals must be
// injected in nondecreasing time order and before Drain.
func (m *OpenMachine) Inject(arr scenario.Arrival) error {
	if m.err != nil {
		return m.err
	}
	if m.k.drained {
		return fmt.Errorf("sim: inject after drain on %q", m.name)
	}
	if err := ValidateArrival(arr); err != nil {
		return fmt.Errorf("sim: inject on %q: %w", m.name, err)
	}
	if n := len(m.k.arrivals); n > 0 && arr.Time < m.k.arrivals[n-1].Time {
		return fmt.Errorf("sim: inject at %v after arrival at %v on %q",
			arr.Time, m.k.arrivals[n-1].Time, m.name)
	}
	m.k.arrivals = append(m.k.arrivals, arr)
	return nil
}

// AdvanceTo runs the machine until its simulated time reaches t (or the
// machine is done — horizon reached). Advancing a done machine is a
// no-op, letting the feeder keep placing trailing arrivals that will be
// reported as not admitted, exactly as RunOpen reports arrivals beyond
// the horizon.
func (m *OpenMachine) AdvanceTo(t float64) error {
	if m.err != nil || m.halted {
		return m.err
	}
	// ErrCanceled is a pause, not a machine failure: it must not stick
	// in m.err, or the machine could never resume after the checkpoint.
	if err := m.k.runUntil(t); err != nil {
		if !errors.Is(err, ErrCanceled) {
			m.err = err
		}
		return err
	}
	return nil
}

// Drain marks the arrival stream exhausted and runs the machine to
// completion (system empty or horizon).
func (m *OpenMachine) Drain() error {
	if m.err != nil || m.halted {
		return m.err
	}
	m.k.drained = true
	if err := m.k.runUntil(math.Inf(1)); err != nil {
		if !errors.Is(err, ErrCanceled) {
			m.err = err
		}
		return err
	}
	m.k.finish()
	return nil
}

// Now returns the machine's current simulated time.
func (m *OpenMachine) Now() float64 { return m.k.simTime }

// Done reports whether the machine has terminated (horizon reached, or
// drained and empty).
func (m *OpenMachine) Done() bool { return m.k.done() }

// Active counts the applications currently holding a core.
func (m *OpenMachine) Active() int { return m.k.nActive }

// Queued counts arrivals waiting for a free core plus injected arrivals
// not yet delivered.
func (m *OpenMachine) Queued() int {
	return len(m.k.waitQ) + len(m.k.arrivals) - m.k.arrIdx
}

// Cores returns the machine's core count (its admission capacity).
func (m *OpenMachine) Cores() int { return m.k.cfg.Plat.Cores }

// Platform returns the machine's modeled platform. In a heterogeneous
// fleet each machine may run a different one; contention-aware placement
// evaluates a candidate machine on its own platform.
func (m *OpenMachine) Platform() *machine.Platform { return m.k.cfg.Plat }

// ActivePhases appends the current phase of every resident application
// to dst and returns it — the placement-policy view of what a candidate
// machine is running, reused across calls to avoid per-arrival
// allocation.
func (m *OpenMachine) ActivePhases(dst []*appmodel.PhaseSpec) []*appmodel.PhaseSpec {
	// Iterate the active subset, not every slot ever admitted: a churn
	// run retires thousands of slots and this runs at every placement
	// refresh. actives preserves slot order (compactActives), so the
	// output order matches the historical full scan exactly.
	for _, a := range m.k.actives {
		if a.active {
			dst = append(dst, a.inst.Phase())
		}
	}
	return dst
}

// NextEventHorizon returns a conservative lower bound on the next
// simulated instant at which this machine's placement-visible state
// (Active, Queued, ActivePhases) or extractable resident coordinates
// can change. For any t below the bound, skipping AdvanceTo(t) leaves
// the machine bit-identical to having made the call: the cluster's
// fleet event queue orders machines by it and advances only those whose
// horizon has passed. A done or halted machine reports +Inf (its state
// is frozen); a machine with a pending injected arrival reports at most
// that arrival's time. The bound is recomputed from scratch on every
// call — callers cache it and re-query after AdvanceTo, Inject,
// InjectResident or Drain.
func (m *OpenMachine) NextEventHorizon() float64 {
	if m.err != nil || m.halted {
		return math.Inf(1)
	}
	return m.k.nextEventTime()
}

// Result assembles the machine's open-system result. Call after Drain.
func (m *OpenMachine) Result() *OpenResult {
	return buildOpenResult(m.k, m.name)
}
