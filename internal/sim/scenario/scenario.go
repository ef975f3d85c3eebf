// Package scenario is the workload-shape layer of the co-scheduling
// simulator: it decides which applications exist, when they arrive, and
// what happens when one retires its per-run instruction quota. The
// execution kernel in internal/sim is scenario-agnostic — it integrates
// application progress, delivers counter windows and drives the policy,
// while the scenario supplies arrivals and rules.
//
// Two scenarios ship with the repository:
//
//   - Closed reproduces the paper's §5 closed-batch methodology: all
//     applications start together and restart until every one of them
//     has completed RunsTarget runs. sim.RunDynamic is exactly this
//     scenario, and a golden test pins the equivalence bit-for-bit.
//   - Open models the churn a deployed LFOC faces: applications arrive
//     from a seeded Poisson process (or an explicit trace), run their
//     quota once, and depart, freeing their core and their class of
//     service for the next arrival.
//
// Scenarios are pure data + decisions; they never touch kernel state
// directly, which is what keeps every new experiment a constructor call
// rather than a fork of the simulator.
package scenario

import (
	"fmt"
	"math/rand"
	"sort"

	"github.com/faircache/lfoc/internal/appmodel"
)

// Outcome is a scenario's decision about an application that has just
// retired its per-run instruction quota.
type Outcome int

const (
	// Restart re-runs the program immediately, keeping its monitoring
	// identity (class, counter history) — the paper's §5 methodology.
	Restart Outcome = iota
	// RestartFresh re-runs the program as a brand-new process: the
	// policy sees an exit followed by a spawn under a fresh id and must
	// re-learn the application's class from scratch.
	RestartFresh
	// Depart removes the application from the system.
	Depart
)

func (o Outcome) String() string {
	switch o {
	case Restart:
		return "restart"
	case RestartFresh:
		return "restart-fresh"
	case Depart:
		return "depart"
	default:
		return fmt.Sprintf("outcome(%d)", int(o))
	}
}

// Arrival schedules one application entering the system.
type Arrival struct {
	// Time is the arrival instant in simulated seconds (quantized to the
	// kernel tick when delivered).
	Time float64
	Spec *appmodel.Spec
	// Tag is an opaque caller label carried through the kernel untouched
	// (zero for plain trace arrivals). The cluster lifecycle layer uses
	// it to count placement attempts across failure-driven requeues, so
	// retry accounting needs no identity map on top of the kernel.
	Tag int
}

// Progress is the kernel state a scenario consults in Done. The Runs
// slice is the kernel's own storage — read it, don't keep it.
type Progress struct {
	// Time is the current simulated time in seconds.
	Time float64
	// Active counts applications currently in the system.
	Active int
	// Pending counts scheduled arrivals not yet admitted (including
	// arrivals waiting for a free core).
	Pending int
	// Runs holds completed runs per application slot, in admission
	// order.
	Runs []int
}

// Scenario shapes one experiment over the scenario-agnostic kernel.
type Scenario interface {
	// Name labels the scenario in results and reports.
	Name() string
	// Initial returns the applications present at time zero.
	Initial() []*appmodel.Spec
	// Arrivals returns later arrivals in nondecreasing time order (nil
	// for closed scenarios).
	Arrivals() []Arrival
	// OnRunComplete is consulted when the application in the given slot
	// retires its instruction quota for the runs-th time.
	OnRunComplete(slot, runs int) Outcome
	// Done reports whether the experiment is over.
	Done(p Progress) bool
	// Horizon returns the one simulated time at or beyond which Done
	// may flip to true as a function of Progress.Time alone (0 = Done
	// never depends on time). The value must be fixed for the lifetime
	// of a run: it lets the kernel advance whole event horizons at once
	// instead of polling Done every tick.
	Horizon() float64
}

// Closed is the paper's §5 closed-batch methodology: every application
// is present from time zero, restarts immediately on completion, and
// the experiment ends when all of them have completed RunsTarget runs.
type Closed struct {
	Specs      []*appmodel.Spec
	RunsTarget int
	// ResetIdentityOnRestart makes each restart look like an exit plus
	// a spawn: the policy's per-app state is discarded and the program
	// re-enters under a fresh monitoring id, so the class is re-learned.
	// Off by default, matching the paper's simplification of keeping
	// the monitoring identity across restarts.
	ResetIdentityOnRestart bool
}

// NewClosed builds the closed scenario for a workload.
func NewClosed(specs []*appmodel.Spec, runsTarget int) *Closed {
	if runsTarget <= 0 {
		runsTarget = 3
	}
	return &Closed{Specs: specs, RunsTarget: runsTarget}
}

// Name implements Scenario.
func (c *Closed) Name() string { return "closed" }

// Initial implements Scenario.
func (c *Closed) Initial() []*appmodel.Spec { return c.Specs }

// Arrivals implements Scenario: a closed system has none.
func (c *Closed) Arrivals() []Arrival { return nil }

// Horizon implements Scenario: a closed run's Done depends only on
// completed runs, never on time.
func (c *Closed) Horizon() float64 { return 0 }

// OnRunComplete implements Scenario.
func (c *Closed) OnRunComplete(slot, runs int) Outcome {
	if c.ResetIdentityOnRestart {
		return RestartFresh
	}
	return Restart
}

// Done implements Scenario: every app has completed RunsTarget runs.
func (c *Closed) Done(p Progress) bool {
	for _, r := range p.Runs {
		if r < c.RunsTarget {
			return false
		}
	}
	return true
}

// Open is the open-system scenario: applications arrive from a trace,
// run their instruction quota once, and depart. The experiment ends
// when the trace is drained and the system is empty, or when the
// optional horizon is reached (whichever comes first).
type Open struct {
	name     string
	initial  []*appmodel.Spec
	arrivals []Arrival
	horizon  float64
}

// NewTrace builds an open scenario from an explicit arrival trace.
// Arrivals are sorted by time; negative times are rejected.
func NewTrace(name string, initial []*appmodel.Spec, arrivals []Arrival) (*Open, error) {
	if name == "" {
		name = "trace"
	}
	for i := range arrivals {
		if arrivals[i].Time < 0 {
			return nil, fmt.Errorf("scenario: arrival %d at negative time %v", i, arrivals[i].Time)
		}
		if arrivals[i].Spec == nil {
			return nil, fmt.Errorf("scenario: arrival %d without a spec", i)
		}
	}
	sorted := append([]Arrival(nil), arrivals...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Time < sorted[j].Time })
	return &Open{name: name, initial: initial, arrivals: sorted}, nil
}

// NewPoisson builds an open scenario whose arrivals follow a seeded
// Poisson process of the given rate (arrivals per simulated second)
// over [0, window) seconds, each arrival drawing its application
// uniformly from pool. Identical (pool, rate, window, seed) inputs
// yield the identical trace, which is what makes open-system runs
// reproducible end to end.
func NewPoisson(name string, pool []*appmodel.Spec, rate, window float64, seed int64) (*Open, error) {
	if len(pool) == 0 {
		return nil, fmt.Errorf("scenario: empty application pool")
	}
	if rate <= 0 {
		return nil, fmt.Errorf("scenario: arrival rate must be positive, got %v", rate)
	}
	if window <= 0 {
		return nil, fmt.Errorf("scenario: arrival window must be positive, got %v", window)
	}
	if name == "" {
		name = fmt.Sprintf("poisson(%g/s)", rate)
	}
	rng := rand.New(rand.NewSource(seed))
	var arrivals []Arrival
	t := rng.ExpFloat64() / rate
	for t < window {
		arrivals = append(arrivals, Arrival{Time: t, Spec: pool[rng.Intn(len(pool))]})
		t += rng.ExpFloat64() / rate
	}
	return &Open{name: name, arrivals: arrivals}, nil
}

// WithHorizon caps the experiment at the given simulated duration:
// Done fires at the horizon even if applications are still running
// (they are reported as remaining in the system). Zero removes the cap.
func (o *Open) WithHorizon(seconds float64) *Open {
	o.horizon = seconds
	return o
}

// Horizon implements Scenario: it returns the cap set by WithHorizon
// (0 = none), the only time at which Done can flip as a function of
// time alone. The cluster layer propagates it to every machine it feeds
// from the trace. Call WithHorizon before the run starts; the kernel
// captures the value once.
func (o *Open) Horizon() float64 { return o.horizon }

// Name implements Scenario.
func (o *Open) Name() string { return o.name }

// Initial implements Scenario.
func (o *Open) Initial() []*appmodel.Spec { return o.initial }

// Arrivals implements Scenario.
func (o *Open) Arrivals() []Arrival { return o.arrivals }

// OnRunComplete implements Scenario: one quota, then out.
func (o *Open) OnRunComplete(slot, runs int) Outcome { return Depart }

// QueueInitialOverflow reports that initial applications beyond the
// machine's core count start in the admission queue instead of failing
// the run: open-system applications depart and free cores, so queued
// initial apps are eventually admitted FIFO, exactly like arrivals on a
// full machine. Closed scenarios deliberately lack this method — their
// applications never depart, so an over-subscribed closed run could
// never finish and is rejected up-front instead.
func (o *Open) QueueInitialOverflow() bool { return true }

// Done implements Scenario: trace drained and system empty, or horizon
// reached.
func (o *Open) Done(p Progress) bool {
	if o.horizon > 0 && p.Time >= o.horizon {
		return true
	}
	return p.Pending == 0 && p.Active == 0
}
