// Package scenario is the workload data of the co-scheduling
// simulator: which applications exist and when they arrive. The run
// rules (what happens when an application retires its per-run
// instruction quota, and when a run ends) belong to the execution
// kernel in internal/sim, which applies the closed rules to a Closed
// workload and the open rules to the machines an Open trace feeds.
//
// Two workload shapes ship with the repository:
//
//   - Closed reproduces the paper's §5 closed-batch methodology: all
//     applications start together and restart until every one of them
//     has completed RunsTarget runs. sim.RunDynamic is exactly this
//     workload, and a golden test pins the equivalence bit-for-bit.
//   - Open models the churn a deployed LFOC faces: applications arrive
//     from a seeded Poisson process (or an explicit trace), run their
//     quota once, and depart, freeing their core and their class of
//     service for the next arrival. Open is the arrival trace; a
//     machine takes the arrivals one at a time (sim.OpenMachine.Inject),
//     whether sim.RunOpen feeds it the whole trace or the cluster layer
//     places each arrival on one machine of a fleet.
//
// Both shapes are plain data, which is what keeps every new experiment
// a constructor call rather than a fork of the simulator.
package scenario

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"github.com/faircache/lfoc/internal/appmodel"
)

// Arrival schedules one application entering the system. Checkpoints
// store arrivals in this form.
type Arrival struct {
	// Time is the arrival instant in simulated seconds (quantized to the
	// kernel tick when delivered).
	Time float64        `json:"time"`
	Spec *appmodel.Spec `json:"spec"`
	// Tag is an opaque caller label carried through the kernel untouched
	// (zero for plain trace arrivals). The cluster lifecycle layer uses
	// it to count placement attempts across failure-driven requeues, so
	// retry accounting needs no identity map on top of the kernel.
	Tag int `json:"tag,omitempty"`
}

// Closed is the paper's §5 closed-batch methodology: every application
// is present from time zero, restarts immediately on completion, and
// the experiment ends when all of them have completed RunsTarget runs.
type Closed struct {
	Specs []*appmodel.Spec
	// RunsTarget is the number of completed runs every application must
	// reach (3 in the paper; zero or less means 3).
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

// Open is the open-system arrival trace: the applications present at
// time zero, the later arrivals in time order, and an optional horizon.
// Each application runs its instruction quota once and departs; the
// experiment ends when the trace is drained and the system is empty, or
// when the horizon is reached (whichever comes first).
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
	// A NaN fails every comparison, and an infinite rate or window never
	// ends the draw loop below.
	if !(rate > 0) || math.IsInf(rate, 1) {
		return nil, fmt.Errorf("scenario: arrival rate must be positive and finite, got %v", rate)
	}
	if !(window > 0) || math.IsInf(window, 1) {
		return nil, fmt.Errorf("scenario: arrival window must be positive and finite, got %v", window)
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

// WithHorizon caps the experiment at the given simulated duration: it
// ends at the horizon even if applications are still running (they are
// reported as remaining in the system). Zero removes the cap.
func (o *Open) WithHorizon(seconds float64) *Open {
	o.horizon = seconds
	return o
}

// Horizon returns the cap set by WithHorizon (0 = none). sim.RunOpen
// and the cluster layer propagate it to every machine they feed from
// the trace. Call WithHorizon before the run starts; each machine
// captures the value once.
func (o *Open) Horizon() float64 { return o.horizon }

// Name labels the trace in results and reports.
func (o *Open) Name() string { return o.name }

// Initial returns the applications present at time zero.
func (o *Open) Initial() []*appmodel.Spec { return o.initial }

// Arrivals returns the later arrivals in nondecreasing time order.
func (o *Open) Arrivals() []Arrival { return o.arrivals }
