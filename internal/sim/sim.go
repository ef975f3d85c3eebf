// Package sim is the execution substrate that replaces the paper's
// Linux + Skylake testbed: a deterministic discrete-event simulator that
// co-runs synthetic applications under a cache-management policy.
//
// The package is split into a kernel (kernel.go) and workload data (the
// internal/sim/scenario sub-package). The kernel integrates application
// progress under the internal/sharing contention model, accumulates
// exactly the hardware counters the policies read (instructions,
// cycles, LLC misses, STALLS_L2_MISS, CMT occupancy), delivers counter
// windows at each application's requested instruction cadence — 100M
// instructions in normal mode, 10M during LFOC sampling episodes, as in
// §5.2 — activates the partitioner periodically, and applies the run
// rules below. The workload says which applications exist and when they
// arrive.
//
// Closed methodology (faithful to §5, scenario.Closed, RunDynamic): all
// applications start simultaneously; each runs a fixed number of
// instructions per "run" and is restarted immediately upon completion;
// the experiment ends when every application has completed at least
// RunsTarget (3) runs. Per-application completion time is the geometric
// mean over its completed runs; slowdown divides it by the analytic
// alone completion time; unfairness and STP follow Eqs. (3) and (4).
// By default a restarted program keeps its monitoring identity (the
// paper's simplification); scenario.Closed.ResetIdentityOnRestart makes
// every restart look like an exit plus a fresh spawn instead, so the
// policy must re-learn the class.
//
// Open methodology (scenario.Open, RunOpen): applications arrive from a
// seeded Poisson process or an explicit trace, run their quota once and
// depart, freeing their core (a full machine queues arrivals FIFO).
// Because the population changes under the metrics, results are
// time-windowed series (metrics.WindowedSeries) plus per-application
// slowdowns at departure, not end-of-run scalars.
//
// Time advances in fixed ticks (PolicyPeriod/TicksPerPeriod); progress
// per tick comes from the contention model, re-evaluated (memoized)
// only when the CAT configuration, the population or some application's
// phase changes. Between state-changing events every rate is constant,
// so the kernel batches all whole ticks up to the earliest next event
// (arrival, counter window, run completion, phase boundary, policy
// activation, metrics window, horizon) into one event-horizon advance,
// bringing each application up to date only when its own event is due
// or something reads it, with bit-identical results — see DESIGN.md §2
// "Time advancement".
package sim

import (
	"fmt"
	"math"
	"time"

	"github.com/faircache/lfoc/internal/appmodel"
	"github.com/faircache/lfoc/internal/cat"
	"github.com/faircache/lfoc/internal/machine"
	"github.com/faircache/lfoc/internal/metrics"
	"github.com/faircache/lfoc/internal/plan"
	"github.com/faircache/lfoc/internal/pmc"
	"github.com/faircache/lfoc/internal/sim/scenario"
)

// Dynamic is the policy interface the simulator drives. core.Controller
// (LFOC), policy.DunnDynamic, policy.StockDynamic and FixedPlanPolicy
// implement it. Ids are monitoring identities: the kernel allocates a
// fresh id per admission (and per identity-reset restart), and
// RemoveApp retires it when the application departs — policies must
// release all per-app state there, or an open-system run leaks
// monitoring state and classes of service.
//
// The map Assignment returns and the plan Reconfigure returns belong to
// the policy and are valid until its next method call: the caller must
// not modify them, and a caller that needs them later copies what it
// needs (the kernel copies each active app's mask into its slot). A
// policy may rewrite both in place on any later call.
//
// Activations with no applications are idempotent. After one
// Reconfigure with no applications registered, and until the next
// AddApp, every further Reconfigure returns a plan with the same
// clusters, every Assignment returns the same masks, and a
// PolicySnapshotter's PolicySnapshot bytes do not change. This holds
// for a fresh policy and for one whose applications have all been
// removed, so once an idle machine has made one activation, its later
// ones can be skipped without changing anything its policy decides.
type Dynamic interface {
	AddApp(id int) error
	RemoveApp(id int)
	WindowInsns(id int) uint64
	OnWindow(id int, w pmc.Sample) bool
	Reconfigure() plan.Plan
	Assignment() (map[int]cat.WayMask, error)
}

// PassiveWindows is an optional Dynamic refinement the kernel's
// event-horizon advancement consults. A policy reporting true promises
// that its counter-window delivery is application-local:
//
//   - OnWindow always returns false (it never requests a mask refresh
//     between partitioner activations),
//   - WindowInsns is constant for an id over that id's lifetime, and
//   - neither OnWindow nor WindowInsns for one id depends on deliveries
//     made to other ids.
//
// Under that promise the kernel may deliver counter windows inside an
// event-horizon batch, per app instead of in global tick order —
// indistinguishable to a conforming policy — so a fleet of staggered
// windows no longer fragments the batch. Deliveries may also be
// deferred: an app's windows reach the policy when the kernel next
// brings that app up to date, but every window retired by tick T
// reaches the policy before any Reconfigure or Assignment call at T.
// Stock, Dunn and FixedPlanPolicy qualify (between activations they at
// most record per-app samples); LFOC does not (its sampling episodes
// reconfigure masks from OnWindow) and must not declare it.
type PassiveWindows interface {
	PassiveWindows() bool
}

// Config parameterizes a simulation.
type Config struct {
	Plat *machine.Platform
	// TargetInsns is the per-run instruction quota (150G in the paper;
	// experiments may scale it down together with the policy cadences).
	TargetInsns uint64
	// PolicyPeriod is the partitioner activation period (500ms).
	PolicyPeriod time.Duration
	// TicksPerPeriod sets the simulation tick: PolicyPeriod/this
	// (default 250).
	TicksPerPeriod int
	// MaxSimTime aborts runaway experiments (default 1 hour of
	// simulated time).
	MaxSimTime time.Duration
	// MetricsWindow enables time-windowed metrics collection at the
	// given simulated-time granularity (0 = off for closed runs; open
	// runs default it to PolicyPeriod).
	MetricsWindow time.Duration
	// Cancel, when non-nil, is polled at tick-loop boundaries: when it
	// fires, the advance stops at the current deterministic coordinate
	// and returns ErrCanceled. The machine stays valid and resumable.
	Cancel *CancelFlag
}

// Validate applies defaults and checks consistency.
func (c *Config) Validate() error {
	if c.Plat == nil {
		return fmt.Errorf("sim: config without platform")
	}
	if c.TargetInsns == 0 {
		return fmt.Errorf("sim: TargetInsns must be positive")
	}
	if c.PolicyPeriod <= 0 {
		c.PolicyPeriod = 500 * time.Millisecond
	}
	if c.TicksPerPeriod <= 0 {
		c.TicksPerPeriod = 250
	}
	if c.MaxSimTime <= 0 {
		c.MaxSimTime = time.Hour
	}
	if c.MetricsWindow < 0 {
		return fmt.Errorf("sim: MetricsWindow must be non-negative")
	}
	return nil
}

// EffectiveMetricsWindow is the metric-window width an open-system run
// collects at: MetricsWindow, defaulting to the policy period (RunOpen
// and NewOpenMachine apply exactly this rule). The cluster layer
// validates fleet-wide width agreement against it.
func (c *Config) EffectiveMetricsWindow() time.Duration {
	if c.MetricsWindow > 0 {
		return c.MetricsWindow
	}
	return c.PolicyPeriod
}

// Result carries everything the closed-methodology experiments report.
type Result struct {
	// RunTimes[i] holds app i's completed run times in seconds.
	RunTimes [][]float64
	// CT[i] is the geometric-mean completion time of app i.
	CT []float64
	// AloneCT[i] is the analytic alone completion time.
	AloneCT []float64
	// Slowdowns[i] = CT[i]/AloneCT[i].
	Slowdowns []float64
	// Summary holds unfairness and STP.
	Summary metrics.Summary
	// Repartitions counts policy activations; SimSeconds is the
	// simulated duration.
	Repartitions int
	SimSeconds   float64
	// FinalMonIDs[i] is app i's monitoring identity at the end of the
	// run — equal to i unless the closed run resets identities on
	// restart; use it to query per-app policy state (classes,
	// resamples) after a run.
	FinalMonIDs []int
	// Series holds windowed metrics when Config.MetricsWindow was set
	// (nil otherwise).
	Series *metrics.WindowedSeries
}

// RunDynamic co-runs the workload under a dynamic policy with the
// paper's closed methodology (three runs per application).
func RunDynamic(cfg Config, specs []*appmodel.Spec, pol Dynamic) (*Result, error) {
	return RunClosed(cfg, scenario.NewClosed(specs, 0), pol)
}

// RunClosed co-runs a closed scenario (every application present from
// time zero, restarting until done) under a dynamic policy. A zero
// RunsTarget means three runs.
func RunClosed(cfg Config, scn *scenario.Closed, pol Dynamic) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(scn.Specs) == 0 {
		return nil, fmt.Errorf("sim: empty workload")
	}
	k, err := newKernel(cfg, pol, scn.Specs, scn)
	if err != nil {
		return nil, err
	}
	if err := k.run(); err != nil {
		return nil, err
	}
	return buildResult(k)
}

func buildResult(k *kernel) (*Result, error) {
	n := len(k.apps)
	res := &Result{
		RunTimes:     make([][]float64, n),
		CT:           make([]float64, n),
		AloneCT:      make([]float64, n),
		Slowdowns:    make([]float64, n),
		Repartitions: k.repartitions,
		SimSeconds:   k.simTime,
		FinalMonIDs:  make([]int, n),
	}
	if k.collect {
		res.Series = &k.series
	}
	for i, a := range k.apps {
		res.RunTimes[i] = append([]float64(nil), a.runs...)
		res.FinalMonIDs[i] = a.monID
		g, err := metrics.GeoMean(a.runs)
		if err != nil {
			return nil, fmt.Errorf("sim: app %d: %w", i, err)
		}
		res.CT[i] = g
		res.AloneCT[i] = AloneCompletionTime(a.spec, k.cfg.Plat, a.quota)
		sd, err := metrics.Slowdown(g, res.AloneCT[i])
		if err != nil {
			return nil, err
		}
		// Tick quantization can nudge a fast run fractionally below the
		// analytic alone time; slowdowns below 1 are clamped.
		res.Slowdowns[i] = math.Max(1, sd)
	}
	summary, err := metrics.Summarize(res.Slowdowns)
	if err != nil {
		return nil, err
	}
	res.Summary = summary
	return res, nil
}

// RunQuota is the per-run instruction quota an application with the
// given spec runs under: Config.TargetInsns scaled by the spec's
// SizeFactor (rounded, minimum 1). A zero or unit factor returns
// targetInsns exactly, so workloads without per-job sizing are
// bit-identical to a build without the knob.
func RunQuota(targetInsns uint64, spec *appmodel.Spec) uint64 {
	f := spec.SizeFactor
	if f == 0 || f == 1 {
		return targetInsns
	}
	q := uint64(math.Round(float64(targetInsns) * f))
	if q == 0 {
		q = 1
	}
	return q
}

// AloneCompletionTime integrates an application's phases running alone
// with the full LLC and unloaded memory until targetInsns retire.
func AloneCompletionTime(spec *appmodel.Spec, plat *machine.Platform, targetInsns uint64) float64 {
	inst := appmodel.NewInstance(spec)
	freq := float64(plat.FreqHz)
	llc := plat.LLCBytes()
	var t float64
	remaining := targetInsns
	for remaining > 0 {
		perf := appmodel.PhasePerf(inst.Phase(), plat, llc, 1)
		step := inst.InstructionsToPhaseEnd()
		if step == 0 || step > remaining {
			step = remaining
		}
		t += float64(step) / (perf.IPC * freq)
		inst.Advance(step)
		remaining -= step
	}
	return t
}

// FixedPlanPolicy adapts a static plan to the Dynamic interface: no
// monitoring, constant masks — the §5.1 static evaluation mode.
type FixedPlanPolicy struct {
	ways  int
	plan  plan.Plan
	masks map[int]cat.WayMask
}

// NewFixedPlanPolicy validates the plan against the workload size and
// precomputes its masks.
func NewFixedPlanPolicy(p plan.Plan, nApps, ways int) (*FixedPlanPolicy, error) {
	if err := p.Validate(nApps, ways); err != nil {
		return nil, err
	}
	masks := make(map[int]cat.WayMask, nApps)
	if err := p.MasksInto(masks, ways); err != nil {
		return nil, err
	}
	return &FixedPlanPolicy{ways: ways, plan: p, masks: masks}, nil
}

// AddApp implements Dynamic.
func (f *FixedPlanPolicy) AddApp(id int) error {
	if _, ok := f.masks[id]; !ok {
		return fmt.Errorf("sim: app %d not covered by the fixed plan", id)
	}
	return nil
}

// RemoveApp implements Dynamic: the plan is fixed, departures leave it
// untouched (departed ids simply stop being asked about).
func (f *FixedPlanPolicy) RemoveApp(int) {}

// WindowInsns implements Dynamic (a huge window: no monitoring needed).
func (f *FixedPlanPolicy) WindowInsns(int) uint64 { return math.MaxUint64 / 4 }

// OnWindow implements Dynamic.
func (f *FixedPlanPolicy) OnWindow(int, pmc.Sample) bool { return false }

// PassiveWindows implements the PassiveWindows refinement: a fixed plan
// ignores windows entirely.
func (f *FixedPlanPolicy) PassiveWindows() bool { return true }

// Reconfigure implements Dynamic.
func (f *FixedPlanPolicy) Reconfigure() plan.Plan { return f.plan }

// Assignment implements Dynamic: every call returns the precomputed
// map.
func (f *FixedPlanPolicy) Assignment() (map[int]cat.WayMask, error) {
	return f.masks, nil
}

// RunStatic co-runs the workload under a fixed clustering plan.
func RunStatic(cfg Config, specs []*appmodel.Spec, p plan.Plan) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	pol, err := NewFixedPlanPolicy(p, len(specs), cfg.Plat.Ways)
	if err != nil {
		return nil, err
	}
	return RunDynamic(cfg, specs, pol)
}
