// Package cluster scales the single-socket simulator to a fleet: N
// independent machine kernels behind one open-system arrival stream,
// with a pluggable placement policy deciding which machine admits each
// arrival. Every machine runs its own dynamic partitioning policy
// (stock/Dunn/LFOC) over its own resctrl-style state, exactly as a
// single-machine RunOpen would; the cluster layer only routes arrivals
// and aggregates metrics, so an N=1 cluster is bit-identical to RunOpen
// and every machine's result equals an independent replay of its split
// trace (both pinned by tests).
//
// Fleets may be heterogeneous: Config.Fleet gives every machine its own
// sim.Config (mixed core counts, LLC sizes and way counts; mixed
// partitioning-policy cadences too, provided every entry sets one
// common explicit MetricsWindow — fleet windows merge index-by-index,
// so widths must agree), while the homogeneous Sim+Machines form
// remains a shorthand for N copies of one configuration — the two
// forms produce byte-identical results for identical fleets.
//
// Execution interleaves deterministically at arrival granularity: for
// each trace arrival the fleet event queue (fleetQueue) identifies the
// machines whose next-event horizon has passed, only those are advanced
// to the arrival instant, the placement policy scores the fleet state
// (stale entries are provably content-identical below their horizon —
// see DESIGN.md §3 "Fleet event queue"), and the arrival is injected
// into the chosen machine. Skipped machines catch up lazily in one
// batched call when next touched, so a mostly idle 1000-machine fleet
// pays per-arrival work proportional to the machines with something to
// do, not to the fleet size — while staying bit-identical to the eager
// every-machine-every-arrival loop (the kernel's pause-point invariance
// makes coarser pause points unobservable; pinned by a randomized
// differential test). Machines share nothing between placement points,
// so each instant's due machines form one batch, which the calling
// goroutine and up to Config.Workers−1 helper goroutines claim machine
// by machine from a shared cursor; placement itself stays serial — it
// is the only synchronization point — and results are bit-identical for
// every worker count and GOMAXPROCS setting. When the trace is
// exhausted the machines drain through the same batches.
//
// There is one arrival loop: the lifecycle engine's (lifecycle.go). A
// run without lifecycle events is that engine with an empty timeline,
// and Lifecycle.active() alone decides whether the lifecycle sections
// of the result and the checkpoint are emitted.
package cluster

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/faircache/lfoc/internal/appmodel"
	"github.com/faircache/lfoc/internal/metrics"
	"github.com/faircache/lfoc/internal/sim"
	"github.com/faircache/lfoc/internal/sim/scenario"
)

// Config parameterizes a cluster run.
type Config struct {
	// Sim is the default per-machine simulator configuration (platform,
	// quotas, policy period): every machine of a homogeneous fleet runs
	// it. Ignored when Fleet is set.
	Sim sim.Config
	// Machines is the fleet size (≥ 1). When Fleet is set it may be left
	// zero (the fleet size is len(Fleet)); a non-zero value must then
	// match len(Fleet).
	Machines int
	// Fleet, when non-empty, configures each machine individually — a
	// heterogeneous fleet. Machine i runs Fleet[i]; platforms may differ
	// in core count, way count and LLC size. Entries with different
	// PolicyPeriods must set one common explicit MetricsWindow (see
	// MachineConfigs). A fleet of identical entries is equivalent to the
	// Sim+Machines form.
	Fleet []sim.Config
	// Placement decides which machine admits each arrival. The instance
	// must be fresh for this run (policies may keep internal state).
	Placement Policy
	// Workers bounds the goroutines that advance the fleet, the caller
	// included (0 = GOMAXPROCS, 1 = serial). Machines are independent
	// between placement points, so the setting affects wall-clock time
	// only, never results.
	Workers int
	// Lifecycle, when set and carrying events (scheduled, MTBF or
	// autoscale), runs the machine lifecycle layer: a deterministic
	// event timeline interleaved with the arrival stream. Nil or
	// event-free runs the same loop over an empty timeline; the result
	// and checkpoint then carry no lifecycle sections.
	Lifecycle *Lifecycle
	// RecordAssignments keeps the full per-arrival placement log in
	// Result.Assignments. Off by default: the log is O(arrivals) memory
	// — a million-arrival churn run should not hold it just to report a
	// summary — and the per-machine placement counts
	// (MachineResult.Arrivals) cover the common accounting. Turn it on
	// to replay machines solo via workloads.SplitArrivals.
	RecordAssignments bool

	// Checkpoint, when set, writes the run's coordinate to
	// Checkpoint.Path — periodically (Checkpoint.Every simulated
	// seconds) and once more when the run is interrupted. Requires a
	// placement policy implementing PlacementSnapshotter and per-machine
	// partitioning policies implementing sim.PolicySnapshotter; both are
	// validated up-front with a typed *sim.SnapshotUnsupportedError.
	Checkpoint *CheckpointConfig
	// Resume, when set, restores the run from a decoded checkpoint (see
	// ReadCheckpoint) instead of starting fresh. The scenario, fleet
	// configuration and policies must be the ones the checkpoint was
	// taken under (names are cross-checked; platform parameters are code,
	// not checkpoint data). A resumed run's Result is bit-identical —
	// reflect.DeepEqual — to the never-interrupted run's.
	Resume *Checkpoint
	// StopAfter, when positive, pauses the run at the first
	// synchronization instant at or past this simulated time: the run
	// returns a partial Result with Interrupted set (writing a final
	// checkpoint when Checkpoint is configured) instead of draining.
	StopAfter float64
	// Cancel, when set, is polled cooperatively: machines pause at their
	// next tick boundary and the run returns a partial, resumable Result
	// with Interrupted set, exactly as StopAfter does.
	Cancel *sim.CancelFlag

	// statsSink, when set, receives the advancement counters after the
	// run (testing knob, internal tests only).
	statsSink *fleetStats
}

// fleetStats counts the fleet-advancement work a run performed — the
// evidence behind the fleet event queue's headline claim (advancing
// ~10× fewer machine-steps per arrival than the eager every-machine
// reference on sparse fleets). Internal: reachable only through
// Config.statsSink.
type fleetStats struct {
	// Advances counts machine advancement calls (AdvanceTo jobs handed
	// out by advanceDue and advanceOne, whether or not the machine had
	// anything to do).
	Advances int64
	// Syncs counts synchronization instants (arrivals plus lifecycle
	// events) — Advances/Syncs is the machine-steps-per-arrival figure.
	Syncs int64
}

// MachineConfigs resolves the per-machine simulator configurations: N
// validated copies of Sim for a homogeneous fleet, or the validated
// Fleet entries. The returned slice is freshly allocated and defaults
// are applied, so callers may use it to build per-machine policies.
//
// Every machine must collect metric windows of the same width (the
// fleet series merges window-by-window): a machine's effective width is
// MetricsWindow, defaulting to its PolicyPeriod, so a mixed-cadence
// fleet must set MetricsWindow explicitly on every entry. The mismatch
// is rejected here, before any machine simulates.
func (c *Config) MachineConfigs() ([]sim.Config, error) {
	if len(c.Fleet) > 0 {
		if c.Machines != 0 && c.Machines != len(c.Fleet) {
			return nil, fmt.Errorf("cluster: Machines = %d but Fleet configures %d machines", c.Machines, len(c.Fleet))
		}
		sims := make([]sim.Config, len(c.Fleet))
		for i, s := range c.Fleet {
			if err := s.Validate(); err != nil {
				return nil, fmt.Errorf("cluster: machine %d: %w", i, err)
			}
			sims[i] = s
			if w, w0 := sims[i].EffectiveMetricsWindow(), sims[0].EffectiveMetricsWindow(); w != w0 {
				return nil, fmt.Errorf("cluster: machine %d collects %v metric windows but machine 0 collects %v — "+
					"mixed-cadence fleets must set an explicit common MetricsWindow", i, w, w0)
			}
		}
		return sims, nil
	}
	if c.Machines < 1 {
		return nil, fmt.Errorf("cluster: need at least one machine, got %d", c.Machines)
	}
	s := c.Sim
	if err := s.Validate(); err != nil {
		return nil, err
	}
	sims := make([]sim.Config, c.Machines)
	for i := range sims {
		sims[i] = s
	}
	return sims, nil
}

// WaitStats is a machine's admission-queue wait distribution over every
// application it admitted — including applications still resident when
// the run ended (their wait is known at admission). Contrast with
// Result.MeanWait, which covers only departed applications.
type WaitStats struct {
	Mean float64 `json:"mean"`
	P50  float64 `json:"p50"`
	P95  float64 `json:"p95"`
	Max  float64 `json:"max"`
}

// MachineResult is one machine's share of a cluster run.
type MachineResult struct {
	// Index is the machine's position in the fleet.
	Index int `json:"machine"`
	// Platform names the machine's platform model; Cores and Ways are
	// its capacity — identical across a homogeneous fleet, the
	// distinguishing columns of a heterogeneous one.
	Platform string `json:"platform"`
	Cores    int    `json:"cores"`
	Ways     int    `json:"ways"`
	// Arrivals counts applications placed on this machine (including
	// time-zero initial placements).
	Arrivals int `json:"arrivals"`
	// Wait is the admission-queue wait distribution over admitted apps.
	Wait WaitStats `json:"wait"`
	// State is the machine's lifecycle state when the run ended: "up",
	// "drained" or "failed". Empty when the run had no lifecycle layer.
	State string `json:"state,omitempty"`
	// JoinedAt is when the machine joined the fleet (omitted for the
	// initial fleet); DownAt when it was drained or failed (omitted
	// while up). Lifecycle runs only.
	JoinedAt float64 `json:"joined_at,omitempty"`
	DownAt   float64 `json:"down_at,omitempty"`
	// Open is the machine's full open-system result: per-app outcomes
	// and its windowed metric series.
	Open *sim.OpenResult `json:"result"`
}

// Result is what a cluster run reports: cluster-wide aggregates plus
// the per-machine breakdowns they were merged from.
type Result struct {
	Scenario  string `json:"scenario"`
	Placement string `json:"placement"`
	Machines  int    `json:"machines"`
	// Assignments maps each trace arrival (in trace order) to the
	// machine that received it — the placement decision record, and the
	// input to workloads.SplitArrivals for replaying machines solo.
	// Recorded only when Config.RecordAssignments is set (it is
	// O(arrivals) memory); nil — and omitted from JSON — otherwise.
	Assignments []int `json:"assignments,omitempty"`
	// PerMachine holds each machine's result, in index order.
	PerMachine []MachineResult `json:"per_machine"`
	// Series is the cluster-wide windowed series: per-machine windows
	// merged index by index (counts and STP sum, unfairness is the
	// fleet-wide max/min slowdown ratio).
	Series metrics.WindowedSeries `json:"series"`
	// Summary, MeanSlowdown and MeanWait aggregate over the fleet's
	// departed applications — exactly the population counted by
	// Departed, the same denominator sim.OpenResult.MeanWait uses. Apps
	// still resident or queued when the run ended contribute to the
	// per-machine WaitStats (which cover every admitted app) but not
	// here; the two views answer different questions and deliberately
	// use different denominators.
	Summary      metrics.Summary `json:"summary"`
	MeanSlowdown float64         `json:"mean_slowdown"`
	MeanWait     float64         `json:"mean_wait"`
	Departed     int             `json:"departed"`
	Remaining    int             `json:"remaining"`
	// PeakActive is the largest end-of-window fleet population;
	// Repartitions sums policy activations across machines; SimSeconds
	// is the longest machine's simulated duration.
	PeakActive   int     `json:"peak_active"`
	Repartitions int     `json:"repartitions"`
	SimSeconds   float64 `json:"sim_seconds"`
	// Lifecycle reports the machine lifecycle layer's accounting; nil
	// when the run had none (keeping lifecycle-free JSON byte-identical
	// to earlier releases).
	Lifecycle *LifecycleSummary `json:"lifecycle,omitempty"`
	// Interrupted marks a partial result: the run paused (cancellation
	// or StopAfter) before the trace drained. Machines report their
	// state as of the pause; a checkpoint, if configured, resumes it.
	Interrupted bool `json:"interrupted,omitempty"`
}

// Run executes an open scenario over a cluster. newPolicy constructs
// the per-machine partitioning policy (each machine needs its own
// instance — policies hold per-app monitoring state; in a heterogeneous
// fleet it must also match machine i's platform, see
// Config.MachineConfigs). Identical (scenario, config, placement,
// policy) inputs produce identical results regardless of Workers and
// GOMAXPROCS; the determinism tests pin this under the race detector.
func Run(cfg Config, scn *scenario.Open, newPolicy func(machine int) (sim.Dynamic, error)) (*Result, error) {
	sims, err := cfg.MachineConfigs()
	if err != nil {
		return nil, err
	}
	nMachines := len(sims)
	if cfg.Placement == nil {
		return nil, fmt.Errorf("cluster: no placement policy")
	}
	if newPolicy == nil {
		return nil, fmt.Errorf("cluster: no policy factory")
	}
	initial := scn.Initial()
	arrivals := scn.Arrivals()
	if len(initial) == 0 && len(arrivals) == 0 {
		return nil, fmt.Errorf("cluster: open scenario %q has no applications", scn.Name())
	}
	ckptActive := cfg.Checkpoint != nil || cfg.Resume != nil
	if cfg.Checkpoint != nil {
		if cfg.Checkpoint.Path == "" {
			return nil, fmt.Errorf("cluster: checkpoint configuration without a path")
		}
		if cfg.Checkpoint.Every < 0 {
			return nil, fmt.Errorf("cluster: negative checkpoint interval %g", cfg.Checkpoint.Every)
		}
	}
	if ckptActive {
		// Reject non-snapshottable configurations up-front, before any
		// machine simulates: a run that cannot write its first checkpoint
		// should fail at construction, not an hour in.
		if _, ok := cfg.Placement.(PlacementSnapshotter); !ok {
			return nil, &sim.SnapshotUnsupportedError{What: fmt.Sprintf("placement policy %T", cfg.Placement)}
		}
	}
	// Machines poll the shared flag at tick boundaries, so cancellation
	// pauses mid-advance without losing the coordinate.
	for i := range sims {
		sims[i].Cancel = cfg.Cancel
	}

	var resume *checkpointPayload
	if cfg.Resume != nil {
		resume = &cfg.Resume.payload
	}
	var machines []*sim.OpenMachine
	var placed []int
	var states []MachineState
	if resume != nil {
		if resume.Scenario != scn.Name() {
			return nil, fmt.Errorf("cluster: checkpoint is of scenario %q, resuming %q", resume.Scenario, scn.Name())
		}
		if resume.Placement != cfg.Placement.Name() {
			return nil, fmt.Errorf("cluster: checkpoint used placement %q, resuming with %q", resume.Placement, cfg.Placement.Name())
		}
		if resume.NextArrival > len(arrivals) {
			return nil, fmt.Errorf("cluster: checkpoint processed %d arrivals, trace has %d — resume must use the original trace",
				resume.NextArrival, len(arrivals))
		}
		lcActive := cfg.Lifecycle.active()
		if (resume.Lifecycle != nil) != lcActive {
			return nil, fmt.Errorf("cluster: checkpoint and resume disagree on the lifecycle layer — resume must use the original config")
		}
		n := len(resume.Machines)
		if n < nMachines || (!lcActive && n != nMachines) {
			return nil, fmt.Errorf("cluster: checkpoint holds %d machines, config says %d", n, nMachines)
		}
		machines = make([]*sim.OpenMachine, n)
		placed = append([]int(nil), resume.Placed...)
		for i := range machines {
			mc := sims[0]
			var pol sim.Dynamic
			if i < nMachines {
				mc = sims[i]
				pol, err = newPolicy(i)
			} else {
				// Machines beyond the initial fleet joined mid-run; they
				// run machine 0's configuration under a JoinPolicy-built
				// policy.
				if cfg.Lifecycle.JoinPolicy == nil {
					return nil, fmt.Errorf("cluster: checkpoint holds joined machine %d but Lifecycle.JoinPolicy is nil", i)
				}
				pol, err = cfg.Lifecycle.JoinPolicy(i, mc)
			}
			if err != nil {
				return nil, fmt.Errorf("cluster: machine %d policy: %w", i, err)
			}
			m, err := sim.RestoreMachine(mc, pol, resume.Machines[i])
			if err != nil {
				return nil, fmt.Errorf("cluster: machine %d: %w", i, err)
			}
			machines[i] = m
		}
		if err := cfg.Placement.(PlacementSnapshotter).PlacementRestore(resume.PlacementState); err != nil {
			return nil, err
		}
		// Placement-visible states refresh at the first synchronization
		// (the restored fleet queue makes every machine due immediately).
		states = make([]MachineState, n)
		for i := range states {
			states[i] = MachineState{Index: i, Cores: machines[i].Cores(), Plat: machines[i].Platform()}
		}
	} else {
		states = make([]MachineState, nMachines)
		for i := range states {
			states[i] = MachineState{Index: i, Cores: sims[i].Plat.Cores, Plat: sims[i].Plat}
		}
		perMachineInitial, err := placeInitial(cfg.Placement, initial, states)
		if err != nil {
			return nil, err
		}
		machines = make([]*sim.OpenMachine, nMachines)
		placed = make([]int, nMachines)
		for i := range machines {
			pol, err := newPolicy(i)
			if err != nil {
				return nil, fmt.Errorf("cluster: machine %d policy: %w", i, err)
			}
			if ckptActive {
				if _, ok := pol.(sim.PolicySnapshotter); !ok {
					return nil, &sim.SnapshotUnsupportedError{What: fmt.Sprintf("partitioning policy %T", pol)}
				}
			}
			m, err := sim.NewOpenMachine(sims[i], pol, scn.Name(), perMachineInitial[i], scn.Horizon())
			if err != nil {
				return nil, fmt.Errorf("cluster: machine %d: %w", i, err)
			}
			machines[i] = m
			placed[i] = len(perMachineInitial[i])
		}
	}

	pool := newFleetPool(machines, states, cfg.Workers)
	defer pool.close()
	defer pool.reportStats(cfg.statsSink)

	eng := newEngine(&cfg, scn, sims[0], pool, placed, len(arrivals))
	if err := eng.schedule(arrivals); err != nil {
		return nil, err
	}
	if resume != nil {
		if err := eng.resume(resume, arrivals); err != nil {
			return nil, err
		}
	}
	if err := eng.run(arrivals); err != nil {
		return nil, err
	}

	// Drain through the same pool: machines are fully independent past
	// placement. Every clock is first aligned to the last
	// synchronization instant, where an eager per-instant barrier would
	// have left it.
	interrupted := eng.interrupted
	if !interrupted {
		err := pool.alignClocks(eng.lastSync)
		if err == nil {
			err = pool.drain()
		}
		if err != nil {
			if !errors.Is(err, sim.ErrCanceled) {
				return nil, err
			}
			interrupted = true
		}
	}
	if interrupted && cfg.Checkpoint != nil {
		if err := eng.checkpoint(); err != nil {
			return nil, err
		}
	}
	res, err := buildResult(cfg, scn, eng)
	if err != nil {
		return nil, err
	}
	res.Interrupted = interrupted
	return res, nil
}

// placeInitial routes the time-zero applications: each is placed against
// the fleet state its predecessors produced, so load-sensitive policies
// spread them. A machine admits one application per core; initial
// applications beyond a machine's core count will start queued, so they
// count toward Queued — not Active — and stay out of the resident phase
// set. Placement must see the over-subscribed start the kernel will
// actually produce: LeastLoaded's tie-break and FairnessAware's queue
// penalty both read Queued.
func placeInitial(p Policy, initial []*appmodel.Spec, states []MachineState) ([][]*appmodel.Spec, error) {
	perMachine := make([][]*appmodel.Spec, len(states))
	for _, spec := range initial {
		idx := p.Place(spec, 0, states)
		if err := checkPlaced(p.Name(), idx, len(states), nil); err != nil {
			return nil, err
		}
		perMachine[idx] = append(perMachine[idx], spec)
		if states[idx].Active < states[idx].Cores {
			states[idx].Active++
			states[idx].Phases = append(states[idx].Phases, spec.DominantPhase())
		} else {
			states[idx].Queued++
		}
	}
	return perMachine, nil
}

// fleetJob is one unit of fleet-pool work: advance machine idx to time t,
// or drain it.
type fleetJob struct {
	idx   int
	t     float64
	drain bool
}

// fleetPool advances a fleet in batches. The serial caller publishes a
// batch — one job's time and flags, and the machines it applies to —
// wakes at most one helper goroutine per job beyond the first, then
// claims jobs from an atomic cursor alongside the helpers until none is
// left, and waits for them. The cursor is the only shared write on the
// job path; a job touches only machines[i], states[i], errs[i] and
// next[i] of its own machine i, and a batch's machines are distinct, so
// the fan-out is race-free and cannot perturb any machine's trajectory:
// results are bit-identical to the serial loop for every worker count.
type fleetPool struct {
	machines []*sim.OpenMachine
	states   []MachineState
	errs     []error
	// The published batch: job applied to due[k] (machine k when due is
	// nil) for every k < n; cursor is the next unclaimed k.
	job    fleetJob
	due    []int
	n      int
	cursor atomic.Int64
	// wake carries one token per woken helper. Its buffer holds a
	// batch's most tokens, one per helper, so waking never blocks the
	// caller on a helper that has not yet returned to its receive.
	wake  chan struct{}
	woken sync.WaitGroup // helpers woken for the current batch
	alive sync.WaitGroup // helper lifetimes, for close()
	// q is the fleet event queue: it decides which machines each
	// synchronization instant advances. next is its side slice: every
	// job stores its machine's recomputed NextEventHorizon there, and
	// the serial caller applies the batch to q afterwards.
	q        *fleetQueue
	next     []float64
	dueBuf   []int // collectDue scratch, reused across instants
	advances int64 // advance jobs handed out (lazy-savings metric; serial)
	syncs    int64 // synchronization instants served (serial)
}

// newFleetPool sizes the pool: workers caps at the fleet size, 0 means
// GOMAXPROCS, and ≤ 1 degrades to inline serial execution (no
// goroutines at all). The caller is one of the workers, so the pool
// starts workers−1 helpers.
func newFleetPool(machines []*sim.OpenMachine, states []MachineState, workers int) *fleetPool {
	p := &fleetPool{
		machines: machines,
		states:   states,
		errs:     make([]error, len(machines)),
		q:        newFleetQueue(len(machines)),
		next:     make([]float64, len(machines)),
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(machines) {
		workers = len(machines)
	}
	if workers <= 1 {
		return p
	}
	p.wake = make(chan struct{}, workers-1)
	p.alive.Add(workers - 1)
	for range workers - 1 {
		go func() {
			defer p.alive.Done()
			for range p.wake {
				p.work()
				p.woken.Done()
			}
		}()
	}
	return p
}

// runBatch runs job j on every machine in due (every machine when due
// is nil) and returns batchErr(due). It wakes one helper per job beyond
// the first, up to the pool's helper count, so a batch of 0 or 1 jobs —
// and every batch of a serial pool — runs inline on the caller.
func (p *fleetPool) runBatch(due []int, j fleetJob) error {
	p.job, p.due, p.n = j, due, len(due)
	if due == nil {
		p.n = len(p.machines)
	}
	p.cursor.Store(0)
	for range min(p.n-1, cap(p.wake)) {
		p.woken.Add(1)
		p.wake <- struct{}{}
	}
	p.work()
	p.woken.Wait()
	return p.batchErr(due)
}

// work claims jobs of the published batch until the cursor passes its
// end. The caller and every woken helper run it.
func (p *fleetPool) work() {
	for k := int(p.cursor.Add(1)) - 1; k < p.n; k = int(p.cursor.Add(1)) - 1 {
		j := p.job
		j.idx = k
		if p.due != nil {
			j.idx = p.due[k]
		}
		p.run(j)
	}
}

// run executes one job; the error (if any) lands in the job's slot so
// batchErr can report the lowest-indexed failure deterministically.
// Halted machines are skipped entirely — halts only happen serially
// between batches (lifecycle events are placement-layer work), and a
// batch's publication orders them before any of its jobs, so the check
// is race-free at every worker count.
//
// A panic inside the job — a kernel or policy bug — is confined to the
// job's machine, whichever goroutine runs it: it is recovered into a
// typed *RunPanicError in the job's error slot and run returns
// normally, so the claiming loop goes on, every woken helper reports
// back and the pool unwinds without deadlock. The run then fails with
// that error through batchErr.
//
// A job that ends in an error leaves its machine's horizon at -Inf —
// due at every instant. A horizon may be stale low, never stale high.
func (p *fleetPool) run(j fleetJob) {
	p.next[j.idx] = math.Inf(-1)
	defer func() {
		if r := recover(); r != nil {
			p.errs[j.idx] = &RunPanicError{Machine: j.idx, Value: r, Stack: debug.Stack()}
		}
	}()
	m := p.machines[j.idx]
	switch {
	case m.Halted():
	case j.drain:
		if err := m.Drain(); err != nil {
			p.errs[j.idx] = err
			return
		}
	default:
		if err := m.AdvanceTo(j.t); err != nil {
			p.errs[j.idx] = err
			return
		}
		p.refreshState(j.idx)
	}
	p.next[j.idx] = m.NextEventHorizon()
}

// refreshState re-reads one machine's placement-visible state. The
// lifecycle engine calls it after out-of-band injections (migrations,
// requeues at the displacement instant) so the next placement decision
// sees the move.
func (p *fleetPool) refreshState(idx int) {
	m := p.machines[idx]
	s := &p.states[idx]
	s.Active = m.Active()
	s.Queued = m.Queued()
	s.Phases = m.ActivePhases(s.Phases[:0])
}

// grow appends a joining machine to the pool and its fleet queue.
// Serial-only, like halts: the lifecycle engine grows the fleet between
// batches, and the next batch picks the new machine up. The joiner
// must already be at the current instant, so its horizon is current.
func (p *fleetPool) grow(m *sim.OpenMachine, state MachineState) {
	p.machines = append(p.machines, m)
	p.states = append(p.states, state)
	p.errs = append(p.errs, nil)
	p.next = append(p.next, 0)
	p.q.grow(m.NextEventHorizon())
}

// batchErr reports a batch's authoritative error: the lowest-indexed
// machine failure, or the bare sim.ErrCanceled when the only errors are
// cancellation pauses. Canceled slots are cleared — cancellation is a
// pause, not a machine failure, and a stale sentinel must not poison a
// later batch. due limits the scan to the batch's machine indices (nil
// scans the whole fleet).
func (p *fleetPool) batchErr(due []int) error {
	canceled := false
	scan := func(i int) error {
		err := p.errs[i]
		if err == nil {
			return nil
		}
		if errors.Is(err, sim.ErrCanceled) {
			p.errs[i] = nil
			canceled = true
			return nil
		}
		return fmt.Errorf("cluster: machine %d: %w", i, err)
	}
	if due == nil {
		for i := range p.errs {
			if err := scan(i); err != nil {
				return err
			}
		}
	} else {
		bad := -1
		for _, i := range due {
			if p.errs[i] != nil && !errors.Is(p.errs[i], sim.ErrCanceled) && (bad < 0 || i < bad) {
				bad = i
			}
		}
		if bad >= 0 {
			return fmt.Errorf("cluster: machine %d: %w", bad, p.errs[bad])
		}
		for _, i := range due {
			if err := scan(i); err != nil {
				return err
			}
		}
	}
	if canceled {
		return sim.ErrCanceled
	}
	return nil
}

// dueMachines is advanceDue's due-set query, the fleet event queue's
// collectDue. Tests swap in every machine at every instant, the eager
// reference the lazy queue must reproduce; nothing else assigns it.
var dueMachines = (*fleetQueue).collectDue

// advanceDue advances only the machines whose event horizon has passed
// t (per the fleet event queue), recomputes their horizons on the
// workers and applies them to the queue serially. Machines left alone
// are provably unchanged below their horizon, so the fleet state
// placement reads next is exactly what advancing every machine would
// have produced.
func (p *fleetPool) advanceDue(t float64) error {
	p.syncs++
	p.dueBuf = dueMachines(p.q, t, p.dueBuf[:0])
	due := p.dueBuf
	if len(due) == 0 {
		return nil
	}
	p.advances += int64(len(due))
	err := p.runBatch(due, fleetJob{t: t})
	p.q.updateAll(due, p.next)
	return err
}

// advanceOne forces one machine to time t regardless of its horizon — a
// targeted catch-up for machines the lifecycle layer is about to mutate
// at t (drain/fail victims before resident extraction, migration
// destinations before resident injection). Extra pause points are free:
// the kernel's pause-point invariance keeps the trajectory identical.
func (p *fleetPool) advanceOne(idx int, t float64) error {
	p.advances++
	p.run(fleetJob{idx: idx, t: t})
	p.q.update(idx, p.next[idx])
	return p.batchErr([]int{idx})
}

// reportStats copies the advancement counters into sink (nil-safe) —
// deferred by Run so the testing knob sees drains too.
func (p *fleetPool) reportStats(sink *fleetStats) {
	if sink == nil {
		return
	}
	sink.Advances = p.advances
	sink.Syncs = p.syncs
}

// alignClocks advances every machine to the run's final
// synchronization instant — the last pause point an eager per-instant
// barrier would have left each idle machine at. Run calls it once
// before draining so final clocks (and the last partial metrics
// window) are bit-identical to the eager reference. One fleet-wide
// barrier amortized over the whole run, excluded from the
// per-arrival advancement statistics; the recomputed horizons are
// never applied, since only the drain follows.
func (p *fleetPool) alignClocks(t float64) error {
	return p.runBatch(nil, fleetJob{t: t})
}

// drain marks every machine's arrival stream exhausted and runs it to
// completion.
func (p *fleetPool) drain() error {
	return p.runBatch(nil, fleetJob{drain: true})
}

// close shuts the helpers down. Safe on a serial pool.
func (p *fleetPool) close() {
	if p.wake != nil {
		close(p.wake)
		p.alive.Wait()
	}
}

// buildResult assembles the cluster result from the engine's final
// state. Lifecycle fields are filled only when the lifecycle layer is
// active, so a lifecycle-free result keeps its JSON shape.
func buildResult(cfg Config, scn *scenario.Open, eng *engine) (*Result, error) {
	machines := eng.pool.machines
	res := &Result{
		Scenario:    scn.Name(),
		Placement:   cfg.Placement.Name(),
		Machines:    len(machines),
		Assignments: eng.assignmentLog(),
		PerMachine:  make([]MachineResult, len(machines)),
	}
	series := make([]*metrics.WindowedSeries, len(machines))
	var slowdowns []float64
	var waitSum float64
	for i, m := range machines {
		open := m.Result()
		plat := m.Platform()
		res.PerMachine[i] = MachineResult{
			Index:    i,
			Platform: plat.Name,
			Cores:    plat.Cores,
			Ways:     plat.Ways,
			Arrivals: eng.placed[i],
			Wait:     waitStats(open),
			Open:     open,
		}
		if eng.active {
			mr := &res.PerMachine[i]
			switch {
			case eng.up[i]:
				mr.State = "up"
			case eng.failedAt[i]:
				mr.State = "failed"
			default:
				mr.State = "drained"
			}
			if eng.joinedAt[i] > 0 {
				mr.JoinedAt = eng.joinedAt[i]
			}
			if eng.downAt[i] >= 0 {
				mr.DownAt = eng.downAt[i]
			}
		}
		series[i] = &open.Series
		res.Departed += open.Departed
		res.Remaining += open.Remaining
		res.Repartitions += open.Repartitions
		if open.SimSeconds > res.SimSeconds {
			res.SimSeconds = open.SimSeconds
		}
		for _, a := range open.Apps {
			// A departed app always has Slowdown > 0 (clamped ≥ 1 at
			// departure), so this predicate is exactly the one behind
			// open.Departed: len(slowdowns) == res.Departed, the one
			// documented denominator for MeanSlowdown and MeanWait.
			if a.DepartedAt >= 0 && a.Slowdown > 0 {
				slowdowns = append(slowdowns, a.Slowdown)
				waitSum += a.WaitSeconds
			}
		}
	}
	merged, err := metrics.MergeSeries(series)
	if err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	res.Series = merged
	res.PeakActive = res.Series.PeakActive()
	if res.Departed > 0 {
		unf, stp, mean, _, _ := metrics.SlowdownStats(slowdowns)
		res.Summary = metrics.Summary{Unfairness: unf, STP: stp}
		res.MeanSlowdown = mean
		res.MeanWait = waitSum / float64(res.Departed)
	}
	if eng.active {
		res.Remaining += len(eng.parked)
		res.Lifecycle = eng.finish(res.SimSeconds)
	}
	return res, nil
}

// waitStats summarizes the admission-queue waits of a machine's
// admitted applications (zero value when none were admitted).
func waitStats(open *sim.OpenResult) WaitStats {
	var waits []float64
	for _, a := range open.Apps {
		if a.AdmittedAt >= 0 {
			waits = append(waits, a.WaitSeconds)
		}
	}
	if len(waits) == 0 {
		return WaitStats{}
	}
	sort.Float64s(waits)
	sum := 0.0
	for _, w := range waits {
		sum += w
	}
	return WaitStats{
		Mean: sum / float64(len(waits)),
		P50:  quantile(waits, 0.50),
		P95:  quantile(waits, 0.95),
		Max:  waits[len(waits)-1],
	}
}

// quantile returns the nearest-rank q-quantile of a sorted slice.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(q*float64(len(sorted))+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}
