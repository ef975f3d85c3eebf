// This file holds the per-tick rate products and the horizon estimate
// of the event-horizon kernel, whose float results must be bit-identical
// across architectures; floatpin (cmd/lfoc-vet) checks every
// multiply-add here for an explicit float64(...) rounding pin. See
// docs/static-analysis.md. The exact carry and clock arithmetic, with
// its proofs, lives in internal/sim/binade.
//
//lfoc:floatstrict
package sim

import (
	"fmt"
	"math"

	"github.com/faircache/lfoc/internal/appmodel"
	"github.com/faircache/lfoc/internal/cat"
	"github.com/faircache/lfoc/internal/metrics"
	"github.com/faircache/lfoc/internal/pmc"
	"github.com/faircache/lfoc/internal/sharing"
	"github.com/faircache/lfoc/internal/sim/binade"
	"github.com/faircache/lfoc/internal/sim/equil"
	"github.com/faircache/lfoc/internal/sim/scenario"
)

// kernelApp is one application slot. A slot is created at admission and
// never reused; it survives identity resets (the monitoring id changes,
// the slot does not), which is how results stay attributable across the
// paper's restart semantics, fresh-process restarts and departures.
type kernelApp struct {
	slot  int // result index, stable for the app's lifetime
	monID int // policy/monitoring identity; changes on a fresh-identity restart
	spec  *appmodel.Spec
	inst  *appmodel.Instance

	counter  pmc.Counter
	nextWin  uint64 // cumulative instruction threshold for next window
	runInsns uint64
	quota    uint64 // per-run instruction quota (TargetInsns·spec.SizeFactor)
	runStart float64
	runs     []float64
	// fractional accumulators (counters are integers, progress is not)
	fracInsns  float64
	fracCycles float64
	fracMiss   float64
	fracStall  float64
	rate       equil.Rate
	// mask is the app's CAT mask, copied from the policy's assignment
	// by refreshMasks (0 = not assigned: the full LLC).
	mask cat.WayMask

	active     bool
	evicted    bool    // lifted out by a lifecycle extraction, not departed
	tag        int     // scenario.Arrival.Tag, carried through untouched
	arrivedAt  float64 // scheduled arrival time (trace time)
	admittedAt float64 // when the app actually got a core
	departedAt float64 // negative while in the system

	// Alone-clock: simulated seconds an identical solo run (full LLC,
	// unloaded memory) would have needed for the instructions retired so
	// far. Feeds instantaneous slowdowns for windowed metrics and the
	// slowdown-at-departure of open scenarios.
	aloneT     float64
	alonePhase *appmodel.PhaseSpec
	aloneIPS   float64

	// Rate-invariant advancement state, derived from rate (and the
	// kernel's fixed freq/dt) by refreshSteps when stepsDirty: the
	// per-tick rate products, their integer carry grids, and the
	// reciprocal rate the horizon bound divides by. Refreshed only when
	// setRate installs a different rate.
	stepsDirty bool
	insnStep   float64
	cycleStep  float64
	missStep   float64
	stallStep  float64
	insnGrid   binade.CarryParams
	cycleGrid  binade.CarryParams
	missGrid   binade.CarryParams
	stallGrid  binade.CarryParams
	horizonInv float64 // 1/(insnStep·(1+horizonSlack))

	// Alone-clock increment memo: with the carry in [0,1) a tick
	// retires base or base+1 instructions, so the clock only ever adds
	// one of two quotients, computed once per (base, aloneIPS) pair;
	// binade.AloneRun turns runs of those adds into integer steps.
	incBase    uint64
	incIPS     float64
	inc0, inc1 float64

	// Lazy advancement (see sync): synced is the kernel tick the
	// chains, counter and instance have reached; due, valid while
	// dueOK, is the earliest kernel tick at which one of the app's
	// instruction-driven events can fire, bounded from its state at
	// synced (rebound).
	synced uint64
	due    uint64
	dueOK  bool
}

const (
	// maxBatchTicks caps one event-horizon batch. Far beyond any real
	// horizon (the policy period alone is TicksPerPeriod ticks), it only
	// bounds the float error the horizonSlack margin must absorb.
	maxBatchTicks = 1 << 20
	// horizonSlack over-estimates per-tick instruction progress when
	// bounding a batch: the per-tick carry accumulation rounds by at
	// most ~2^-52 relatively per add (≤ ~2^-32 over maxBatchTicks),
	// so inflating the rate by 1e-7 guarantees an instruction event
	// can never fire strictly inside a batch — at worst the batch ends
	// a few ticks early and the next one picks up the slack.
	horizonSlack = 1e-7
)

// kernel is the execution engine: it integrates application progress
// under the contention model, accumulates hardware counters, delivers
// counter windows to the policy, activates the partitioner
// periodically, and applies the run rules. A closed run (runsTarget >
// 0) restarts every application on completion, under a fresh
// monitoring id when freshIdentity is set, and ends once every slot
// has runsTarget runs. An open run departs every application on
// completion and ends at doneAt, or once its feeder has drained the
// arrival stream and the system is empty. Arrivals are injected
// (OpenMachine.Inject).
type kernel struct {
	cfg Config
	pol Dynamic

	runsTarget    int
	freshIdentity bool
	drained       bool

	apps []*kernelApp
	// actives is the active subset of apps in slot order — the hot
	// scans (integration, equilibrium key build, horizon bound, metrics
	// windows) iterate it instead of every slot ever admitted, which
	// matters once a churn run has retired hundreds of slots. Departure
	// only marks activesDirty; compaction happens between advances, so
	// an in-flight iteration never sees elements shift underneath it.
	actives      []*kernelApp
	activesDirty bool
	nActive      int
	nextMonID    int
	peak         int

	arrivals []scenario.Arrival
	arrIdx   int
	waitQ    []scenario.Arrival // arrivals waiting for a free core

	eval   *sharing.Evaluator
	shApps []sharing.App
	shRes  []sharing.Result
	memo   equil.Memo
	key    []uint32 // refreshPerf's memo key
	// Lazy-advancement statistics (testing): syncs that moved an app at
	// least one tick, and the active apps summed over batches — what an
	// eager batch loop advancing every app would have done.
	chainSyncs   uint64
	batchActives uint64
	// Binade-sum statistics (testing): clock ticks that took the
	// per-tick float add (of tick), and the alone-clock ticks after each
	// segment's first tick, with those of them that took it.
	clockFloatTicks uint64
	aloneTicks      uint64
	aloneFloatTicks uint64

	perfDirty bool
	// maskRefresh forces a mask refresh at the next loop top: a passive
	// policy's OnWindow returned true during a sync (a contract
	// violation, honored best-effort).
	maskRefresh bool

	aloneIPSCache map[*appmodel.PhaseSpec]float64

	freq float64
	dt   float64

	simTime      float64
	nextPolicy   float64
	repartitions int

	// Event-horizon advancement (see advanceHorizon). doneAt is an open
	// run's horizon, the only instant at which done can flip as a
	// function of time alone (0 = none; drained only ever flips between
	// runUntil calls); passiveWin is set when the policy declares
	// PassiveWindows, letting window deliveries happen inside a batch
	// instead of bounding it; tick counts the batches' ticks, the clock
	// of every app's synced and due.
	doneAt     float64
	passiveWin bool
	tick       uint64

	// Windowed-metrics collection (enabled by Config.MetricsWindow).
	collect   bool
	series    metrics.WindowedSeries
	winStart  float64
	winArr    int
	winDep    int
	winRuns   int
	sdScratch []float64
}

// newKernel validates the configuration, admits the initial
// applications and primes the policy, mirroring the historical
// RunDynamic setup sequence exactly. A non-nil closed selects the
// closed run rules; a nil one builds an open machine, whose caller sets
// doneAt.
func newKernel(cfg Config, pol Dynamic, initial []*appmodel.Spec, closed *scenario.Closed) (*kernel, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	for _, s := range initial {
		if err := s.Validate(); err != nil {
			return nil, err
		}
	}

	k := &kernel{
		cfg:           cfg,
		pol:           pol,
		eval:          sharing.NewEvaluator(sharing.NewModel(cfg.Plat)),
		memo:          equil.New(equil.Records),
		aloneIPSCache: map[*appmodel.PhaseSpec]float64{},
		freq:          float64(cfg.Plat.FreqHz),
		dt:            cfg.PolicyPeriod.Seconds() / float64(cfg.TicksPerPeriod),
		nextPolicy:    cfg.PolicyPeriod.Seconds(),
		perfDirty:     true,
		collect:       cfg.MetricsWindow > 0,
	}
	if closed != nil {
		k.runsTarget = closed.RunsTarget
		if k.runsTarget <= 0 {
			k.runsTarget = 3 // the paper's three runs, as NewClosed
		}
		k.freshIdentity = closed.ResetIdentityOnRestart
	}
	if p, ok := pol.(PassiveWindows); ok && p.PassiveWindows() {
		k.passiveWin = true
	}
	if k.collect {
		k.series.Width = cfg.MetricsWindow.Seconds()
	}
	if len(initial) > cfg.Plat.Cores {
		// An open machine (its apps depart and free cores) queues the
		// overflow FIFO, exactly like arrivals on a full machine; the
		// closed methodology, whose apps never release a core, is
		// rejected up-front.
		if closed != nil {
			return nil, fmt.Errorf("sim: %d apps exceed %d cores", len(initial), cfg.Plat.Cores)
		}
	}
	for _, s := range initial {
		if k.nActive < cfg.Plat.Cores {
			if err := k.admit(s, 0, 0); err != nil {
				return nil, err
			}
		} else {
			k.waitQ = append(k.waitQ, scenario.Arrival{Time: 0, Spec: s})
		}
	}
	pol.Reconfigure()
	if err := k.refreshMasks(); err != nil {
		return nil, err
	}
	return k, nil
}

// admit creates a slot for spec and registers it with the policy. The
// caller has verified a core is free.
func (k *kernel) admit(spec *appmodel.Spec, arrivedAt float64, tag int) error {
	return k.addSlot(&kernelApp{
		spec:       spec,
		inst:       appmodel.NewInstance(spec),
		tag:        tag,
		arrivedAt:  arrivedAt,
		admittedAt: k.simTime,
		runStart:   k.simTime,
	})
}

// addSlot makes a, whose spec, instance and progress the caller has
// set, the newest active slot and registers it with the policy under a
// fresh monitoring id. Its mask stays zero (the full LLC) until the
// next refreshMasks.
func (k *kernel) addSlot(a *kernelApp) error {
	a.slot = len(k.apps)
	a.monID = k.nextMonID
	a.quota = RunQuota(k.cfg.TargetInsns, a.spec)
	a.active = true
	a.stepsDirty = true
	a.synced = k.tick
	a.departedAt = -1
	k.nextMonID++
	if err := k.pol.AddApp(a.monID); err != nil {
		return err
	}
	a.nextWin = k.pol.WindowInsns(a.monID)
	k.apps = append(k.apps, a)
	k.actives = append(k.actives, a)
	k.nActive++
	if k.nActive > k.peak {
		k.peak = k.nActive
	}
	k.winArr++
	k.perfDirty = true
	return nil
}

// depart removes an application from the system, releasing its core and
// its policy state, and back-fills the core from the wait queue.
func (k *kernel) depart(a *kernelApp) error {
	a.active = false
	a.departedAt = k.simTime
	k.nActive--
	k.activesDirty = true
	k.winDep++
	k.pol.RemoveApp(a.monID)
	k.perfDirty = true
	for len(k.waitQ) > 0 && k.nActive < k.cfg.Plat.Cores {
		arr := k.waitQ[0]
		k.waitQ = k.waitQ[1:]
		if err := k.admit(arr.Spec, arr.Time, arr.Tag); err != nil {
			return err
		}
	}
	return nil
}

// compactActives drops departed apps from the active list, preserving
// slot order. Called between advances, never during an iteration.
func (k *kernel) compactActives() {
	live := k.actives[:0]
	for _, a := range k.actives {
		if a.active {
			live = append(live, a)
		}
	}
	// Clear the tail so departed apps do not leak through the backing
	// array.
	for i := len(live); i < len(k.actives); i++ {
		k.actives[i] = nil
	}
	k.actives = live
	k.activesDirty = false
}

// refreshIdentity gives the slot a brand-new monitoring identity: the
// policy sees the old process exit and a new one spawn, so class and
// history are re-learned from scratch.
func (k *kernel) refreshIdentity(a *kernelApp) error {
	k.pol.RemoveApp(a.monID)
	a.monID = k.nextMonID
	a.mask = 0
	k.nextMonID++
	if err := k.pol.AddApp(a.monID); err != nil {
		return err
	}
	a.counter.Reset()
	a.nextWin = k.pol.WindowInsns(a.monID)
	return nil
}

// refreshMasks re-reads the policy's CAT assignment and copies each
// active app's mask into its slot: the map is the policy's, valid only
// until its next call. A passive policy may still hold deferred windows
// of lagging apps, and Assignment may read every app's history (Dunn
// re-clusters after AddApp/RemoveApp), so every app is brought up to
// date first. Only a mask that changed marks the equilibrium stale.
func (k *kernel) refreshMasks() error {
	if k.passiveWin {
		k.syncAll()
	}
	m, err := k.pol.Assignment()
	if err != nil {
		return err
	}
	for _, a := range k.actives {
		if mask := m[a.monID]; mask != a.mask {
			a.mask = mask
			k.perfDirty = true
		}
	}
	k.maskRefresh = false
	return nil
}

// refreshPerf re-evaluates the contention-model fixed point over the
// active applications. The equilibrium is a pure function of (per-app
// spec, phase index, mask): restarted applications revisit identical
// configurations constantly and the policy cycles through a small set
// of plans, so memoizing the fixed point (internal/sim/equil) pays for
// itself within a few runs.
func (k *kernel) refreshPerf() {
	k.shApps = k.shApps[:0]
	k.key = k.key[:0]
	for _, a := range k.actives {
		if !a.active {
			continue
		}
		mask := a.mask
		if mask == 0 {
			mask = cat.FullMask(k.cfg.Plat.Ways)
		}
		k.shApps = append(k.shApps, sharing.App{ID: a.monID, Phase: a.inst.Phase(), Mask: mask})
		k.key = equil.AppendKey(k.key, a.slot, a.inst.PhaseIndex(), uint32(mask))
	}
	k.perfDirty = false
	if len(k.shApps) == 0 {
		return
	}
	if st, ok := k.memo.Lookup(k.key); ok {
		idx := 0
		for _, a := range k.actives {
			if a.active {
				k.setRate(a, st[idx])
				idx++
			}
		}
		return
	}
	k.shRes = k.eval.EvaluateInto(k.shRes, k.shApps)
	st := k.memo.Store(k.key)
	idx := 0
	for _, a := range k.actives {
		if !a.active {
			continue
		}
		res := &k.shRes[idx]
		r := equil.Rate{IPC: res.Perf.IPC, MPKC: res.Perf.MPKC, StallFrac: res.Perf.StallFrac, Share: res.ShareBytes}
		if st != nil {
			st[idx] = r
		}
		k.setRate(a, r)
		idx++
	}
}

// setRate installs one app's equilibrium rate. A different rate first
// brings the app up to date under its old steps — its lagging ticks ran
// at the old rate — and then marks the steps for rederivation; an
// unchanged rate keeps the app's steps, due tick and lag. (Float ==
// differs from bitwise equality only on NaN, which is simply
// reinstalled, and on ±0, whose steps advance identically.)
//
//lfoc:hotpath
func (k *kernel) setRate(a *kernelApp, r equil.Rate) {
	if r == a.rate {
		return
	}
	k.sync(a)
	a.rate = r
	a.stepsDirty = true
}

// alonePhaseIPS returns the solo instruction rate (insns/second, full
// LLC, unloaded memory) for a phase, cached per phase spec.
func (k *kernel) alonePhaseIPS(ph *appmodel.PhaseSpec) float64 {
	if ips, ok := k.aloneIPSCache[ph]; ok {
		return ips
	}
	ips := appmodel.PhasePerf(ph, k.cfg.Plat, k.cfg.Plat.LLCBytes(), 1).IPC * k.freq
	k.aloneIPSCache[ph] = ips
	return ips
}

// closeWindow finalizes the current metrics window at the given end
// time and opens the next one. It reads every app's alone-clock, so
// every app is brought up to date first.
func (k *kernel) closeWindow(end float64) {
	k.syncAll()
	p := metrics.WindowPoint{
		Start:         k.winStart,
		End:           end,
		Active:        k.nActive,
		Arrivals:      k.winArr,
		Departures:    k.winDep,
		RunsCompleted: k.winRuns,
	}
	if w := end - k.winStart; w > 0 {
		p.Throughput = float64(k.winRuns) / w
	}
	k.sdScratch = k.sdScratch[:0]
	for _, a := range k.actives {
		if !a.active || a.aloneT <= 0 {
			continue
		}
		k.sdScratch = append(k.sdScratch, (end-a.admittedAt)/a.aloneT)
	}
	p.Unfairness, p.STP, p.MeanSlowdown, p.MinSlowdown, p.MaxSlowdown = metrics.SlowdownStats(k.sdScratch)
	p.Samples = len(k.sdScratch)
	k.series.Add(p)
	k.winStart = end
	k.winArr, k.winDep, k.winRuns = 0, 0, 0
}

// done reports whether the run is over under its run rules: a closed
// run once every slot has runsTarget runs; an open run at its horizon,
// or once the feeder has drained the arrival stream and no arrival is
// pending, queued or running.
func (k *kernel) done() bool {
	if k.runsTarget > 0 {
		for _, a := range k.apps {
			if len(a.runs) < k.runsTarget {
				return false
			}
		}
		return true
	}
	if k.doneAt > 0 && k.simTime >= k.doneAt {
		return true
	}
	return k.drained && k.arrIdx == len(k.arrivals) && len(k.waitQ) == 0 && k.nActive == 0
}

// advance is runUntil's advancement step, advanceHorizon. Tests swap
// in the per-tick reference loop the batched path must reproduce bit
// for bit; nothing else assigns it.
var advance = (*kernel).advanceHorizon

// run executes the experiment to completion. The per-tick structure —
// termination check, arrival delivery, equilibrium refresh, time
// advance, per-app integration, mask refresh, partitioner activation,
// metrics windows — keeps the historical closed-methodology operation
// order exactly, so closed runs are bit-identical to the pre-kernel
// monolithic loop (pinned by the golden test).
func (k *kernel) run() error {
	if err := k.runUntil(math.Inf(1)); err != nil {
		return err
	}
	k.finish()
	return nil
}

// runUntil advances the simulation until simTime reaches until or the
// run is done, whichever comes first. It is run's loop with a pause
// point: pausing after a tick and resuming executes exactly the
// operation sequence of an uninterrupted run (the extra `simTime <
// until` test and the repeated done call are pure), which is what lets
// a cluster interleave placement decisions between ticks of independent
// machines without perturbing any single machine's trajectory.
//
// Between state-changing events the equilibrium and every rate are
// constant, so the loop body advances a whole event horizon per
// iteration (advanceHorizon, through advance) instead of a single tick.
// It is bit-identical to the per-tick loop, the reference the tests
// swap in (pinned by TestEventHorizonDifferential and the goldens),
// because a batch reproduces every per-tick float sum exactly
// (grid-exact carries, binade-exact clocks; see internal/sim/binade)
// and every event lands on an iteration boundary, where the shared
// delivery code runs in the per-tick order.
//
// Inside the loop an app may lag behind the clock (see sync); every app
// is brought up to date on the way out, so no code outside runUntil
// ever observes a lagging app.
func (k *kernel) runUntil(until float64) error {
	defer k.syncAll()
	maxTime := k.cfg.MaxSimTime.Seconds()
	if k.collect && !math.IsInf(until, 1) {
		// Size the series once for the windows this call can close
		// (a machine catching up closes hundreds at once). Idle windows
		// fold into one run record, so a machine that stays empty up to
		// end reserves none; Grow(0) still marks its series non-nil, as
		// every reservation does.
		end := min(until, maxTime)
		if k.doneAt > 0 {
			end = min(end, k.doneAt)
		}
		if n := int((end - k.winStart) / k.series.Width); n > 0 {
			if k.nActive == 0 && (k.arrIdx == len(k.arrivals) || k.arrivals[k.arrIdx].Time >= end) {
				n = 0
			}
			k.series.Grow(n)
		}
	}
	for k.simTime < until && !k.done() {
		// Cooperative cancellation: loop-top boundaries are exactly the
		// states a checkpoint can capture, so stopping here keeps the
		// pause-point invariance guarantee (resuming replays the same
		// operation sequence the uninterrupted run would have executed).
		if k.cfg.Cancel.Canceled() {
			return ErrCanceled
		}
		if k.simTime > maxTime {
			runs := make([]int, len(k.apps))
			for i, a := range k.apps {
				runs[i] = len(a.runs)
			}
			return fmt.Errorf("sim: exceeded MaxSimTime (%v) with runs %v", k.cfg.MaxSimTime, runs)
		}
		// Deliver arrivals that are due; a full machine queues them.
		admitted := false
		for k.arrIdx < len(k.arrivals) && k.arrivals[k.arrIdx].Time <= k.simTime {
			arr := k.arrivals[k.arrIdx]
			k.arrIdx++
			if k.nActive >= k.cfg.Plat.Cores {
				k.waitQ = append(k.waitQ, arr)
				continue
			}
			if err := k.admit(arr.Spec, arr.Time, arr.Tag); err != nil {
				return err
			}
			admitted = true
		}
		if admitted || k.maskRefresh {
			if err := k.refreshMasks(); err != nil {
				return err
			}
		}
		if k.perfDirty {
			k.refreshPerf()
		}
		anyChange, err := advance(k, until, maxTime)
		if err != nil {
			return err
		}
		if k.activesDirty {
			k.compactActives()
		}
		if anyChange {
			if err := k.refreshMasks(); err != nil {
				return err
			}
		}
		if k.simTime >= k.nextPolicy {
			if k.passiveWin {
				k.syncAll() // deliver deferred windows first (PassiveWindows)
			}
			k.pol.Reconfigure()
			k.repartitions++
			k.nextPolicy += k.cfg.PolicyPeriod.Seconds()
			if err := k.refreshMasks(); err != nil {
				return err
			}
		}
		if k.collect {
			for k.simTime >= k.winStart+k.series.Width {
				k.closeWindow(k.winStart + k.series.Width)
			}
		}
	}
	return nil
}

// appEvents runs one application's post-integration event checks —
// counter-window delivery and run completion — on an app whose chains,
// counter and runInsns are up to date. The batched path calls it only
// for the apps whose due tick has arrived (the horizon guarantees no
// other app can have an event there), in slot order at the same point
// of the operation order as a per-tick loop, which calls it for every
// app at every tick.
func (k *kernel) appEvents(a *kernelApp) (bool, error) {
	anyChange := false
	// Window delivery.
	for a.counter.Total().Instructions >= a.nextWin {
		w := a.counter.ReadWindow()
		if k.pol.OnWindow(a.monID, w) {
			anyChange = true
		}
		a.nextWin = a.counter.Total().Instructions + k.pol.WindowInsns(a.monID)
	}
	// Run completion: an open run's app departs, a closed run's app
	// restarts (as a fresh process when freshIdentity is set).
	for a.active && a.runInsns >= a.quota {
		a.runs = append(a.runs, k.simTime-a.runStart)
		k.winRuns++
		a.runStart = k.simTime
		a.runInsns -= a.quota
		switch {
		case k.runsTarget == 0:
			if err := k.depart(a); err != nil {
				return false, err
			}
			anyChange = true
		case k.freshIdentity:
			a.inst.Restart()
			k.perfDirty = true
			if err := k.refreshIdentity(a); err != nil {
				return false, err
			}
			anyChange = true
		default:
			a.inst.Restart()
			k.perfDirty = true
		}
	}
	return anyChange, nil
}

// refreshSteps rederives an application's rate-invariant advancement
// state after a rate change: the per-tick rate products, their integer
// carry grids, and the reciprocal rate rebound multiplies by (its 1-ulp
// rounding is absorbed by horizonSlack). The app must be up to date
// (setRate syncs it before marking the steps dirty); its due tick is
// invalidated.
//
// The products keep the historical per-tick expression shape, so
// re-adding the precomputed value every tick is bit-identical to
// recomputing it every tick. The explicit float64 conversions are
// bit-level no-ops that force each product to round before the
// accumulating add, so a compiler may not contract the pair into an FMA
// on platforms where it otherwise could (arm64): the batched path, the
// per-tick reference and the goldens stay identical across
// architectures.
//
//lfoc:hotpath
func (k *kernel) refreshSteps(a *kernelApp) {
	ips := a.rate.IPC * k.freq
	a.insnStep = float64(ips * k.dt)
	a.cycleStep = float64(k.freq * k.dt)
	a.missStep = float64(a.rate.MPKC / 1000 * k.freq * k.dt)
	a.stallStep = float64(a.rate.StallFrac * k.freq * k.dt)
	a.insnGrid = binade.CarryGrid(a.insnStep)
	a.cycleGrid = binade.CarryGrid(a.cycleStep)
	a.missGrid = binade.CarryGrid(a.missStep)
	a.stallGrid = binade.CarryGrid(a.stallStep)
	a.horizonInv = 1 / (a.insnStep * (1 + horizonSlack))
	a.stepsDirty = false
	a.dueOK = false
}

// rebound stores an app's due tick: the earliest tick at which it can
// reach its next counter-window delivery, run completion or phase
// boundary, bounded from its state at a.synced. The bound is
// conservative (an event may land on the due tick, never before it):
// after j ticks an app has retired at most j·step·(1+horizonSlack)+1
// instructions — the carry is < 1 and the slack absorbs both the
// per-tick float rounding and the 1-ulp error of the precomputed
// reciprocal — so ticks 1..safe cannot reach the nearest event, and it
// fires on tick safe+1 at the earliest. The bound never reaches past
// maxBatchTicks, which caps the float error the slack must absorb; an
// app without instruction progress has no instruction events at all.
//
//lfoc:hotpath
func (k *kernel) rebound(a *kernelApp) {
	a.dueOK = true
	if !(a.insnStep > 0) {
		a.due = math.MaxUint64
		return
	}
	// A passive policy takes its window deliveries inside sync's segment
	// loop, so they do not bound the app.
	remain := float64(a.quota - a.runInsns)
	if !k.passiveWin {
		if r := float64(a.nextWin - a.counter.Total().Instructions); r < remain {
			remain = r
		}
	}
	if pe := a.inst.InstructionsToPhaseEnd(); pe > 0 {
		if r := float64(pe); r < remain {
			remain = r
		}
	}
	n := uint64(maxBatchTicks)
	if ticksF := (remain - 1) * a.horizonInv; ticksF < float64(maxBatchTicks-1) {
		safe := int(ticksF)
		if safe < 0 {
			safe = 0
		}
		n = uint64(safe) + 1
	}
	a.due = a.synced + n
}

// horizonTicks bounds the next batch by the instruction-driven events:
// the ticks until the earliest due tick of any active app (at most
// maxBatchTicks), so an event may land on the batch's last tick but
// never strictly inside it. It is also where stale per-app state is
// rederived — steps after a rate change, due ticks after a sync — since
// it runs once per batch, after the loop top has refreshed the
// equilibrium and before the clock advances.
//
//lfoc:hotpath
func (k *kernel) horizonTicks() int {
	due := k.tick + maxBatchTicks
	for _, a := range k.actives {
		if !a.active {
			continue
		}
		if a.stepsDirty {
			k.refreshSteps(a)
		}
		if !a.dueOK {
			k.rebound(a)
		}
		if a.due < due {
			due = a.due
		}
	}
	return int(due - k.tick)
}

// nextEventTime returns a conservative lower bound H on the next
// simulated instant at which this kernel's externally visible state —
// the placement view (active count, queue depth, resident phases) and
// the migration coordinates a Resident carries — can differ from its
// current content. The cluster layer uses it to skip advancement: for
// any pause point t < H, runUntil(t) is guaranteed to deliver no
// arrival, complete no run, cross no phase boundary and change no
// policy input, so deferring the call is indistinguishable from making
// it (runUntil's pause-point invariance covers the rest).
//
// The bound is the earliest of:
//   - the next undelivered injected arrival (delivery changes the
//     active set and admits from the wait queue);
//   - the next policy activation, but only while applications are
//     resident — a repartition changes masks and therefore every rate,
//     invalidating the instruction-event bound below (an idle machine
//     has no rates to invalidate, which is what lets a 1000-machine
//     fleet skip its idle members entirely);
//   - the last tick horizonTicks guarantees free of instruction events
//     (window delivery, run completion, phase boundary), shrunk by a
//     relative slack that dominates the accumulated per-tick rounding
//     of the real clock (simTime is the per-tick float sum of dt, each
//     add rounding; the one-multiply estimate here may land up to
//     ~2^-32 relative above the true boundary, and an arrival in that
//     gap must still count as due).
//
// Metrics-window closes deliberately do not bound H: they are pure
// recording, replayed bit-identically inside the catch-up runUntil.
// A done machine (horizon reached, or drained and empty) returns +Inf:
// its state is frozen. It runs between runUntil calls, where every app
// is up to date, so each due tick is bounded from the current state
// exactly as a fresh computation would. Calling refreshPerf and
// horizonTicks here is safe — both are idempotent rederivations the
// next loop top would perform with identical inputs.
//
//lfoc:hotpath
func (k *kernel) nextEventTime() float64 {
	if k.done() {
		return math.Inf(1)
	}
	h := math.Inf(1)
	if k.arrIdx < len(k.arrivals) {
		h = k.arrivals[k.arrIdx].Time
	}
	if k.nActive > 0 {
		if k.nextPolicy < h {
			h = k.nextPolicy
		}
		if k.perfDirty {
			k.refreshPerf()
		}
		n := k.horizonTicks()
		hins := k.simTime + float64(float64(n-1)*k.dt)
		hins -= float64(hins * 1e-9)
		if hins < h {
			h = hins
		}
	}
	return h
}

// advanceHorizon is runUntil's advancement step: it advances the clock
// over all whole ticks until the earliest next event — due arrival,
// policy activation, metrics-window close, the until pause point,
// MaxSimTime, the run's horizon (doneAt), or any app's due tick
// (horizonTicks) — then brings only the apps whose due tick has arrived
// up to date (sync) and runs their event deliveries, in slot order. The
// other apps keep lagging: none of them can have an event on these
// ticks, so nothing they would do here is observable before their next
// sync point.
//
// Bit-exactness: the clock is the per-tick float sum of dt (a
// closed-form n·dt would round differently), advanced a binade at a time
// in exact integer steps (binade.AdvanceClock), and sync reproduces the
// per-tick chains over any span (see sync), so where an app's
// advancement is cut into spans is invisible.
//
//lfoc:hotpath
func (k *kernel) advanceHorizon(until, maxTime float64) (bool, error) {
	n := k.horizonTicks()
	// Time-driven events: stop at the first tick that reaches one. The
	// post-batch checks (and the next loop top) then handle it exactly
	// like a per-tick loop, which also only acts on tick boundaries.
	stop := until
	if k.arrIdx < len(k.arrivals) && k.arrivals[k.arrIdx].Time < stop {
		stop = k.arrivals[k.arrIdx].Time
	}
	if k.nextPolicy < stop {
		stop = k.nextPolicy
	}
	if k.collect {
		if w := k.winStart + k.series.Width; w < stop {
			stop = w
		}
	}
	if k.doneAt > 0 && k.doneAt < stop {
		stop = k.doneAt
	}
	var ticks int
	var floatTicks uint64
	k.simTime, ticks, floatTicks = binade.AdvanceClock(k.simTime, k.dt, n, stop, maxTime)
	k.clockFloatTicks += floatTicks
	k.tick += uint64(ticks)
	k.batchActives += uint64(k.nActive)

	// Apps admitted by a departure below join k.actives behind this
	// range, already up to date.
	anyChange := false
	for _, a := range k.actives {
		if !a.active || a.due > k.tick {
			continue
		}
		k.sync(a)
		changed, err := k.appEvents(a)
		if err != nil {
			return false, err
		}
		anyChange = anyChange || changed
	}
	return anyChange, nil
}

// sync brings one app up to date: it advances the app's chains,
// counter and instance from a.synced to the kernel's current tick, at
// the rate installed for that whole span. An app is synced only when
// something needs its state — at its due tick (followed by appEvents),
// before its rate changes (setRate), before a metrics window reads its
// alone-clock (closeWindow), before a passive policy's Reconfigure or
// Assignment (which may read the deferred windows) and on runUntil's
// way out — so an app whose events are far off skips every batch end
// in between.
//
// Bit-exactness: the four carry chains touch disjoint state, so they
// commute across the span: they are processed chain-major instead of
// tick-major (bit-identical to the per-tick interleaving), each
// grid-exact from its first tick on (binade.CarryGrid), so cutting the
// span anywhere changes nothing. The integer counter deltas are summed and
// issued as one pmc add per segment — exact because integer sums are
// associative and occupancy adopts the latest reading (pinned in
// internal/pmc). No instruction event can fall strictly inside the span
// (the app's due tick bounds it), except the counter windows of a
// passive policy: those end a segment and are delivered right there, in
// the per-tick delivery loop, per app instead of in global tick order —
// indistinguishable by the PassiveWindows contract. A window landing on
// a due tick under a non-passive policy is left to appEvents.
//
//lfoc:hotpath
func (k *kernel) sync(a *kernelApp) {
	if a.synced == k.tick {
		return
	}
	remaining := int(k.tick - a.synced)
	a.synced = k.tick
	a.dueOK = false
	k.chainSyncs++
	ph := a.inst.Phase() // constant for the whole span (Advance is deferred)
	var insnsSum uint64
	for {
		seg, segInsns := k.advanceInsnsChain(a, ph, remaining)
		insnsSum += segInsns
		// Cycle, miss and stall chains have no per-tick side effects:
		// tick 1 in the per-tick float shape, remainder in closed form
		// (or per-tick float adds for degenerate steps).
		missSum := binade.CarryBatch(&a.fracMiss, a.missStep, &a.missGrid, seg)
		a.counter.Add(pmc.Sample{
			Instructions:   segInsns,
			Cycles:         binade.CarryBatch(&a.fracCycles, a.cycleStep, &a.cycleGrid, seg),
			LLCMisses:      missSum,
			LLCAccesses:    missSum * 2,
			StallsL2Miss:   binade.CarryBatch(&a.fracStall, a.stallStep, &a.stallGrid, seg),
			OccupancyBytes: a.rate.Share,
		})
		remaining -= seg
		if remaining == 0 && !k.passiveWin {
			break
		}
		// Window delivery, the per-tick delivery loop verbatim. OnWindow
		// must return false here (the policy declared its windows
		// passive); a true is still honored best-effort at the next loop
		// top, but a policy that violates the contract forfeits
		// bit-identity with the per-tick path.
		for a.counter.Total().Instructions >= a.nextWin {
			w := a.counter.ReadWindow()
			if k.pol.OnWindow(a.monID, w) {
				k.maskRefresh = true
			}
			a.nextWin = a.counter.Total().Instructions + k.pol.WindowInsns(a.monID)
		}
		if remaining == 0 {
			break
		}
	}
	if insnsSum > 0 {
		a.runInsns += insnsSum
		if a.inst.Advance(insnsSum) {
			k.perfDirty = true
		}
	}
}

// syncAll brings every active app up to date (see sync).
//
//lfoc:hotpath
func (k *kernel) syncAll() {
	for _, a := range k.actives {
		if a.active {
			k.sync(a)
		}
	}
}

// advanceInsnsChain advances one application's instruction and
// alone-clock chain by up to maxTicks ticks, stopping at (and
// including) the first tick whose cumulative retirement reaches the
// app's next counter-window threshold. It returns the ticks consumed —
// the segment length the sibling chains must then advance — and the
// instructions retired.
//
// Tick 1 runs in the per-tick float shape (grid alignment, lazy
// alone-phase resolution). When the step allows it (binade.CarryGrid)
// the remaining ticks cost O(1) plus the alone-clock's binade
// crossings: the carry is exact integer arithmetic, so the segment's
// length and retirement follow in closed form (binade.TicksToReach and
// the wrap count), and the alone-clock, which adds one of two memoized
// per-tick quotients — base or base+1 instructions at the solo rate —
// advances a binade at a time (binade.AloneRun). The per-tick rate
// product is loop-invariant (cached by refreshSteps): re-adding the
// identical value every tick is bit-identical to recomputing it.
//
//lfoc:hotpath
func (k *kernel) advanceInsnsChain(a *kernelApp, ph *appmodel.PhaseSpec, maxTicks int) (int, uint64) {
	insnStep := a.insnStep
	if !(insnStep > 0) {
		// No retirement: every tick adds +0.0 to a non-negative carry
		// and floors it — a bitwise no-op, so the whole segment is
		// consumed at once.
		return maxTicks, 0
	}
	winLeft := a.nextWin - a.counter.Total().Instructions // ≥ 1 between deliveries

	// Tick 1, per-tick shape.
	a.fracInsns += insnStep
	insns := uint64(a.fracInsns)
	a.fracInsns -= float64(insns)
	var cum uint64
	if insns > 0 {
		if ph != a.alonePhase {
			a.alonePhase = ph
			a.aloneIPS = k.alonePhaseIPS(ph)
		}
		a.aloneT += float64(insns) / a.aloneIPS
		cum = insns
	}
	done := 1
	if m := maxTicks - 1; m > 0 && cum < winLeft {
		if g := &a.insnGrid; g.OK {
			// base ≥ 1, so tick 1 retired instructions and resolved the
			// alone-clock rate.
			if a.incBase != g.Base || a.incIPS != a.aloneIPS {
				a.incBase, a.incIPS = g.Base, a.aloneIPS
				a.inc0 = float64(g.Base) / a.aloneIPS
				a.inc1 = float64(g.Base+1) / a.aloneIPS
			}
			f := uint64(a.fracInsns * float64(g.Mask+1))
			seg := uint64(m)
			if j := binade.TicksToReach(winLeft-cum, f, g); j < seg {
				seg = j
			}
			var wraps, floatTicks uint64
			a.aloneT, f, wraps, floatTicks = binade.AloneRun(a.aloneT, f, g, a.inc0, a.inc1, seg)
			k.aloneFloatTicks += floatTicks
			a.fracInsns = float64(f) / float64(g.Mask+1)
			cum += seg*g.Base + wraps
			done += int(seg)
		} else {
			// Degenerate steps (< 1 instruction per tick, or at a
			// binade edge): per-tick float adds.
			fracInsns, aloneT := a.fracInsns, a.aloneT
			for i := 0; i < m; i++ {
				fracInsns += insnStep
				insns := uint64(fracInsns)
				fracInsns -= float64(insns)
				if insns > 0 {
					if ph != a.alonePhase {
						a.alonePhase = ph
						a.aloneIPS = k.alonePhaseIPS(ph)
					}
					aloneT += float64(insns) / a.aloneIPS
					cum += insns
				}
				done++
				if cum >= winLeft {
					break
				}
			}
			a.fracInsns, a.aloneT = fracInsns, aloneT
			k.aloneFloatTicks += uint64(done - 1)
		}
		k.aloneTicks += uint64(done - 1)
	}
	return done, cum
}

// finish closes the trailing partial metrics window once the run is
// over. Split from runUntil so stepped execution closes it exactly once.
func (k *kernel) finish() {
	if k.collect && k.simTime > k.winStart {
		k.closeWindow(k.simTime)
	}
}
