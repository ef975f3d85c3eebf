// This file holds the event-horizon carry chains whose float
// trajectories must be bit-identical across architectures; floatpin
// (cmd/lfoc-vet) checks every multiply-add here for an explicit
// float64(...) rounding pin. See docs/static-analysis.md.
//
//lfoc:floatstrict
package sim

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"

	"github.com/faircache/lfoc/internal/appmodel"
	"github.com/faircache/lfoc/internal/cat"
	"github.com/faircache/lfoc/internal/metrics"
	"github.com/faircache/lfoc/internal/pmc"
	"github.com/faircache/lfoc/internal/sharing"
	"github.com/faircache/lfoc/internal/sim/scenario"
)

// kernelApp is one application slot. A slot is created at admission and
// never reused; it survives identity resets (the monitoring id changes,
// the slot does not), which is how results stay attributable across the
// paper's restart semantics, fresh-process restarts and departures.
type kernelApp struct {
	slot  int // result index, stable for the app's lifetime
	monID int // policy/monitoring identity; changes on RestartFresh
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
	perf       appmodel.Perf
	share      uint64

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

	// Rate-invariant state of the event-horizon fast path, derived
	// from perf (and the kernel's fixed freq/dt) by refreshSteps when
	// stepsDirty: the per-tick rate products in the legacy expression
	// shape, their integer carry grids, and the reciprocal rate the
	// horizon bound divides by. Refreshed only when setRate installs a
	// different perf or share.
	stepsDirty bool
	insnStep   float64
	cycleStep  float64
	missStep   float64
	stallStep  float64
	insnGrid   carryParams
	cycleGrid  carryParams
	missGrid   carryParams
	stallGrid  carryParams
	horizonInv float64 // 1/(insnStep·(1+horizonSlack))

	// Alone-clock increment memo: with the carry in [0,1) a tick
	// retires base or base+1 instructions, so the clock only ever adds
	// one of two quotients, computed once per (base, aloneIPS) pair;
	// aloneRun turns runs of those adds into integer steps.
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

// equilState is one memoized contention-model fixed point, positional
// over the active apps in slot order.
type equilState struct {
	perfs  []appmodel.Perf
	shares []uint64
}

const equilCacheMax = 4096

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

// kernel is the scenario-agnostic execution engine: it integrates
// application progress under the contention model, accumulates hardware
// counters, delivers counter windows to the policy, activates the
// partitioner periodically, and consults the scenario for arrivals,
// run-completion outcomes and termination.
type kernel struct {
	cfg Config
	pol Dynamic
	scn scenario.Scenario

	apps      []*kernelApp
	runCounts []int // completed runs per slot (shared with scenario.Progress)
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
	// Equilibrium memo, two generations: lookups hit equil (hot) then
	// equilPrev (cold, promoted back on touch); a full hot map rotates
	// into the cold slot instead of being cleared, so eviction never
	// dumps the working set (see storeEquil).
	equil     map[string]*equilState
	equilPrev map[string]*equilState
	equilMax  int
	equilHits uint64
	equilMiss uint64
	keyBuf    []byte
	// Lazy-advancement statistics (testing): syncs that moved an app at
	// least one tick, and the active apps summed over batches — what an
	// eager batch loop advancing every app would have done.
	chainSyncs   uint64
	batchActives uint64
	// Binade-sum statistics (testing): fast-path clock ticks that took
	// the per-tick float add (of tick), and the alone-clock ticks after
	// each segment's first tick, with those of them that took it.
	clockFloatTicks uint64
	aloneTicks      uint64
	aloneFloatTicks uint64

	masks     map[int]cat.WayMask
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

	// Event-horizon fast path (see advanceHorizon). fastPath is set
	// unless the testing knob Config.noEventHorizon forces the per-tick
	// reference path; doneAt is the scenario's Horizon, its only
	// time-based Done trigger (0 = Done is time-invariant); passiveWin
	// is set when the policy declares PassiveWindows, letting window
	// deliveries happen inside a batch instead of bounding it; tick
	// counts the fast path's ticks, the clock of every app's synced and
	// due.
	fastPath   bool
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

// newKernel validates the configuration, admits the scenario's initial
// applications and primes the policy, mirroring the historical
// RunDynamic setup sequence exactly.
func newKernel(cfg Config, scn scenario.Scenario, pol Dynamic) (*kernel, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	initial := scn.Initial()
	for _, s := range initial {
		if err := s.Validate(); err != nil {
			return nil, err
		}
	}
	for i, arr := range scn.Arrivals() {
		if arr.Spec == nil {
			return nil, fmt.Errorf("sim: arrival %d without a spec", i)
		}
		if err := arr.Spec.Validate(); err != nil {
			return nil, err
		}
	}

	k := &kernel{
		cfg:           cfg,
		pol:           pol,
		scn:           scn,
		arrivals:      scn.Arrivals(),
		eval:          sharing.NewEvaluator(sharing.NewModel(cfg.Plat)),
		equil:         make(map[string]*equilState),
		equilMax:      equilCacheMax,
		masks:         map[int]cat.WayMask{},
		aloneIPSCache: map[*appmodel.PhaseSpec]float64{},
		freq:          float64(cfg.Plat.FreqHz),
		dt:            cfg.PolicyPeriod.Seconds() / float64(cfg.TicksPerPeriod),
		nextPolicy:    cfg.PolicyPeriod.Seconds(),
		perfDirty:     true,
		collect:       cfg.MetricsWindow > 0,
	}
	// The batched fast path must know the only time at which Done can
	// flip as a function of time alone.
	k.fastPath = !cfg.noEventHorizon
	k.doneAt = scn.Horizon()
	if p, ok := pol.(PassiveWindows); ok && p.PassiveWindows() && k.fastPath {
		k.passiveWin = true
	}
	if k.collect {
		k.series.Width = cfg.MetricsWindow.Seconds()
	}
	if len(initial) > cfg.Plat.Cores {
		// Open-system scenarios (their apps depart and free cores) queue
		// the overflow FIFO, exactly like arrivals on a full machine;
		// everything else — the closed methodology, whose apps never
		// release a core — is rejected up-front as before.
		q, ok := scn.(interface{ QueueInitialOverflow() bool })
		if !ok || !q.QueueInitialOverflow() {
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
	a := &kernelApp{
		slot:       len(k.apps),
		monID:      k.nextMonID,
		spec:       spec,
		inst:       appmodel.NewInstance(spec),
		quota:      RunQuota(k.cfg.TargetInsns, spec),
		active:     true,
		stepsDirty: true,
		synced:     k.tick,
		tag:        tag,
		arrivedAt:  arrivedAt,
		admittedAt: k.simTime,
		runStart:   k.simTime,
		departedAt: -1,
	}
	k.nextMonID++
	if err := k.pol.AddApp(a.monID); err != nil {
		return err
	}
	a.nextWin = k.pol.WindowInsns(a.monID)
	k.apps = append(k.apps, a)
	k.actives = append(k.actives, a)
	k.runCounts = append(k.runCounts, 0)
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
	k.nextMonID++
	if err := k.pol.AddApp(a.monID); err != nil {
		return err
	}
	a.counter.Reset()
	a.nextWin = k.pol.WindowInsns(a.monID)
	return nil
}

// refreshMasks re-reads the policy's CAT assignment. A passive policy
// may still hold deferred windows of lagging apps, and Assignment may
// read every app's history (Dunn re-clusters after AddApp/RemoveApp),
// so every app is brought up to date first.
func (k *kernel) refreshMasks() error {
	if k.passiveWin {
		k.syncAll()
	}
	m, err := k.pol.Assignment()
	if err != nil {
		return err
	}
	k.masks = m
	k.maskRefresh = false
	k.perfDirty = true
	return nil
}

// refreshPerf re-evaluates the contention-model fixed point over the
// active applications. The equilibrium is a pure function of (per-app
// spec, phase index, mask): restarted applications revisit identical
// configurations constantly and the policy cycles through a small set
// of plans, so memoizing the fixed point pays for itself within a few
// runs; the slot stands in for the spec in the key since a slot's spec
// never changes.
func (k *kernel) refreshPerf() {
	k.shApps = k.shApps[:0]
	for _, a := range k.actives {
		if !a.active {
			continue
		}
		mask := k.masks[a.monID]
		if mask == 0 {
			mask = cat.FullMask(k.cfg.Plat.Ways)
		}
		k.shApps = append(k.shApps, sharing.App{ID: a.monID, Phase: a.inst.Phase(), Mask: mask})
	}
	k.perfDirty = false
	if len(k.shApps) == 0 {
		return
	}
	if !k.cfg.noEquilCache {
		k.keyBuf = k.keyBuf[:0]
		idx := 0
		for _, a := range k.actives {
			if !a.active {
				continue
			}
			k.keyBuf = binary.LittleEndian.AppendUint32(k.keyBuf, uint32(a.slot))
			k.keyBuf = binary.LittleEndian.AppendUint32(k.keyBuf, uint32(a.inst.PhaseIndex()))
			k.keyBuf = binary.LittleEndian.AppendUint32(k.keyBuf, uint32(k.shApps[idx].Mask))
			idx++
		}
		// Inline []byte→string conversions in map lookups do not
		// allocate; the key string is only materialized on a promote or
		// an insert.
		st, ok := k.equil[string(k.keyBuf)]
		if !ok {
			if st, ok = k.equilPrev[string(k.keyBuf)]; ok {
				k.storeEquil(string(k.keyBuf), st) // touched: promote to the hot generation
			}
		}
		if ok {
			k.equilHits++
			idx = 0
			for _, a := range k.actives {
				if !a.active {
					continue
				}
				k.setRate(a, st.perfs[idx], st.shares[idx])
				idx++
			}
			return
		}
		k.equilMiss++
	}
	k.shRes = k.eval.EvaluateInto(k.shRes, k.shApps)
	idx := 0
	for _, a := range k.actives {
		if !a.active {
			continue
		}
		k.setRate(a, k.shRes[idx].Perf, k.shRes[idx].ShareBytes)
		idx++
	}
	if !k.cfg.noEquilCache {
		st := &equilState{
			perfs:  make([]appmodel.Perf, len(k.shApps)),
			shares: make([]uint64, len(k.shApps)),
		}
		idx = 0
		for _, a := range k.actives {
			if !a.active {
				continue
			}
			st.perfs[idx] = a.perf
			st.shares[idx] = a.share
			idx++
		}
		k.storeEquil(string(k.keyBuf), st)
	}
}

// setRate installs one app's equilibrium rate. A different perf or
// share first brings the app up to date under its old steps — its
// lagging ticks ran at the old rate — and then marks the steps for
// rederivation; an unchanged rate keeps the app's steps, due tick and
// lag. (Float == differs from bitwise equality only on NaN, which is
// simply reinstalled, and on ±0, whose steps advance identically.)
//
//lfoc:hotpath
func (k *kernel) setRate(a *kernelApp, perf appmodel.Perf, share uint64) {
	if perf == a.perf && share == a.share {
		return
	}
	k.sync(a)
	a.perf, a.share = perf, share
	a.stepsDirty = true
}

// storeEquil inserts one fixed point into the hot generation, rotating
// generations when it is full: the hot map becomes the cold one and only
// entries untouched for a whole generation fall off the far end. Unlike
// the wholesale clear this replaces, the rotation can never dump the
// working set — live configurations are promoted back on first touch —
// so a long churn run keeps its hit rate through evictions.
func (k *kernel) storeEquil(key string, st *equilState) {
	if len(k.equil) >= k.equilMax {
		k.equilPrev = k.equil
		k.equil = make(map[string]*equilState, k.equilMax)
	}
	k.equil[key] = st
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

// progress assembles the scenario's view of the kernel state. Runs
// shares the kernel's storage; scenarios treat it as read-only.
func (k *kernel) progress() scenario.Progress {
	return scenario.Progress{
		Time:    k.simTime,
		Active:  k.nActive,
		Pending: len(k.arrivals) - k.arrIdx + len(k.waitQ),
		Runs:    k.runCounts,
	}
}

// run executes the scenario to completion. The per-tick structure —
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
// scenario reports done, whichever comes first. It is run's loop with a
// pause point: pausing after a tick and resuming executes exactly the
// operation sequence of an uninterrupted run (the extra `simTime <
// until` test and the repeated Done call are pure), which is what lets
// a cluster interleave placement decisions between ticks of independent
// machines without perturbing any single machine's trajectory.
//
// Between state-changing events the equilibrium and every rate are
// constant, so on the fast path (fastPath) the loop body
// advances a whole event horizon per iteration (advanceHorizon) instead
// of a single tick (advanceTick); both paths are bit-identical (pinned
// by TestEventHorizonDifferential and the goldens) because the batched
// path reproduces every per-tick float sum exactly (grid-exact carries,
// binade-exact clocks) and every event lands on an iteration boundary,
// where the shared delivery code runs in the legacy order.
//
// Inside the loop an app may lag behind the clock (see sync); every app
// is brought up to date on the way out, so no code outside runUntil
// ever observes a lagging app.
func (k *kernel) runUntil(until float64) error {
	defer k.syncAll()
	maxTime := k.cfg.MaxSimTime.Seconds()
	for k.simTime < until && !k.scn.Done(k.progress()) {
		// Cooperative cancellation: loop-top boundaries are exactly the
		// states a checkpoint can capture, so stopping here keeps the
		// pause-point invariance guarantee (resuming replays the same
		// operation sequence the uninterrupted run would have executed).
		if k.cfg.Cancel.Canceled() {
			return ErrCanceled
		}
		if k.simTime > maxTime {
			return fmt.Errorf("sim: exceeded MaxSimTime (%v) with runs %v", k.cfg.MaxSimTime, k.runCounts)
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
		var anyChange bool
		var err error
		if k.fastPath {
			anyChange, err = k.advanceHorizon(until, maxTime)
		} else {
			anyChange, err = k.advanceTick()
		}
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

// advanceTick is the legacy reference path: one fixed tick with every
// event check inline, exactly the historical per-tick operation order
// (the closed golden pins it bit-for-bit).
//
// The explicit float64 conversions around the per-tick rate products
// are bit-level no-ops that force the product to round before the
// accumulating add, so a compiler may not contract the pair into an
// FMA on platforms where it otherwise could (arm64): both advancement
// paths — and the goldens — stay identical across architectures, and
// the batched path may hoist the products out of its inner loop.
//
//lfoc:hotpath
func (k *kernel) advanceTick() (bool, error) {
	k.simTime += k.dt
	anyChange := false
	for _, a := range k.actives {
		if !a.active {
			continue
		}
		// Progress.
		ips := a.perf.IPC * k.freq
		a.fracInsns += float64(ips * k.dt)
		insns := uint64(a.fracInsns)
		a.fracInsns -= float64(insns)
		if insns > 0 {
			// Alone-clock: charge the retired instructions at the
			// solo rate of the phase they retired under (phase
			// boundaries inside one tick are charged to the phase
			// the tick started in — a sub-tick approximation).
			ph := a.inst.Phase()
			if ph != a.alonePhase {
				a.alonePhase = ph
				a.aloneIPS = k.alonePhaseIPS(ph)
			}
			a.aloneT += float64(insns) / a.aloneIPS
			if a.inst.Advance(insns) {
				k.perfDirty = true
			}
		}
		// Counters.
		a.fracCycles += float64(k.freq * k.dt)
		cycles := uint64(a.fracCycles)
		a.fracCycles -= float64(cycles)
		a.fracMiss += float64(a.perf.MPKC / 1000 * k.freq * k.dt)
		miss := uint64(a.fracMiss)
		a.fracMiss -= float64(miss)
		a.fracStall += float64(a.perf.StallFrac * k.freq * k.dt)
		stall := uint64(a.fracStall)
		a.fracStall -= float64(stall)
		a.counter.Add(pmc.Sample{
			Instructions:   insns,
			Cycles:         cycles,
			LLCMisses:      miss,
			LLCAccesses:    miss * 2,
			StallsL2Miss:   stall,
			OccupancyBytes: a.share,
		})
		a.runInsns += insns
		changed, err := k.appEvents(a)
		if err != nil {
			return false, err
		}
		anyChange = anyChange || changed
	}
	return anyChange, nil
}

// appEvents runs one application's post-integration event checks —
// counter-window delivery and run completion — on an app whose chains,
// counter and runInsns are up to date. It is shared verbatim by the
// per-tick path (every app, every tick) and the batched path, which
// calls it only for the apps whose due tick has arrived (the horizon
// guarantees no other app can have an event there), in slot order at
// the same point of the operation order as the legacy tick.
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
	// Run completion: the scenario decides the app's fate.
	for a.active && a.runInsns >= a.quota {
		a.runs = append(a.runs, k.simTime-a.runStart)
		k.runCounts[a.slot]++
		k.winRuns++
		a.runStart = k.simTime
		a.runInsns -= a.quota
		switch k.scn.OnRunComplete(a.slot, len(a.runs)) {
		case scenario.Depart:
			if err := k.depart(a); err != nil {
				return false, err
			}
			anyChange = true
		case scenario.RestartFresh:
			a.inst.Restart()
			k.perfDirty = true
			if err := k.refreshIdentity(a); err != nil {
				return false, err
			}
			anyChange = true
		default: // scenario.Restart
			a.inst.Restart()
			k.perfDirty = true
		}
	}
	return anyChange, nil
}

// carryParams is the integer decomposition of one per-tick carry step
// (see carryGrid); ok is false when the step needs the float path.
type carryParams struct {
	base  uint64
	sfrac uint64
	mask  uint64
	sh    uint
	ok    bool
}

// carryGrid decomposes a per-tick carry step for the exact integer
// advancement of a fractional accumulator.
//
// Exactness argument. Let g = ulp(step) = 2^(e−52) with e = ⌊log2
// step⌋, and suppose (a) 1 ≤ step < 2^52, and (b) ⌊step⌋+2 ≤ 2^(e+1).
// step is by definition a multiple of g, and so are ⌊step⌋ (an integer;
// 1/g = 2^(52−e) is an integer) and sfrac = step−⌊step⌋. If the carry
// f ∈ [0,1) is also a multiple of g, the true sum f+step is a multiple
// of g inside [2^e, 2^(e+1)] by (b) — exactly representable, so the
// float add `f += step` performs NO rounding, and the floor/subtract
// pair is always exact (Sterbenz). The whole per-tick sequence
// therefore equals integer arithmetic on multiples of g: F += S;
// carry-out = F ≫ (52−e); F &= 2^(52−e)−1 — and the chain can even be
// advanced m ticks in closed form (carryRun). The carry IS a multiple
// of g after one float tick under the current step (the add rounds the
// sum onto the grid, floor and subtract are exact), which is why batch
// chains run tick 1 in the legacy float shape first.
//
// The decomposition itself is pure bit arithmetic: step = mant·g with
// mant = 2^52 | mantissa-bits, so base = mant ≫ (52−e) and sfrac =
// mant & (2^(52−e)−1), with no float operation that could round.
//
// ok is false for steps outside (a)/(b) — less than one unit per tick,
// at a binade edge, or absurdly large — which fall back to legacy
// float ticks.
//
//lfoc:hotpath
func carryGrid(step float64) carryParams {
	if !(step >= 1) || step >= 1<<52 {
		return carryParams{}
	}
	b := math.Float64bits(step)
	e := int(b>>52) - 1023      // exponent, 0..51 given the range check
	mant := b&(1<<52-1) | 1<<52 // step/ulp(step), exact
	sh := uint(52 - e)
	mask := uint64(1)<<sh - 1
	base := mant >> sh
	if base+2 > 2<<uint(e) { // binade margin: ⌊step⌋+2 ≤ 2^(e+1)
		return carryParams{}
	}
	return carryParams{base: base, sfrac: mant & mask, mask: mask, sh: sh, ok: true}
}

// carryRun advances one carry chain m ticks in closed form: the chain's
// total output is m·base plus the number of fractional wrap-arounds,
// (F₀ + m·sfrac) div 2^sh, with the final carry the matching mod —
// exact in 128-bit integer arithmetic (carryGrid's grid argument). ok
// is false only when the wrap count would overflow the shift; the
// caller then runs legacy float ticks.
//
//lfoc:hotpath
func carryRun(frac *float64, g *carryParams, m int) (sum uint64, ok bool) {
	hi, lo := bits.Mul64(g.sfrac, uint64(m))
	var c uint64
	lo, c = bits.Add64(lo, uint64(*frac*float64(g.mask+1)), 0)
	hi += c
	if hi>>g.sh != 0 {
		return 0, false
	}
	*frac = float64(lo&g.mask) / float64(g.mask+1)
	return uint64(m)*g.base + (hi<<(64-g.sh) | lo>>g.sh), true
}

// carryBatch advances one side-effect-free carry chain a whole batch:
// tick 1 in the legacy float shape (grid alignment, see carryGrid),
// the remaining ticks in closed form when the step allows it and tick
// by tick otherwise. A zero step is skipped outright: adding +0.0 to a
// non-negative carry and flooring is a bitwise no-op.
//
//lfoc:hotpath
func carryBatch(frac *float64, step float64, g *carryParams, ticks int) uint64 {
	if step == 0 {
		return 0
	}
	f := *frac + step
	sum := uint64(f)
	f -= float64(sum)
	*frac = f
	if m := ticks - 1; m > 0 {
		if g.ok {
			if s, ok := carryRun(frac, g, m); ok {
				return sum + s
			}
		}
		for i := 0; i < m; i++ {
			f += step
			v := uint64(f)
			f -= float64(v)
			sum += v
		}
		*frac = f
	}
	return sum
}

// gridOf returns the integer significand K ∈ [2^52, 2^53) and the biased
// exponent e of a positive normal float: x = K·u with u = 2^(e−1075),
// the spacing of the floats in x's binade [2^(e−1023), 2^(e−1022)). ok
// is false for zero, subnormals, negatives, ±Inf and NaN.
//
// Exactness argument (binade-exact sums). Adding x ≥ 0 to K·u rounds
// the exact sum K·u + x to the nearest multiple of u while the sum stays
// inside the binade, so the float add yields exactly (K + d)·u with d =
// round(x/u) — provided (a) x/u is not a half-integer, where
// ties-to-even would make the step depend on K's parity (ulpsOf refuses
// those), and (b) K + d ≤ 2^53 − 1, which keeps the exact sum below the
// binade's top (x/u < d + 1/2). A run of float adds of addends with
// known d inside one binade is therefore integer addition on K, in any
// grouping: K += Σd, and fromGrid converts back by bit assembly. A sum
// leaving the binade, a tie or a zero accumulator takes one float add.
//
//lfoc:hotpath
func gridOf(x float64) (K, e uint64, ok bool) {
	b := math.Float64bits(x)
	e = b >> 52
	if e == 0 || e >= 0x7ff { // zero or subnormal; Inf, NaN or the sign bit
		return 0, 0, false
	}
	return b&(1<<52-1) | 1<<52, e, true
}

// fromGrid is gridOf's inverse: the float K·2^(e−1075) for K ∈ [2^52,
// 2^53), assembled from its bits.
//
//lfoc:hotpath
func fromGrid(K, e uint64) float64 {
	return math.Float64frombits(e<<52 | K&(1<<52-1))
}

// ulpsOf returns d = round(x/u) for the spacing u = 2^(e−1075) of the
// binade with biased exponent e (see gridOf), from x's significand bits
// alone. ok is false when the dropped bits are exactly one half (a tie,
// condition (a)) and when x is not below the binade's bottom 2^(e−1023)
// — negative, ±Inf, NaN, or too large for any add to stay in the binade
// (d ≥ 2^52 breaks condition (b) for every K).
//
//lfoc:hotpath
func ulpsOf(x float64, e uint64) (d uint64, ok bool) {
	b := math.Float64bits(x)
	ex := b >> 52
	mant := b & (1<<52 - 1)
	if ex == 0 {
		ex = 1 // zero or subnormal: no implicit bit
	} else {
		mant |= 1 << 52
	}
	if ex >= e {
		return 0, false
	}
	s := e - ex // x/u = mant/2^s
	if s > 53 {
		return 0, true // mant < 2^53 ≤ 2^(s−1): below half an ulp
	}
	half := uint64(1) << (s - 1)
	d, rem := mant>>s, mant&(half<<1-1)
	if rem == half {
		return 0, false
	}
	if rem > half {
		d++
	}
	return d, true
}

// refreshSteps rederives an application's rate-invariant advancement
// state after a rate change: the per-tick rate products (in the legacy
// expression shape — see advanceTick — so re-adding the precomputed
// value every tick is bit-identical to the legacy recomputation), their
// integer carry grids, and the reciprocal rate rebound multiplies by
// (its 1-ulp rounding is absorbed by horizonSlack). The app must be up
// to date (setRate syncs it before marking the steps dirty); its due
// tick is invalidated.
//
//lfoc:hotpath
func (k *kernel) refreshSteps(a *kernelApp) {
	ips := a.perf.IPC * k.freq
	a.insnStep = float64(ips * k.dt)
	a.cycleStep = float64(k.freq * k.dt)
	a.missStep = float64(a.perf.MPKC / 1000 * k.freq * k.dt)
	a.stallStep = float64(a.perf.StallFrac * k.freq * k.dt)
	a.insnGrid = carryGrid(a.insnStep)
	a.cycleGrid = carryGrid(a.cycleStep)
	a.missGrid = carryGrid(a.missStep)
	a.stallGrid = carryGrid(a.stallStep)
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
	if k.scn.Done(k.progress()) {
		return math.Inf(1)
	}
	if !k.fastPath {
		return k.simTime // legacy per-tick path: treat every instant as an event
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

// advanceHorizon is the event-horizon fast path: it advances the clock
// over all whole ticks until the earliest next event — due arrival,
// policy activation, metrics-window close, the until pause point,
// MaxSimTime, the scenario's time horizon, or any app's due tick
// (horizonTicks) — then brings only the apps whose due tick has arrived
// up to date (sync) and runs their event deliveries, in slot order. The
// other apps keep lagging: none of them can have an event on these
// ticks, so nothing they would do here is observable before their next
// sync point.
//
// Bit-exactness: the clock is the per-tick float sum of dt (a closed-form
// n·dt would round differently), advanced a binade at a time in exact
// integer steps (advanceClock), and sync reproduces the per-tick chains
// over any span (see sync), so where an app's advancement is cut into
// spans is invisible.
//
//lfoc:hotpath
func (k *kernel) advanceHorizon(until, maxTime float64) (bool, error) {
	n := k.horizonTicks()
	// Time-driven events: stop at the first tick that reaches one. The
	// post-batch checks (and the next loop top) then handle it exactly
	// like the legacy path, which also only acts on tick boundaries.
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
	ticks := k.advanceClock(n, stop, maxTime)
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

// advanceClock advances simTime by whole ticks of dt, stopping at the
// first tick that reaches n ticks, reaches stop or passes maxTime (at
// least one tick), and returns the ticks advanced. It is bit-identical
// to the per-tick loop `simTime += dt` under the same break test: runs
// of ticks inside one binade are one integer step (clockRun), and only a
// zero clock, a tie and the ticks crossing a binade edge take the float
// add.
//
//lfoc:hotpath
func (k *kernel) advanceClock(n int, stop, maxTime float64) int {
	ticks := 0
	for {
		j := k.clockRun(n-ticks, stop, maxTime)
		if j == 0 {
			k.simTime += k.dt
			k.clockFloatTicks++
			j = 1
		}
		ticks += j
		if ticks >= n || k.simTime >= stop || k.simTime > maxTime {
			return ticks
		}
	}
}

// clockRun advances simTime in closed form by up to limit ticks inside its
// binade (gridOf): with d = ulpsOf(dt), the time after j ticks is
// exactly fromGrid(K + j·d) while K + j·d ≤ 2^53 − 1. It stops at the
// first tick whose time reaches stop or passes maxTime, found by
// bisection over those exact times (they never decrease, so the test is
// monotone in j). It returns the ticks advanced; 0 when no tick can be
// taken in closed form.
//
//lfoc:hotpath
func (k *kernel) clockRun(limit int, stop, maxTime float64) int {
	K, e, ok := gridOf(k.simTime)
	if !ok || limit <= 0 {
		return 0
	}
	d, ok := ulpsOf(k.dt, e)
	if !ok {
		return 0
	}
	room := uint64(limit)
	if hi, lo := bits.Mul64(room, d); hi != 0 || lo > 1<<53-1-K {
		room = (1<<53 - 1 - K) / d
	}
	if room == 0 {
		return 0
	}
	// Invariant: the first stopping tick, or room if none, is in [lo, hi].
	lo, hi := uint64(1), room
	if t := fromGrid(K+room*d, e); !(t >= stop || t > maxTime) {
		lo = room
	}
	for lo < hi {
		mid := lo + (hi-lo)/2
		if t := fromGrid(K+mid*d, e); t >= stop || t > maxTime {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	k.simTime = fromGrid(K+lo*d, e)
	return int(lo)
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
// tick-major (bit-identical to the legacy interleaving), each
// grid-exact from its first tick on (carryGrid), so cutting the span
// anywhere changes nothing. The integer counter deltas are summed and
// issued as one pmc add per segment — exact because integer sums are
// associative and occupancy adopts the latest reading (pinned in
// internal/pmc). No instruction event can fall strictly inside the span
// (the app's due tick bounds it), except the counter windows of a
// passive policy: those end a segment and are delivered right there, in
// the legacy delivery loop, per app instead of in global tick order —
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
		// tick 1 in the legacy float shape, remainder in closed form (or
		// legacy float ticks for degenerate steps).
		missSum := carryBatch(&a.fracMiss, a.missStep, &a.missGrid, seg)
		a.counter.Add(pmc.Sample{
			Instructions:   segInsns,
			Cycles:         carryBatch(&a.fracCycles, a.cycleStep, &a.cycleGrid, seg),
			LLCMisses:      missSum,
			LLCAccesses:    missSum * 2,
			StallsL2Miss:   carryBatch(&a.fracStall, a.stallStep, &a.stallGrid, seg),
			OccupancyBytes: a.share,
		})
		remaining -= seg
		if remaining == 0 && !k.passiveWin {
			break
		}
		// Window delivery, the legacy delivery loop verbatim. OnWindow
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
// Tick 1 runs in the legacy float shape (grid alignment, lazy
// alone-phase resolution). When the step allows it (carryGrid) the
// remaining ticks cost O(1) plus the alone-clock's binade crossings:
// the carry is exact integer arithmetic, so the segment's length and
// retirement follow in closed form (ticksToReach, carryRun's wrap
// count), and the alone-clock, which adds one of two memoized per-tick
// quotients — base or base+1 instructions at the solo rate — advances a
// binade at a time (aloneRun). The per-tick rate product is
// loop-invariant (cached by refreshSteps in the legacy expression
// shape): re-adding the identical value every tick is bit-identical to
// the legacy recomputation.
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

	// Tick 1, legacy shape.
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
		if g := &a.insnGrid; g.ok {
			// base ≥ 1, so tick 1 retired instructions and resolved the
			// alone-clock rate.
			if a.incBase != g.base || a.incIPS != a.aloneIPS {
				a.incBase, a.incIPS = g.base, a.aloneIPS
				a.inc0 = float64(g.base) / a.aloneIPS
				a.inc1 = float64(g.base+1) / a.aloneIPS
			}
			f := uint64(a.fracInsns * float64(g.mask+1))
			seg := uint64(m)
			if j := ticksToReach(winLeft-cum, f, g); j < seg {
				seg = j
			}
			var wraps uint64
			a.aloneT, f, wraps = k.aloneRun(a.aloneT, f, g, a.inc0, a.inc1, seg)
			a.fracInsns = float64(f) / float64(g.mask+1)
			cum += seg*g.base + wraps
			done += int(seg)
		} else {
			// Degenerate steps (< 1 instruction per tick, or at a
			// binade edge): legacy float ticks.
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

// ticksToReach returns the first tick j ≥ 1 at which a grid-exact carry
// chain (carryGrid) starting from carry f, in units of ulp(step), has
// retired at least need ≥ 1 units. Its output after j ticks is ⌊(f +
// j·mant)/2^sh⌋ with mant = base·2^sh + sfrac = step/ulp(step)
// (carryRun), so j = ⌈(need·2^sh − f)/mant⌉, exact in 128-bit integers
// (the quotient fits: need·2^sh < 2^64·mant).
//
//lfoc:hotpath
func ticksToReach(need, f uint64, g *carryParams) uint64 {
	hi, lo := need>>(64-g.sh), need<<g.sh
	lo, borrow := bits.Sub64(lo, f, 0)
	hi -= borrow
	j, rem := bits.Div64(hi, lo, g.base<<g.sh|g.sfrac)
	if rem != 0 {
		j++
	}
	return j
}

// aloneRun advances an alone-clock over n ticks of the instruction
// chain's integer carry f (on grid g): each tick adds inc0, or inc1 when
// the carry wraps. It returns the clock, the final carry and the wrap
// count. Inside the clock's binade (gridOf) the adds are integer steps
// d0 ≤ d1 on its significand (inc0 < inc1), so a chunk of ticks that
// cannot leave the binade even at d1 per tick advances at once: its
// wraps n1 follow from carryRun's formula and K += (chunk − n1)·d0 +
// n1·d1. A zero clock, a tie or a tick at the binade's top runs one tick
// of the per-tick loop body instead.
//
//lfoc:hotpath
func (k *kernel) aloneRun(aloneT float64, f uint64, g *carryParams, inc0, inc1 float64, n uint64) (float64, uint64, uint64) {
	var wraps uint64
	for n > 0 {
		var chunk uint64
		K, e, ok := gridOf(aloneT)
		d0, ok0 := ulpsOf(inc0, e) // e = 0 when !ok: ulpsOf refuses
		d1, ok1 := ulpsOf(inc1, e)
		if ok && ok0 && ok1 {
			chunk = n
			if hi, lo := bits.Mul64(chunk, d1); hi != 0 || lo > 1<<53-1-K {
				chunk = (1<<53 - 1 - K) / d1
			}
		}
		if chunk == 0 {
			f += g.sfrac
			extra := f >> g.sh
			f &= g.mask
			inc := inc0
			if extra != 0 {
				inc = inc1
			}
			aloneT += inc
			wraps += extra
			n--
			k.aloneFloatTicks++
			continue
		}
		hi, lo := bits.Mul64(g.sfrac, chunk)
		lo, c := bits.Add64(lo, f, 0)
		hi += c
		n1 := hi<<(64-g.sh) | lo>>g.sh
		f = lo & g.mask
		aloneT = fromGrid(K+(chunk-n1)*d0+n1*d1, e)
		wraps += n1
		n -= chunk
	}
	return aloneT, f, wraps
}

// finish closes the trailing partial metrics window once the run is
// over. Split from runUntil so stepped execution closes it exactly once.
func (k *kernel) finish() {
	if k.collect && k.simTime > k.winStart {
		k.closeWindow(k.simTime)
	}
}
