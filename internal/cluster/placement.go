package cluster

import (
	"fmt"

	"github.com/faircache/lfoc/internal/appmodel"
	"github.com/faircache/lfoc/internal/cat"
	"github.com/faircache/lfoc/internal/core"
	"github.com/faircache/lfoc/internal/machine"
	"github.com/faircache/lfoc/internal/policy"
	"github.com/faircache/lfoc/internal/sharing"
)

// MachineState is one machine's placement-visible load at an arrival
// instant: every machine has been advanced to the arrival time before
// the policy is consulted, so the view is synchronous across the fleet.
type MachineState struct {
	// Index identifies the machine within the cluster.
	Index int
	// Cores is the machine's admission capacity (one app per core).
	Cores int
	// Plat is the machine's platform model. Heterogeneous fleets differ
	// per machine (core counts, way counts, LLC sizes); contention-aware
	// placements must evaluate a candidate on its own platform, not a
	// fleet-wide one.
	Plat *machine.Platform
	// Active counts applications currently holding a core.
	Active int
	// Queued counts arrivals waiting for a core (plus injected arrivals
	// not yet delivered) — the admission-queue length. At time zero this
	// includes initial applications beyond the machine's core count:
	// they will start queued, not resident.
	Queued int
	// Phases holds the current phase of every resident application, the
	// contention-model view of what the machine is running. Queued
	// applications are not resident and do not appear here.
	Phases []*appmodel.PhaseSpec
}

// Load is the machine's total commitment: resident plus queued.
func (s MachineState) Load() int { return s.Active + s.Queued }

// Policy decides which machine admits an arriving application. A policy
// may keep internal state (RoundRobin's cursor, FairnessAware's caches),
// so one instance must not be shared across concurrent cluster runs;
// construct a fresh policy per Run.
type Policy interface {
	// Name labels the policy in results and reports.
	Name() string
	// Place returns the MachineState.Index of the machine that admits
	// the arrival — the Index field of the chosen state, NOT the
	// state's position in the machines slice. cluster.Run passes
	// machines ordered by Index with Index equal to position, so the
	// two coincide there, but the contract is the Index field: a policy
	// that reorders, filters or subsets the slice while scoring must
	// still return the original Index. machines is non-empty.
	Place(spec *appmodel.Spec, t float64, machines []MachineState) int
}

// RoundRobin cycles through the machines in index order regardless of
// load — the baseline every placement study needs.
type RoundRobin struct {
	next int
}

// NewRoundRobin returns a round-robin placement starting at machine 0.
func NewRoundRobin() *RoundRobin { return &RoundRobin{} }

// Name implements Policy.
func (r *RoundRobin) Name() string { return "rr" }

// Place implements Policy.
func (r *RoundRobin) Place(_ *appmodel.Spec, _ float64, machines []MachineState) int {
	idx := r.next % len(machines)
	r.next = (r.next + 1) % len(machines)
	return machines[idx].Index
}

// LeastLoaded admits on a machine with a free core when one exists,
// preferring the fewest resident plus queued applications, breaking
// ties toward the shorter admission queue and then the lower index —
// deterministic joint-shortest-queue. The free-core rule exists for
// heterogeneous fleets: a full 4-core machine carries less absolute
// load than a 20-core machine with idle cores, but queueing behind it
// is strictly worse. On homogeneous fleets the rule never changes a
// pick (a machine with a free core always carries less load than a
// full one), so existing placement goldens are unaffected.
type LeastLoaded struct{}

// NewLeastLoaded returns the least-loaded placement.
func NewLeastLoaded() *LeastLoaded { return &LeastLoaded{} }

// Name implements Policy.
func (l *LeastLoaded) Name() string { return "least" }

// Place implements Policy.
func (l *LeastLoaded) Place(_ *appmodel.Spec, _ float64, machines []MachineState) int {
	best := 0
	for i := 1; i < len(machines); i++ {
		if better(machines[i], machines[best]) {
			best = i
		}
	}
	return machines[best].Index
}

// better orders machine states: free core first, then by load, then
// queue length (index order breaks the final tie because the scan goes
// low to high).
func better(a, b MachineState) bool {
	if aFree, bFree := a.Load() < a.Cores, b.Load() < b.Cores; aFree != bFree {
		return aFree
	}
	if a.Load() != b.Load() {
		return a.Load() < b.Load()
	}
	return a.Queued < b.Queued
}

// FairnessAware is the contention-aware placement: it scores every
// candidate machine with the sharing model — the predicted unfairness
// of the machine's residents plus the newcomer, all competing for the
// full LLC (the pessimistic pre-partitioning view the per-machine LFOC
// then improves on) — and admits where the prediction is best, with
// queueing machines penalized by their queue depth. Every candidate is
// evaluated on its own platform (MachineState.Plat), so a heterogeneous
// fleet scores each machine against its actual LLC: the same residents
// predict more unfairness on a 7-way machine than an 11-way one.
//
// LFOC's light/streaming classification keeps the policy cheap where
// the model cannot change the answer: an arrival whose dominant phase
// classifies as light-sharing neither suffers nor inflicts contention
// (Table 1), so it is placed least-loaded without evaluating the model.
// The triage is checked on every candidate platform — a phase that is
// light against a big LLC can be an aggressor against a small one, so
// only an everywhere-light arrival takes the fast path.
// Streaming and sensitive arrivals take the model path, which is where
// classification pays off twice — a sensitive newcomer is steered away
// from streaming-heavy machines because the model predicts exactly the
// slowdown those aggressors inflict.
type FairnessAware struct {
	// ref is the fallback platform, standing in for machines whose
	// state carries no platform of its own.
	ref   *machine.Platform
	evals map[*machine.Platform]*platformEval

	sds []float64
	ll  LeastLoaded
}

// platformEval is FairnessAware's per-platform machinery. The sharing
// model, the classification thresholds, the class and alone-IPC caches
// and the full-LLC mask are all platform-specific — a phase classifies
// differently against a 7-way LLC than an 11-way one, and its alone IPC
// depends on the LLC size — so a heterogeneous fleet needs one of these
// per distinct platform. Machines sharing a *machine.Platform share one
// (ParseMachineMix reuses a single Platform per mix group for exactly
// this reason).
type platformEval struct {
	plat     *machine.Platform
	eval     *sharing.Evaluator
	params   core.Params
	classes  map[*appmodel.PhaseSpec]core.Class
	aloneIPC map[*appmodel.PhaseSpec]float64
	fullMask cat.WayMask

	scratch []sharing.App
	res     []sharing.Result
}

func newPlatformEval(plat *machine.Platform) *platformEval {
	return &platformEval{
		plat:     plat,
		eval:     sharing.NewEvaluator(sharing.NewModel(plat)),
		params:   core.DefaultParams(plat.Ways),
		classes:  map[*appmodel.PhaseSpec]core.Class{},
		aloneIPC: map[*appmodel.PhaseSpec]float64{},
		fullMask: cat.FullMask(plat.Ways),
	}
}

// NewFairnessAware returns the contention-aware placement. plat is the
// fallback platform for machines whose MachineState carries none;
// candidates are classified and scored on their per-state platforms.
func NewFairnessAware(plat *machine.Platform) *FairnessAware {
	f := &FairnessAware{ref: plat, evals: map[*machine.Platform]*platformEval{}}
	f.evals[plat] = newPlatformEval(plat)
	return f
}

// Name implements Policy.
func (f *FairnessAware) Name() string { return "fair" }

// evalFor returns (building on first use) the per-platform machinery
// for a candidate machine, falling back to the reference platform for
// states without one.
func (f *FairnessAware) evalFor(plat *machine.Platform) *platformEval {
	if plat == nil {
		plat = f.ref
	}
	pe, ok := f.evals[plat]
	if !ok {
		pe = newPlatformEval(plat)
		f.evals[plat] = pe
	}
	return pe
}

// classOf classifies a phase through LFOC's Table 1 criteria, cached
// per phase spec (the offline profile build dominates the cost).
func (pe *platformEval) classOf(ph *appmodel.PhaseSpec) core.Class {
	if c, ok := pe.classes[ph]; ok {
		return c
	}
	prof := policy.ProfileFromTable(appmodel.BuildTable(ph, pe.plat))
	c := core.Classify(prof, &pe.params)
	pe.classes[ph] = c
	return c
}

// alone returns the phase's solo IPC (full LLC, unloaded memory),
// cached per phase spec.
func (pe *platformEval) alone(ph *appmodel.PhaseSpec) float64 {
	if ipc, ok := pe.aloneIPC[ph]; ok {
		return ipc
	}
	ipc := appmodel.PhasePerf(ph, pe.plat, pe.plat.LLCBytes(), 1).IPC
	pe.aloneIPC[ph] = ipc
	return ipc
}

// Place implements Policy.
func (f *FairnessAware) Place(spec *appmodel.Spec, t float64, machines []MachineState) int {
	ph := spec.DominantPhase()
	// The light-sharing fast path must hold on every platform the
	// arrival could land on: a phase whose working set fits an 11-way
	// LLC can be a streaming aggressor against a 7-way one, so only an
	// everywhere-light arrival skips the model. Classes are cached per
	// (platform, phase); a homogeneous fleet does one lookup.
	light := true
	for i := range machines {
		if f.evalFor(machines[i].Plat).classOf(ph) != core.ClassLight {
			light = false
			break
		}
	}
	if light {
		return f.ll.Place(spec, t, machines)
	}
	best, bestScore := 0, 0.0
	for i, m := range machines {
		score := f.score(ph, m)
		if i == 0 || score < bestScore {
			best, bestScore = i, score
		}
	}
	return machines[best].Index
}

// score is the predicted unfairness of the machine's residents plus the
// newcomer under full-LLC sharing on the machine's own platform,
// inflated by the queue depth when the machine has no free core (the
// newcomer would wait, and everyone ahead of it makes the wait longer).
func (f *FairnessAware) score(ph *appmodel.PhaseSpec, m MachineState) float64 {
	pe := f.evalFor(m.Plat)
	var unfairness float64
	unfairness, f.sds = pe.predictedUnfairness(m.Phases, ph, f.sds)
	if m.Load() >= m.Cores {
		unfairness *= float64(2 + m.Queued)
	}
	return unfairness
}

// predictedUnfairness evaluates the machine's residents plus one
// newcomer under full-LLC sharing on this platform and returns the
// predicted unfairness (max/min slowdown ratio) — the scoring core
// shared by the fairness-aware placement and the cost-aware migration
// policy. sds is the caller's scratch slice, returned so it can be
// reused across calls.
func (pe *platformEval) predictedUnfairness(residents []*appmodel.PhaseSpec, ph *appmodel.PhaseSpec, sds []float64) (float64, []float64) {
	pe.scratch = pe.scratch[:0]
	for i, resident := range residents {
		pe.scratch = append(pe.scratch, sharing.App{ID: i, Phase: resident, Mask: pe.fullMask})
	}
	pe.scratch = append(pe.scratch, sharing.App{ID: len(residents), Phase: ph, Mask: pe.fullMask})

	pe.res = pe.eval.EvaluateInto(pe.res, pe.scratch)
	sds = sds[:0]
	for i, a := range pe.scratch {
		sds = append(sds, pe.alone(a.Phase)/pe.res[i].Perf.IPC)
	}
	lo, hi := sds[0], sds[0]
	for _, s := range sds[1:] {
		if s < lo {
			lo = s
		}
		if s > hi {
			hi = s
		}
	}
	return hi / lo, sds
}

// NewPlacement constructs a placement policy by name: "rr"/"roundrobin",
// "least"/"leastloaded", or "fair"/"fairness". plat is needed only by
// the fairness-aware policy (the fleet's reference platform; candidate
// machines are scored on their own MachineState.Plat).
func NewPlacement(name string, plat *machine.Platform) (Policy, error) {
	switch name {
	case "rr", "roundrobin":
		return NewRoundRobin(), nil
	case "least", "leastloaded":
		return NewLeastLoaded(), nil
	case "fair", "fairness":
		if plat == nil {
			return nil, fmt.Errorf("cluster: fairness-aware placement needs a platform")
		}
		return NewFairnessAware(plat), nil
	default:
		return nil, fmt.Errorf("cluster: unknown placement %q (want rr, least or fair)", name)
	}
}
