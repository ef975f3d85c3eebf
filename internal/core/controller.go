package core

import (
	"fmt"
	"sort"

	"github.com/faircache/lfoc/internal/cat"
	"github.com/faircache/lfoc/internal/plan"
	"github.com/faircache/lfoc/internal/pmc"
)

// Controller is the OS-resident LFOC runtime: it owns per-application
// monitoring state, serializes sampling episodes, applies the §4.2
// phase-change heuristics, and periodically re-runs Algorithm 1.
//
// The embedding runtime (internal/sim, or a real kernel shim) drives it
// with three calls:
//
//   - WindowInsns(id) tells the runtime how many instructions to let the
//     application retire before the next counter read (100M in normal
//     mode, 10M while the app is being sampled);
//   - OnWindow(id, sample) delivers a completed counter window; the
//     return value says whether the CAT configuration changed;
//   - Reconfigure() is the periodic partitioner activation (every 500ms
//     in the paper's setup).
//
// Assignment() exposes the CAT masks the controller currently wants.
// All internal arithmetic is integer/fixed-point.
//
// Reconfigure is memoized: Partition is a pure function of the state
// that stale tracks, so skipping a rerun never changes a decision.
// Assignment renders the masks anew on every call, into the one map the
// controller owns.
type Controller struct {
	params Params
	// wayBytes is needed to compare CMT occupancy readings against a
	// sensitive app's critical size.
	wayBytes uint64

	apps  map[int]*appState
	order []int // sorted ids for deterministic iteration
	// free holds removed apps' states, which AddApp recycles with their
	// buffers. It is never serialized; a restored controller starts
	// with none.
	free []*appState

	sampleQueue    []int
	activeSampling int // app id, or -1

	current plan.Plan
	have    bool
	// stale marks that an input of Partition changed since rebuildPlan
	// last ran it.
	stale bool
	// part and infos are rebuildPlan's reusable scratch; current
	// aliases part's buffers.
	part  Partitioner
	infos []AppInfo

	// masks is the map Assignment rewrites and returns.
	masks map[int]cat.WayMask
}

// appState is one application's learned and monitoring state. It owns
// the storage of its sampling episodes: sampling and profile are nil or
// point at ownSampling and ownProfile, which each episode restarts and
// rebuilds in place, so an episode allocates nothing once the app's
// buffers have grown. That is safe because only rebuildPlan passes the
// profile pointer on (in AppInfo) and the Partitioner keeps it only
// until its next call; every other profile (policy.ProfileFromTable,
// LFOCStatic, Table 2, FairnessAware.classOf) is its own NewProfile.
// The rebuild runs at the end of an episode, before rebuildPlan, so
// Partition never reads a half-built table.
type appState struct {
	id           int
	class        Class
	profile      *Profile
	criticalWays int
	warmupLeft   int
	mpkcHist     *pmc.History
	stallHist    *pmc.History
	sampling     *SamplingState
	queued       bool
	resamples    int

	ownSampling SamplingState
	ownProfile  Profile
}

// NewController creates a controller. wayBytes is the platform's per-way
// LLC capacity (for CMT-based critical-size checks).
func NewController(params Params, wayBytes uint64) (*Controller, error) {
	if params.NrWays < 2 {
		return nil, fmt.Errorf("core: controller needs at least 2 ways, got %d", params.NrWays)
	}
	if wayBytes == 0 {
		return nil, fmt.Errorf("core: wayBytes must be positive")
	}
	return &Controller{
		params:         params,
		wayBytes:       wayBytes,
		apps:           map[int]*appState{},
		activeSampling: -1,
		masks:          map[int]cat.WayMask{},
	}, nil
}

// AddApp registers a newly spawned application (class unknown, warm-up
// pending).
func (c *Controller) AddApp(id int) error {
	if _, dup := c.apps[id]; dup {
		return fmt.Errorf("core: app %d already registered", id)
	}
	c.apps[id] = c.newAppState(id)
	c.order = append(c.order, id)
	sort.Ints(c.order)
	// have stays set: the plan keeps omitting the new app (it runs
	// under the full mask) until the next activation reruns Algorithm 1.
	c.stale = true
	return nil
}

// newAppState returns the state of a newly registered application. It
// recycles a removed app's state when there is one: every field starts
// over, and only the history, sample and profile buffers are kept.
func (c *Controller) newAppState(id int) *appState {
	var st *appState
	if n := len(c.free); n > 0 {
		st = c.free[n-1]
		c.free[n-1] = nil
		c.free = c.free[:n-1]
		st.mpkcHist.Reset()
		st.stallHist.Reset()
	} else {
		st = &appState{
			mpkcHist:  pmc.NewHistory(c.params.HistoryLen),
			stallHist: pmc.NewHistory(c.params.HistoryLen),
		}
	}
	*st = appState{
		id:          id,
		class:       ClassUnknown,
		warmupLeft:  c.params.WarmupIntervals,
		mpkcHist:    st.mpkcHist,
		stallHist:   st.stallHist,
		ownSampling: SamplingState{samples: st.ownSampling.samples[:0]},
		ownProfile:  Profile{ipc: st.ownProfile.ipc[:0], mpkc: st.ownProfile.mpkc[:0]},
	}
	return st
}

// RemoveApp deregisters an application.
func (c *Controller) RemoveApp(id int) {
	if c.activeSampling == id {
		c.activeSampling = -1
	}
	if st, ok := c.apps[id]; ok {
		delete(c.apps, id)
		c.free = append(c.free, st)
	}
	for i, v := range c.order {
		if v == id {
			c.order = append(c.order[:i], c.order[i+1:]...)
			break
		}
	}
	q := c.sampleQueue[:0]
	for _, v := range c.sampleQueue {
		if v != id {
			q = append(q, v)
		}
	}
	c.sampleQueue = q
	c.have = false // the next Plan, Assignment or activation reruns Algorithm 1
}

// ClassOf returns the current classification of an application.
func (c *Controller) ClassOf(id int) Class {
	if st, ok := c.apps[id]; ok {
		return st.class
	}
	return ClassUnknown
}

// Resamples returns how many sampling episodes the application has
// triggered after its initial one (phase-change detections).
func (c *Controller) Resamples(id int) int {
	if st, ok := c.apps[id]; ok {
		return st.resamples
	}
	return 0
}

// SamplingActive returns the id of the application currently being
// sampled, or -1.
func (c *Controller) SamplingActive() int { return c.activeSampling }

// WindowInsns returns the instruction window the runtime should use
// before the next counter delivery for this application.
func (c *Controller) WindowInsns(id int) uint64 {
	if c.activeSampling == id {
		return c.params.SamplingWindowInsns
	}
	return c.params.NormalWindowInsns
}

// OnWindow delivers one completed counter window. The return value
// reports whether the desired CAT configuration changed.
//
//lfoc:hotpath
func (c *Controller) OnWindow(id int, w pmc.Sample) bool {
	st, ok := c.apps[id]
	if !ok {
		return false
	}

	// Warm-up: discard the first intervals entirely (§4.1).
	if st.warmupLeft > 0 {
		st.warmupLeft--
		if st.warmupLeft == 0 && st.class == ClassUnknown {
			c.enqueueSampling(st)
			return c.maybeStartSampling()
		}
		return false
	}

	if c.activeSampling == id {
		return c.onSamplingWindow(st, w)
	}
	return c.onNormalWindow(st, w)
}

// onSamplingWindow advances the active sweep. At its end, the app's
// profile is rebuilt in place from the sweep.
//
//lfoc:hotpath
func (c *Controller) onSamplingWindow(st *appState, w pmc.Sample) bool {
	done := st.sampling.Record(w.IPC(), w.LLCMPKC())
	if !done {
		return true // sampling partition grew
	}
	st.ownProfile.rebuild(c.params.NrWays, st.sampling.samples)
	st.profile = &st.ownProfile
	st.class = Classify(st.profile, &c.params)
	st.criticalWays = st.profile.CriticalWays(c.params.CriticalSlowdown)
	st.sampling = nil
	st.mpkcHist.Reset()
	st.stallHist.Reset()
	c.activeSampling = -1
	c.stale = true
	c.rebuildPlan()
	c.maybeStartSampling()
	return true
}

// onNormalWindow updates monitoring state and runs the phase-change
// heuristics of §4.2.
//
//lfoc:hotpath
func (c *Controller) onNormalWindow(st *appState, w pmc.Sample) bool {
	st.mpkcHist.Push(w.LLCMPKC())
	st.stallHist.Push(w.StallFraction())
	if st.queued || !st.mpkcHist.Full() {
		return false
	}
	mpkc := st.mpkcHist.Mean()
	stall := st.stallHist.Mean()
	trigger := false
	switch st.class {
	case ClassLight, ClassUnknown:
		// A light app entering a memory-intensive phase.
		trigger = mpkc > c.params.HighThresholdMPKC || stall > c.params.StallFracThreshold
	case ClassStreaming:
		// A streaming app going quiet.
		trigger = mpkc < c.params.LowThresholdMPKC
	case ClassSensitive:
		criticalBytes := uint64(st.criticalWays) * c.wayBytes
		occ := w.OccupancyBytes
		quiet := mpkc < c.params.LowThresholdMPKC && stall < c.params.StallFracThreshold
		if quiet && occ < criticalBytes {
			// Stable non-memory-intensive phase below the critical size.
			trigger = true
		} else if mpkc > c.params.HighThresholdMPKC && occ >= criticalBytes {
			// Memory intensive despite having its critical size.
			trigger = true
		}
	}
	if trigger {
		st.resamples++
		c.enqueueSampling(st)
		return c.maybeStartSampling()
	}
	return false
}

// enqueueSampling queues st for a sampling episode unless it is
// already queued or being sampled.
//
//lfoc:hotpath
func (c *Controller) enqueueSampling(st *appState) {
	if st.queued || c.activeSampling == st.id {
		return
	}
	st.queued = true
	c.sampleQueue = append(c.sampleQueue, st.id)
}

// maybeStartSampling starts the next queued episode if none is active.
// It returns true when the CAT configuration changed. The queue pops by
// shifting in place, so the appends of enqueueSampling reuse its
// capacity.
//
//lfoc:hotpath
func (c *Controller) maybeStartSampling() bool {
	if c.activeSampling >= 0 || len(c.sampleQueue) == 0 {
		return false
	}
	id := c.sampleQueue[0]
	c.sampleQueue = c.sampleQueue[:copy(c.sampleQueue, c.sampleQueue[1:])]
	st, ok := c.apps[id]
	if !ok {
		return c.maybeStartSampling()
	}
	st.queued = false
	st.ownSampling.restart(&c.params)
	st.sampling = &st.ownSampling
	st.mpkcHist.Reset()
	st.stallHist.Reset()
	c.activeSampling = id
	return true
}

// Reconfigure is the periodic partitioner activation. It returns the
// (possibly updated) plan, which is valid until the controller's next
// call.
//
//lfoc:hotpath
func (c *Controller) Reconfigure() plan.Plan {
	c.rebuildPlan()
	c.maybeStartSampling()
	return c.current
}

// rebuildPlan reruns Algorithm 1 over the current classifications,
// unless none of them changed since its last run.
//
//lfoc:hotpath
func (c *Controller) rebuildPlan() {
	if c.have && !c.stale {
		return
	}
	c.stale = false
	var p plan.Plan
	if len(c.order) > 0 {
		c.infos = c.infos[:0]
		for _, id := range c.order {
			st := c.apps[id]
			c.infos = append(c.infos, AppInfo{ID: id, Class: st.class, Profile: st.profile})
		}
		var err error
		if p, err = c.part.Partition(c.infos, &c.params); err != nil {
			p = c.fallbackPlan()
		}
	}
	c.current = p
	c.have = true
}

// fallbackPlan is the degenerate plan: one cluster with everything.
// Partition only fails on structurally impossible inputs; never leave
// the machine without a configuration.
func (c *Controller) fallbackPlan() plan.Plan {
	p := plan.SingleCluster(len(c.order), c.params.NrWays)
	for ci := range p.Clusters {
		p.Clusters[ci].Apps = append([]int(nil), c.order...)
	}
	return p
}

// Plan returns the last plan produced by Reconfigure/rebuildPlan. It is
// valid until the controller's next call.
func (c *Controller) Plan() plan.Plan {
	if !c.have {
		c.rebuildPlan()
	}
	return c.current
}

// Assignment returns the CAT mask every application should run under
// right now: the sampling layout while an episode is active, otherwise
// the masks of the current plan. The map is rewritten by every call; the
// caller must not modify it.
//
//lfoc:hotpath
func (c *Controller) Assignment() (map[int]cat.WayMask, error) {
	if c.activeSampling >= 0 {
		sampleMask, restMask, err := cat.SamplingLayout(c.apps[c.activeSampling].sampling.CurrentWays(), c.params.NrWays)
		if err != nil {
			return nil, err
		}
		clear(c.masks)
		for _, id := range c.order {
			if id == c.activeSampling {
				c.masks[id] = sampleMask
			} else {
				c.masks[id] = restMask
			}
		}
		return c.masks, nil
	}
	if !c.have {
		c.rebuildPlan()
	}
	if err := c.current.MasksInto(c.masks, c.params.NrWays); err != nil {
		return nil, err
	}
	return c.masks, nil
}
