package core

import (
	"encoding/json"
	"fmt"

	fp "github.com/faircache/lfoc/internal/fixedpoint"
	"github.com/faircache/lfoc/internal/plan"
)

// The controller's checkpoint support implements sim.PolicySnapshotter:
// PolicySnapshot serializes every piece of learned state — per-app
// classes, profiles, monitoring histories, in-flight sampling episodes,
// the sampling queue, and the current plan — and PolicyRestore rebuilds
// it on a freshly constructed controller with the same Params. All
// values are integers or fixed-point (int64), so the JSON round-trip is
// exact and a restored controller's Assignment() renders the identical
// masks.

// profileSnapshot is the raw profile table. It is serialized verbatim
// rather than rebuilt from sweep samples because NewProfile's gap
// extrapolation is lossy: two different sample sets can produce the
// same table, but only the table itself determines future decisions.
type profileSnapshot struct {
	NrWays int        `json:"nr_ways"`
	IPC    []fp.Value `json:"ipc"`
	MPKC   []fp.Value `json:"mpkc"`
	MaxW   int        `json:"max_w"`
}

// samplingSnapshot is an in-flight sampling episode. The params pointer
// re-binds to the restored controller's own Params.
type samplingSnapshot struct {
	Ways      int             `json:"ways"`
	Samples   []ProfileSample `json:"samples,omitempty"`
	FlatSteps int             `json:"flat_steps"`
	Done      bool            `json:"done"`
}

type appSnapshot struct {
	ID           int               `json:"id"`
	Class        int               `json:"class"`
	Profile      *profileSnapshot  `json:"profile,omitempty"`
	CriticalWays int               `json:"critical_ways"`
	WarmupLeft   int               `json:"warmup_left"`
	MPKCHist     []fp.Value        `json:"mpkc_hist,omitempty"`
	StallHist    []fp.Value        `json:"stall_hist,omitempty"`
	Sampling     *samplingSnapshot `json:"sampling,omitempty"`
	Queued       bool              `json:"queued,omitempty"`
	Resamples    int               `json:"resamples,omitempty"`
}

type controllerSnapshot struct {
	Apps           []appSnapshot `json:"apps"`
	SampleQueue    []int         `json:"sample_queue,omitempty"`
	ActiveSampling int           `json:"active_sampling"`
	Current        plan.Plan     `json:"current"`
	Have           bool          `json:"have"`
}

// PolicySnapshot implements sim.PolicySnapshotter.
func (c *Controller) PolicySnapshot() ([]byte, error) {
	snap := controllerSnapshot{
		Apps:           make([]appSnapshot, 0, len(c.order)),
		SampleQueue:    append([]int(nil), c.sampleQueue...),
		ActiveSampling: c.activeSampling,
		Current:        c.current,
		Have:           c.have,
	}
	for _, id := range c.order {
		st := c.apps[id]
		a := appSnapshot{
			ID:           st.id,
			Class:        int(st.class),
			CriticalWays: st.criticalWays,
			WarmupLeft:   st.warmupLeft,
			MPKCHist:     st.mpkcHist.Values(),
			StallHist:    st.stallHist.Values(),
			Queued:       st.queued,
			Resamples:    st.resamples,
		}
		if st.profile != nil {
			a.Profile = &profileSnapshot{
				NrWays: st.profile.nrWays,
				IPC:    append([]fp.Value(nil), st.profile.ipc...),
				MPKC:   append([]fp.Value(nil), st.profile.mpkc...),
				MaxW:   st.profile.maxW,
			}
		}
		if st.sampling != nil {
			a.Sampling = &samplingSnapshot{
				Ways:      st.sampling.ways,
				Samples:   append([]ProfileSample(nil), st.sampling.samples...),
				FlatSteps: st.sampling.flatSteps,
				Done:      st.sampling.done,
			}
		}
		snap.Apps = append(snap.Apps, a)
	}
	return json.Marshal(snap)
}

// PolicyRestore implements sim.PolicySnapshotter. The controller must
// be freshly constructed with the Params the snapshot was taken under.
func (c *Controller) PolicyRestore(data []byte) error {
	if len(c.apps) != 0 {
		return fmt.Errorf("core: restore into a controller that already has %d apps", len(c.apps))
	}
	var snap controllerSnapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		return fmt.Errorf("core: restore controller: %w", err)
	}
	c.order = c.order[:0]
	for _, a := range snap.Apps {
		if _, dup := c.apps[a.ID]; dup {
			return fmt.Errorf("core: restore: duplicate app %d", a.ID)
		}
		st := c.newAppState(a.ID)
		st.class = Class(a.Class)
		st.criticalWays = a.CriticalWays
		st.warmupLeft = a.WarmupLeft
		st.queued = a.Queued
		st.resamples = a.Resamples
		// Re-pushing oldest-first reproduces Mean, Last and the eviction
		// order exactly (Push is rotation-invariant); overlong snapshots
		// would silently drop readings, so reject them.
		if len(a.MPKCHist) > c.params.HistoryLen || len(a.StallHist) > c.params.HistoryLen {
			return fmt.Errorf("core: restore: app %d history exceeds HistoryLen %d", a.ID, c.params.HistoryLen)
		}
		for _, v := range a.MPKCHist {
			st.mpkcHist.Push(v)
		}
		for _, v := range a.StallHist {
			st.stallHist.Push(v)
		}
		// The restored profile and episode live in the app's own storage,
		// as a live app's do.
		if p := a.Profile; p != nil {
			if p.NrWays != c.params.NrWays || len(p.IPC) != p.NrWays+1 || len(p.MPKC) != p.NrWays+1 {
				return fmt.Errorf("core: restore: app %d profile sized for %d ways, params say %d", a.ID, p.NrWays, c.params.NrWays)
			}
			st.ownProfile = Profile{
				nrWays: p.NrWays,
				ipc:    append(st.ownProfile.ipc, p.IPC...),
				mpkc:   append(st.ownProfile.mpkc, p.MPKC...),
				maxW:   p.MaxW,
			}
			st.profile = &st.ownProfile
		}
		if s := a.Sampling; s != nil {
			st.ownSampling = SamplingState{
				params:    &c.params,
				ways:      s.Ways,
				samples:   append(st.ownSampling.samples, s.Samples...),
				flatSteps: s.FlatSteps,
				done:      s.Done,
			}
			st.sampling = &st.ownSampling
		}
		c.apps[a.ID] = st
		c.order = append(c.order, a.ID)
	}
	c.sampleQueue = append(c.sampleQueue[:0], snap.SampleQueue...)
	c.activeSampling = snap.ActiveSampling
	c.current = snap.Current
	c.have = snap.Have
	c.stale = true
	return nil
}
