package sim

import (
	"encoding/json"
	"fmt"

	"github.com/faircache/lfoc/internal/appmodel"
	"github.com/faircache/lfoc/internal/metrics"
	"github.com/faircache/lfoc/internal/pmc"
	"github.com/faircache/lfoc/internal/sim/scenario"
)

// PolicySnapshotter is the optional Dynamic refinement checkpointing
// requires: a policy that can serialize its learned state (classes,
// histories, sampling episodes, current plan) and later rebuild it on a
// fresh instance constructed with the same parameters. Restoring on a
// same-parameter instance and re-rendering Assignment() must reproduce
// the pre-snapshot masks exactly — that is what makes a resumed machine
// bit-identical to an uninterrupted one. Policies without it are
// rejected up-front with *SnapshotUnsupportedError when a run is
// configured to checkpoint.
type PolicySnapshotter interface {
	// PolicySnapshot serializes the policy's dynamic state.
	PolicySnapshot() ([]byte, error)
	// PolicyRestore rebuilds the dynamic state on a freshly constructed
	// policy with identical construction parameters.
	PolicyRestore(data []byte) error
}

// SnapshotUnsupportedError reports a policy (partitioning or placement)
// that cannot participate in checkpointing because it does not
// implement the relevant snapshotter interface.
type SnapshotUnsupportedError struct {
	// What names the offending component, e.g. the policy type.
	What string
}

func (e *SnapshotUnsupportedError) Error() string {
	return fmt.Sprintf("sim: %s does not support checkpointing (no snapshotter interface)", e.What)
}

// AppSnapshot is one application slot's serialized state: everything
// admit/advance wrote that is not a pure function of (config, spec,
// policy state). Float fields round-trip bit-exactly through JSON
// (shortest-representation encoding); derived state — the contention
// equilibrium, per-tick step grids, alone-rate memos — is deliberately
// omitted and rederived on restore, which is exact because each is a
// pure function of the serialized coordinate.
type AppSnapshot struct {
	Slot  int            `json:"slot"`
	MonID int            `json:"mon_id"`
	Spec  *appmodel.Spec `json:"spec"`

	// Progress coordinate of the appmodel instance.
	PhaseIndex int    `json:"phase_index"`
	IntoPhase  uint64 `json:"into_phase"`
	TotalInsns uint64 `json:"total_insns"`

	Counter  pmc.CounterSnapshot `json:"counter"`
	NextWin  uint64              `json:"next_win"`
	RunInsns uint64              `json:"run_insns"`
	Quota    uint64              `json:"quota"`
	RunStart float64             `json:"run_start"`
	Runs     []float64           `json:"runs,omitempty"`

	FracInsns  float64 `json:"frac_insns"`
	FracCycles float64 `json:"frac_cycles"`
	FracMiss   float64 `json:"frac_miss"`
	FracStall  float64 `json:"frac_stall"`

	Active     bool    `json:"active"`
	Evicted    bool    `json:"evicted,omitempty"`
	Tag        int     `json:"tag,omitempty"`
	ArrivedAt  float64 `json:"arrived_at"`
	AdmittedAt float64 `json:"admitted_at"`
	DepartedAt float64 `json:"departed_at"`
	AloneT     float64 `json:"alone_t"`
}

// MachineSnapshot is the complete advancement coordinate of one
// OpenMachine: restoring it on a fresh machine with the identical
// Config and a same-parameter policy resumes the trajectory exactly
// where it stopped — the subsequent operation sequence is the one the
// uninterrupted run would have executed (runUntil's pause-point
// invariance), so results are reflect.DeepEqual to a never-interrupted
// run.
type MachineSnapshot struct {
	Name    string  `json:"name"`
	Horizon float64 `json:"horizon"`
	Halted  bool    `json:"halted,omitempty"`
	Drained bool    `json:"drained,omitempty"`

	SimTime      float64 `json:"sim_time"`
	NextPolicy   float64 `json:"next_policy"`
	Repartitions int     `json:"repartitions"`
	NextMonID    int     `json:"next_mon_id"`
	Peak         int     `json:"peak"`

	Apps []AppSnapshot `json:"apps"`
	// RunCounts[i] is len(Apps[i].Runs).
	RunCounts []int              `json:"run_counts"`
	WaitQ     []scenario.Arrival `json:"wait_q,omitempty"`
	// Pending holds the injected arrivals not yet delivered.
	Pending []scenario.Arrival `json:"pending,omitempty"`

	// Series is the metric-window history, packed: it is most of a
	// long run's snapshot.
	Series   metrics.PackedWindowedSeries `json:"series"`
	WinStart float64                      `json:"win_start"`
	WinArr   int                          `json:"win_arr"`
	WinDep   int                          `json:"win_dep"`
	WinRuns  int                          `json:"win_runs"`

	// Policy is the partitioning policy's PolicySnapshot payload
	// (JSON, kept raw so checkpoint files stay human-readable).
	Policy json.RawMessage `json:"policy,omitempty"`
}

// Snapshot captures the machine's full advancement coordinate. The
// machine must be error-free (a canceled advance is not an error — the
// cancel sentinel never sticks) and its policy must implement
// PolicySnapshotter. The snapshot shares no mutable state with the
// machine, which can keep advancing while the snapshot is marshaled.
func (m *OpenMachine) Snapshot() (*MachineSnapshot, error) {
	if m.err != nil {
		return nil, fmt.Errorf("sim: snapshot of failed machine %q: %w", m.name, m.err)
	}
	ps, ok := m.k.pol.(PolicySnapshotter)
	if !ok {
		return nil, &SnapshotUnsupportedError{What: fmt.Sprintf("partitioning policy %T", m.k.pol)}
	}
	polState, err := ps.PolicySnapshot()
	if err != nil {
		return nil, fmt.Errorf("sim: snapshot policy on %q: %w", m.name, err)
	}
	k := m.k
	snap := &MachineSnapshot{
		Name:         m.name,
		Horizon:      k.doneAt,
		Halted:       m.halted,
		Drained:      k.drained,
		SimTime:      k.simTime,
		NextPolicy:   k.nextPolicy,
		Repartitions: k.repartitions,
		NextMonID:    k.nextMonID,
		Peak:         k.peak,
		Apps:         make([]AppSnapshot, len(k.apps)),
		RunCounts:    make([]int, len(k.apps)),
		WaitQ:        append([]scenario.Arrival(nil), k.waitQ...),
		Pending:      append([]scenario.Arrival(nil), k.arrivals[k.arrIdx:]...),
		Series:       k.series.Pack(),
		WinStart:     k.winStart,
		WinArr:       k.winArr,
		WinDep:       k.winDep,
		WinRuns:      k.winRuns,
		Policy:       polState,
	}
	for i, a := range k.apps {
		snap.RunCounts[i] = len(a.runs)
		snap.Apps[i] = AppSnapshot{
			Slot:       a.slot,
			MonID:      a.monID,
			Spec:       a.spec,
			PhaseIndex: a.inst.PhaseIndex(),
			IntoPhase:  a.inst.IntoPhase(),
			TotalInsns: a.inst.TotalInstructions(),
			Counter:    a.counter.Snapshot(),
			NextWin:    a.nextWin,
			RunInsns:   a.runInsns,
			Quota:      a.quota,
			RunStart:   a.runStart,
			Runs:       append([]float64(nil), a.runs...),
			FracInsns:  a.fracInsns,
			FracCycles: a.fracCycles,
			FracMiss:   a.fracMiss,
			FracStall:  a.fracStall,
			Active:     a.active,
			Evicted:    a.evicted,
			Tag:        a.tag,
			ArrivedAt:  a.arrivedAt,
			AdmittedAt: a.admittedAt,
			DepartedAt: a.departedAt,
			AloneT:     a.aloneT,
		}
	}
	return snap, nil
}

// RestoreMachine rebuilds an OpenMachine from a snapshot. cfg must be
// the configuration the snapshot was taken under (the checkpoint layer
// stores enough to cross-check, not the config itself — platform model
// parameters are code, not data) and pol a freshly constructed policy
// with the same parameters; pol must implement PolicySnapshotter.
//
// Everything not serialized is rederived: the contention equilibrium
// and CAT masks refresh from the restored policy state before the first
// advance, per-app step grids and alone-rate memos rebuild lazily on
// the first tick, and all of those are pure functions of the restored
// coordinate — which is why the resumed trajectory is bit-identical.
func RestoreMachine(cfg Config, pol Dynamic, snap *MachineSnapshot) (*OpenMachine, error) {
	if snap == nil {
		return nil, fmt.Errorf("sim: nil machine snapshot")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	ps, ok := pol.(PolicySnapshotter)
	if !ok {
		return nil, &SnapshotUnsupportedError{What: fmt.Sprintf("partitioning policy %T", pol)}
	}
	cfg.MetricsWindow = cfg.EffectiveMetricsWindow()
	k, err := newKernel(cfg, pol, nil, nil)
	if err != nil {
		return nil, err
	}
	k.doneAt = snap.Horizon
	k.drained = snap.Drained
	if len(snap.RunCounts) != len(snap.Apps) {
		return nil, fmt.Errorf("sim: snapshot %q has %d run counts for %d apps",
			snap.Name, len(snap.RunCounts), len(snap.Apps))
	}
	nActive := 0
	k.apps = make([]*kernelApp, 0, len(snap.Apps))
	k.actives = k.actives[:0]
	for i, s := range snap.Apps {
		if s.Spec == nil {
			return nil, fmt.Errorf("sim: snapshot app %d without a spec", i)
		}
		if err := s.Spec.Validate(); err != nil {
			return nil, err
		}
		if s.Slot != i {
			return nil, fmt.Errorf("sim: snapshot app %d claims slot %d", i, s.Slot)
		}
		inst := appmodel.NewInstance(s.Spec)
		if err := inst.SeekTo(s.PhaseIndex, s.IntoPhase, s.TotalInsns); err != nil {
			return nil, fmt.Errorf("sim: snapshot app %d: %w", i, err)
		}
		a := &kernelApp{
			slot:       s.Slot,
			monID:      s.MonID,
			spec:       s.Spec,
			inst:       inst,
			nextWin:    s.NextWin,
			runInsns:   s.RunInsns,
			quota:      s.Quota,
			runStart:   s.RunStart,
			runs:       append([]float64(nil), s.Runs...),
			fracInsns:  s.FracInsns,
			fracCycles: s.FracCycles,
			fracMiss:   s.FracMiss,
			fracStall:  s.FracStall,
			active:     s.Active,
			evicted:    s.Evicted,
			tag:        s.Tag,
			arrivedAt:  s.ArrivedAt,
			admittedAt: s.AdmittedAt,
			departedAt: s.DepartedAt,
			aloneT:     s.AloneT,
			stepsDirty: true,
		}
		a.counter.Restore(s.Counter)
		k.apps = append(k.apps, a)
		if a.active {
			// actives holds the active subset in slot order; appending in
			// snapshot order preserves the invariant.
			k.actives = append(k.actives, a)
			nActive++
		}
	}
	if nActive > cfg.Plat.Cores {
		return nil, fmt.Errorf("sim: snapshot %q has %d active apps for %d cores",
			snap.Name, nActive, cfg.Plat.Cores)
	}
	k.activesDirty = false
	k.nActive = nActive
	k.nextMonID = snap.NextMonID
	k.peak = snap.Peak
	for _, arrs := range [][]scenario.Arrival{snap.WaitQ, snap.Pending} {
		for _, arr := range arrs {
			if err := ValidateArrival(arr); err != nil {
				return nil, fmt.Errorf("sim: snapshot %q: %w", snap.Name, err)
			}
		}
	}
	k.waitQ = append([]scenario.Arrival(nil), snap.WaitQ...)
	k.arrivals = append([]scenario.Arrival(nil), snap.Pending...)
	k.arrIdx = 0
	if k.collect && len(snap.Series.Points) > 0 && snap.Series.Width != k.series.Width {
		return nil, fmt.Errorf("sim: snapshot %q collected %vs metric windows, config says %vs — resume must use the original config",
			snap.Name, snap.Series.Width, k.series.Width)
	}
	k.simTime = snap.SimTime
	k.nextPolicy = snap.NextPolicy
	k.repartitions = snap.Repartitions
	width := k.series.Width
	k.series = snap.Series.Unpack()
	if k.series.Width == 0 {
		k.series.Width = width
	}
	k.winStart = snap.WinStart
	k.winArr = snap.WinArr
	k.winDep = snap.WinDep
	k.winRuns = snap.WinRuns
	k.perfDirty = true
	if err := ps.PolicyRestore(snap.Policy); err != nil {
		return nil, fmt.Errorf("sim: restore policy on %q: %w", snap.Name, err)
	}
	if err := k.refreshMasks(); err != nil {
		return nil, err
	}
	return &OpenMachine{k: k, name: snap.Name, halted: snap.Halted}, nil
}
