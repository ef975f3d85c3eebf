package sim

import (
	"fmt"

	"github.com/faircache/lfoc/internal/appmodel"
)

// Resident is one application lifted out of a machine by a lifecycle
// extraction — the unit of migration between cluster machines. It
// carries the complete progress coordinate (instructions retired this
// run, phase position, accumulated alone-clock) plus the original
// arrival/admission times, so an application injected elsewhere resumes
// exactly where it stopped and its end-of-life slowdown and wait span
// both machines. The run quota is not carried: the destination derives
// it from its own Config.TargetInsns (RunQuota), as on admission.
//
// Monitoring state deliberately does NOT migrate: hardware counters and
// the partitioning policy's learned class live on the source machine's
// resctrl-style state, so the destination sees a fresh process and
// re-learns the class — exactly what a real migration looks like to a
// per-machine LFOC.
type Resident struct {
	Spec *appmodel.Spec
	// Attempts counts lifecycle placements so far (scenario.Arrival.Tag):
	// 0 for an app on its first machine, incremented by the cluster layer
	// on every failure-driven requeue.
	Attempts int
	// ArrivedAt is the original trace arrival time; AdmittedAt the
	// original admission (negative if the app was still queued); both are
	// preserved across migrations so waits and slowdowns stay end-to-end.
	ArrivedAt  float64
	AdmittedAt float64
	// Queued marks an application that held no core yet (admission queue
	// or undelivered arrival): it has no progress to preserve and can
	// only be requeued, never migrated live.
	Queued bool
	// Progress coordinate (zero for queued residents).
	RunInsns     uint64
	PhaseIndex   int
	IntoPhase    uint64
	AloneSeconds float64
	// RunStartAt is when the current run's quota started counting (the
	// cluster clock is global, so run durations span machines).
	RunStartAt float64
}

// extractResidents lifts every application out of the kernel: actives
// in slot order (marked evicted — they neither departed nor remain),
// then the admission queue FIFO, then undelivered arrivals in time
// order. The kernel is left empty; the caller is expected to halt it.
func (k *kernel) extractResidents(dst []Resident) []Resident {
	for _, a := range k.actives {
		if !a.active {
			continue
		}
		dst = append(dst, Resident{
			Spec:         a.spec,
			Attempts:     a.tag,
			ArrivedAt:    a.arrivedAt,
			AdmittedAt:   a.admittedAt,
			RunInsns:     a.runInsns,
			PhaseIndex:   a.inst.PhaseIndex(),
			IntoPhase:    a.inst.IntoPhase(),
			AloneSeconds: a.aloneT,
			RunStartAt:   a.runStart,
		})
		a.active = false
		a.evicted = true
		k.nActive--
		k.activesDirty = true
		k.pol.RemoveApp(a.monID)
	}
	for _, arr := range k.waitQ {
		dst = append(dst, Resident{
			Spec:       arr.Spec,
			Attempts:   arr.Tag,
			ArrivedAt:  arr.Time,
			AdmittedAt: -1,
			Queued:     true,
		})
	}
	k.waitQ = nil
	for _, arr := range k.arrivals[k.arrIdx:] {
		dst = append(dst, Resident{
			Spec:       arr.Spec,
			Attempts:   arr.Tag,
			ArrivedAt:  arr.Time,
			AdmittedAt: -1,
			Queued:     true,
		})
	}
	k.arrivals = k.arrivals[:k.arrIdx]
	k.compactActives()
	k.perfDirty = true
	return dst
}

// injectResident admits a migrated application, restoring its progress
// coordinate. The policy sees a brand-new process (fresh monitoring id,
// zeroed counters) — monitoring state does not migrate, see Resident.
func (k *kernel) injectResident(r Resident) error {
	if r.Queued {
		return fmt.Errorf("sim: a queued resident has no progress to migrate — requeue it")
	}
	if k.nActive >= k.cfg.Plat.Cores {
		return fmt.Errorf("sim: no free core for migrated %s", r.Spec.Name)
	}
	inst := appmodel.NewInstance(r.Spec)
	if err := inst.SeekTo(r.PhaseIndex, r.IntoPhase, r.RunInsns); err != nil {
		return err
	}
	err := k.addSlot(&kernelApp{
		spec:       r.Spec,
		inst:       inst,
		tag:        r.Attempts,
		arrivedAt:  r.ArrivedAt,
		admittedAt: r.AdmittedAt,
		runStart:   r.RunStartAt,
		runInsns:   r.RunInsns,
		aloneT:     r.AloneSeconds,
	})
	if err != nil {
		return err
	}
	// Injection happens between runUntil calls, so the post-admission
	// mask refresh the arrival path gets from its loop must run here.
	return k.refreshMasks()
}

// ExtractResidents appends every application on the machine — actives
// in slot order, then the admission queue FIFO, then undelivered
// arrivals — to dst and returns it, leaving the machine empty. Extracted
// actives are reported as evicted in the machine's result (neither
// departed nor remaining); queued residents vanish from this machine
// entirely (they never ran here — the lifecycle layer re-places them).
// Call at a placement point (between AdvanceTo calls), typically right
// before Halt.
func (m *OpenMachine) ExtractResidents(dst []Resident) []Resident {
	return m.k.extractResidents(dst)
}

// InjectResident admits a migrated application with its progress
// restored (see Resident). The machine must have a free core and must
// have been advanced to the migration instant; queued residents cannot
// be injected — requeue them through normal placement instead.
func (m *OpenMachine) InjectResident(r Resident) error {
	if m.err != nil {
		return m.err
	}
	if m.halted {
		return fmt.Errorf("sim: inject resident on halted %q", m.name)
	}
	return m.k.injectResident(r)
}

// Halt takes the machine out of service immediately: the arrival stream
// is marked drained and the trailing metrics window closes at the
// current time, so the machine's series ends exactly at the halt
// instant. Halting is idempotent; a halted machine no-ops AdvanceTo and
// Drain, letting the fleet pool treat up and down machines uniformly.
// Extract residents first — Halt does not run the system empty.
func (m *OpenMachine) Halt() {
	if m.halted {
		return
	}
	m.halted = true
	m.k.drained = true
	m.k.finish()
}

// Halted reports whether the machine has been taken out of service.
func (m *OpenMachine) Halted() bool { return m.halted }
