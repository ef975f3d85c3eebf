package cluster

import (
	"container/heap"
	"fmt"

	"github.com/faircache/lfoc/internal/appmodel"
	"github.com/faircache/lfoc/internal/metrics"
	"github.com/faircache/lfoc/internal/sim"
)

// The lifecycle engine's checkpoint coordinate. The event heap itself is
// mostly regenerable: schedule() rebuilds the static timeline (declared
// events, the seeded MTBF failure process, autoscale ticks) with the
// identical (time, seq) keys, so the snapshot only records how many
// static events already fired — heap pops are monotone in (time, seq)
// and the fired statics are exactly the first StaticFired of the
// static-only order — plus the dynamically scheduled retries verbatim
// with their original sequence numbers. MTBF victims are counter-based
// draws (see victimDraw), so the victim stream's coordinate is the
// number of draws made.

// retrySnapshot is one in-flight failure retry: a dynamically scheduled
// timeline event. Seq is the event's original heap sequence number, so
// the restored heap reproduces the exact (time, seq) order.
type retrySnapshot struct {
	Time     float64        `json:"time"`
	Seq      int            `json:"seq"`
	Spec     *appmodel.Spec `json:"spec"`
	Attempts int            `json:"attempts"`
	Delay    float64        `json:"delay"`
}

// trackerSnapshot serializes the lifeTracker verbatim (window integrals
// included — a checkpoint can land mid-window).
type trackerSnapshot struct {
	Width    float64                       `json:"width"`
	Series   metrics.PackedLifecycleSeries `json:"series"`
	WinStart float64                       `json:"win_start"`
	LastT    float64                       `json:"last_t"`
	Up       int                           `json:"up"`
	Fleet    int                           `json:"fleet"`

	UpSec       float64 `json:"up_sec"`
	FleetSec    float64 `json:"fleet_sec"`
	TotUpSec    float64 `json:"tot_up_sec"`
	TotFleetSec float64 `json:"tot_fleet_sec"`
	TotMigLat   float64 `json:"tot_mig_lat"`
	TotReqLat   float64 `json:"tot_req_lat"`

	Joins  int `json:"joins"`
	Drains int `json:"drains"`
	Fails  int `json:"fails"`
	Migs   int `json:"migs"`
	Reqs   int `json:"reqs"`
	Dead   int `json:"dead"`
	Disr   int `json:"disr"`

	MigLat float64 `json:"mig_lat"`
	ReqLat float64 `json:"req_lat"`
}

// engineSnapshot is the lifecycle engine's full coordinate at an
// arrival-boundary pause point.
type engineSnapshot struct {
	Up       []bool    `json:"up"`
	JoinedAt []float64 `json:"joined_at"`
	DownAt   []float64 `json:"down_at"`
	FailedAt []bool    `json:"failed_at"`

	Parked []parkedArrival `json:"parked,omitempty"`

	LastSync    float64         `json:"last_sync"`
	Seq         int             `json:"seq"`
	StaticFired int             `json:"static_fired"`
	VictimCount uint64          `json:"victim_count,omitempty"`
	Retries     []retrySnapshot `json:"retries,omitempty"`

	Sum LifecycleSummary `json:"summary"`
	Trk trackerSnapshot  `json:"tracker"`
}

// snapshot captures the engine coordinate. Call only at the run loop's
// top (before the instant's event or arrival is processed).
func (e *engine) snapshot() *engineSnapshot {
	snap := &engineSnapshot{
		Up:          append([]bool(nil), e.up...),
		JoinedAt:    append([]float64(nil), e.joinedAt...),
		DownAt:      append([]float64(nil), e.downAt...),
		FailedAt:    append([]bool(nil), e.failedAt...),
		LastSync:    e.lastSync,
		Seq:         e.seq,
		StaticFired: e.staticFired,
		VictimCount: e.victimCount,
		Parked:      append([]parkedArrival(nil), e.parked...),
		Sum:         e.sum,
	}
	for _, ev := range e.evq {
		if ev.kind != eventRetry {
			continue
		}
		snap.Retries = append(snap.Retries, retrySnapshot{
			Time: ev.time, Seq: ev.seq, Spec: ev.res.Spec, Attempts: ev.res.Attempts, Delay: ev.delay,
		})
	}
	t := e.trk
	snap.Trk = trackerSnapshot{
		Width: t.width, Series: t.series.Pack(), WinStart: t.winStart, LastT: t.lastT,
		Up: t.up, Fleet: t.fleet,
		UpSec: t.upSec, FleetSec: t.fleetSec,
		TotUpSec: t.totUpSec, TotFleetSec: t.totFleetSec,
		TotMigLat: t.totMigLat, TotReqLat: t.totReqLat,
		Joins: t.joins, Drains: t.drains, Fails: t.fails,
		Migs: t.migs, Reqs: t.reqs, Dead: t.dead, Disr: t.disr,
		MigLat: t.migLat, ReqLat: t.reqLat,
	}
	return snap
}

// restore rebuilds the lifecycle coordinate on a freshly constructed
// engine whose schedule() has already repopulated the static timeline.
// The pool must already hold the restored machines (including joined
// ones).
func (e *engine) restore(snap *engineSnapshot) error {
	n := len(e.pool.machines)
	if len(snap.Up) != n || len(snap.JoinedAt) != n || len(snap.DownAt) != n || len(snap.FailedAt) != n {
		return fmt.Errorf("cluster: lifecycle snapshot covers %d machines, fleet has %d", len(snap.Up), n)
	}
	e.up = append(e.up[:0], snap.Up...)
	e.joinedAt = append(e.joinedAt[:0], snap.JoinedAt...)
	e.downAt = append(e.downAt[:0], snap.DownAt...)
	e.failedAt = append(e.failedAt[:0], snap.FailedAt...)
	e.nUp = 0
	for i, u := range e.up {
		if u != !e.pool.machines[i].Halted() {
			return fmt.Errorf("cluster: lifecycle snapshot says machine %d up=%v but its kernel disagrees", i, u)
		}
		if u {
			e.nUp++
		}
	}
	for i, pa := range snap.Parked {
		if err := sim.ValidateArrival(pa.Arrival); err != nil {
			return fmt.Errorf("cluster: lifecycle snapshot parked arrival %d: %w", i, err)
		}
	}
	e.parked = append(e.parked[:0], snap.Parked...)

	// The heap currently holds exactly the regenerated static timeline.
	// Discard the statics that already fired — pops are monotone in
	// (time, seq), so they are precisely the first StaticFired — then
	// re-add the retries under their original sequence numbers.
	if snap.StaticFired < 0 || snap.StaticFired > e.evq.Len() {
		return fmt.Errorf("cluster: lifecycle snapshot fired %d static events of %d scheduled", snap.StaticFired, e.evq.Len())
	}
	if snap.Seq < e.seq {
		return fmt.Errorf("cluster: lifecycle snapshot sequence %d below the %d statically scheduled events — "+
			"resume must use the original lifecycle configuration", snap.Seq, e.seq)
	}
	e.staticFired = snap.StaticFired
	for i := 0; i < snap.StaticFired; i++ {
		heap.Pop(&e.evq)
	}
	for i, r := range snap.Retries {
		if r.Spec == nil {
			return fmt.Errorf("cluster: lifecycle snapshot retry %d without a spec", i)
		}
		if err := r.Spec.Validate(); err != nil {
			return err
		}
		if r.Seq >= snap.Seq {
			return fmt.Errorf("cluster: lifecycle snapshot retry %d has sequence %d beyond the engine's %d", i, r.Seq, snap.Seq)
		}
		heap.Push(&e.evq, &timelineEvent{
			time:  r.Time,
			seq:   r.Seq,
			kind:  eventRetry,
			res:   sim.Resident{Spec: r.Spec, Attempts: r.Attempts},
			delay: r.Delay,
		})
	}
	e.seq = snap.Seq

	if snap.VictimCount > 0 && e.lc.MTBF <= 0 {
		return fmt.Errorf("cluster: lifecycle snapshot recorded %d victim draws but the configuration has no MTBF process",
			snap.VictimCount)
	}
	e.victimCount = snap.VictimCount

	e.lastSync = snap.LastSync
	e.lastCkpt = snap.LastSync
	e.sum = snap.Sum

	t := e.trk
	if snap.Trk.Width != t.width {
		return fmt.Errorf("cluster: lifecycle snapshot tracked %gs windows, config says %gs — resume must use the original config",
			snap.Trk.Width, t.width)
	}
	t.series = snap.Trk.Series.Unpack()
	t.winStart = snap.Trk.WinStart
	t.lastT = snap.Trk.LastT
	t.up, t.fleet = snap.Trk.Up, snap.Trk.Fleet
	t.upSec, t.fleetSec = snap.Trk.UpSec, snap.Trk.FleetSec
	t.totUpSec, t.totFleetSec = snap.Trk.TotUpSec, snap.Trk.TotFleetSec
	t.totMigLat, t.totReqLat = snap.Trk.TotMigLat, snap.Trk.TotReqLat
	t.joins, t.drains, t.fails = snap.Trk.Joins, snap.Trk.Drains, snap.Trk.Fails
	t.migs, t.reqs, t.dead, t.disr = snap.Trk.Migs, snap.Trk.Reqs, snap.Trk.Dead, snap.Trk.Disr
	t.migLat, t.reqLat = snap.Trk.MigLat, snap.Trk.ReqLat
	return nil
}
