package metrics

import (
	"fmt"
	"strings"
)

// LifecyclePoint is one fixed-width time window of a fleet's lifecycle
// trajectory: how much of the fleet was up, and what disruption the
// lifecycle events of the window inflicted on running applications.
// The cluster engine builds the series fleet-wide by construction —
// lifecycle events are cluster-level decisions, so unlike WindowPoint
// there is no per-machine series to merge.
type LifecyclePoint struct {
	// Start and End bound the window in simulated seconds.
	Start float64 `json:"start"`
	End   float64 `json:"end"`
	// Availability is the time-averaged fraction of existing machines
	// that were up over the window (machine-up-seconds over
	// machine-existing-seconds, so a fleet that grows mid-window is
	// averaged correctly).
	Availability float64 `json:"availability"`
	// UpMachines and FleetSize sample the fleet at the window's end.
	UpMachines int `json:"up_machines"`
	FleetSize  int `json:"fleet_size"`
	// Joins, Drains and Failures count lifecycle events inside the
	// window (scheduled, autoscale-triggered and MTBF-driven alike).
	Joins    int `json:"joins"`
	Drains   int `json:"drains"`
	Failures int `json:"failures"`
	// Disruptions counts applications displaced by those events;
	// Migrations of them moved live with progress preserved, Requeues
	// re-entered placement from scratch, and DeadLettered exhausted
	// their retry budget and were dropped.
	Disruptions  int `json:"disruptions"`
	Migrations   int `json:"migrations"`
	Requeues     int `json:"requeues"`
	DeadLettered int `json:"dead_lettered"`
	// MeanMigrationLatency is the mean modeled migration cost of the
	// window's migrations; MeanRequeueLatency the mean scheduled delay
	// (retry backoff; zero for drain requeues) of its requeues. Both are
	// 0 when the window had none.
	MeanMigrationLatency float64 `json:"mean_migration_latency"`
	MeanRequeueLatency   float64 `json:"mean_requeue_latency"`
}

// LifecycleSeries is a sequence of contiguous lifecycle windows of
// equal width — the same windowing as the fleet's WindowedSeries, so
// the two series line up index by index.
type LifecycleSeries struct {
	// Width is the window length in simulated seconds.
	Width  float64          `json:"width"`
	Points []LifecyclePoint `json:"points"`
}

// Add appends a lifecycle window point.
func (s *LifecycleSeries) Add(p LifecyclePoint) { s.Points = append(s.Points, p) }

// Fingerprint renders the series compactly for determinism checks: two
// series are byte-identical iff every lifecycle metric is.
func (s *LifecycleSeries) Fingerprint() string {
	var b strings.Builder
	fmt.Fprintf(&b, "w=%.17g n=%d", s.Width, len(s.Points))
	for _, p := range s.Points {
		fmt.Fprintf(&b, ";[%.17g,%.17g)av=%.17g up=%d/%d j=%d d=%d f=%d x=%d m=%d r=%d dl=%d ml=%.17g rl=%.17g",
			p.Start, p.End, p.Availability, p.UpMachines, p.FleetSize,
			p.Joins, p.Drains, p.Failures, p.Disruptions, p.Migrations, p.Requeues, p.DeadLettered,
			p.MeanMigrationLatency, p.MeanRequeueLatency)
	}
	return b.String()
}
