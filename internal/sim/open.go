package sim

import (
	"fmt"

	"github.com/faircache/lfoc/internal/metrics"
	"github.com/faircache/lfoc/internal/sim/scenario"
)

// AppOutcome is one application's life in an open-system run.
type AppOutcome struct {
	// Name is the application's benchmark name; Slot its admission
	// index (-1 for an arrival the run ended before admitting).
	Name string `json:"name"`
	Slot int    `json:"slot"`
	// ArrivedAt is the trace arrival time; AdmittedAt when the app got
	// a core — later than ArrivedAt when the machine was full, negative
	// if the run's horizon cut it off while still queued or undelivered;
	// DepartedAt is negative while the app is still in the system.
	ArrivedAt   float64 `json:"arrived_at"`
	AdmittedAt  float64 `json:"admitted_at"`
	DepartedAt  float64 `json:"departed_at"`
	WaitSeconds float64 `json:"wait_seconds"`
	// AloneSeconds is the solo time the retired instructions would have
	// needed; Slowdown is (DepartedAt-AdmittedAt)/AloneSeconds at
	// departure (0 while still running).
	AloneSeconds float64 `json:"alone_seconds"`
	Slowdown     float64 `json:"slowdown"`
	Runs         int     `json:"runs"`
	// Evicted marks an application lifted out by a lifecycle extraction
	// (machine drain or failure): it neither departed nor remains here —
	// its life continues on whatever machine the cluster moved it to.
	// Absent outside lifecycle runs.
	Evicted bool `json:"evicted,omitempty"`
}

// OpenResult is what an open-system run reports: per-application
// outcomes in admission order plus time-windowed metrics, since scalar
// end-of-run aggregates are meaningless when the population churns.
type OpenResult struct {
	Scenario string       `json:"scenario"`
	Apps     []AppOutcome `json:"apps"`
	// Series holds the windowed unfairness/STP/throughput trajectory.
	Series metrics.WindowedSeries `json:"series"`
	// Summary aggregates the departed applications' slowdowns
	// (metrics.SlowdownStats; zero value when nothing departed).
	Summary metrics.Summary `json:"summary"`
	// MeanSlowdown and MeanWait average over departed applications.
	MeanSlowdown float64 `json:"mean_slowdown"`
	MeanWait     float64 `json:"mean_wait"`
	Departed     int     `json:"departed"`
	Remaining    int     `json:"remaining"`
	// Evicted counts applications extracted by machine lifecycle events
	// (they continue elsewhere, so they are in neither Departed nor
	// Remaining). Absent outside lifecycle runs.
	Evicted      int     `json:"evicted,omitempty"`
	PeakActive   int     `json:"peak_active"`
	Repartitions int     `json:"repartitions"`
	SimSeconds   float64 `json:"sim_seconds"`
}

// RunOpen runs an open scenario under a dynamic policy: it injects the
// whole trace into one OpenMachine and drains it. MetricsWindow
// defaults to the policy period; identical (scenario, seed, config)
// inputs produce identical results — the open-system determinism the
// golden tests pin.
func RunOpen(cfg Config, scn *scenario.Open, pol Dynamic) (*OpenResult, error) {
	if len(scn.Initial()) == 0 && len(scn.Arrivals()) == 0 {
		return nil, fmt.Errorf("sim: open scenario %q has no applications", scn.Name())
	}
	m, err := NewOpenMachine(cfg, pol, scn.Name(), scn.Initial(), scn.Horizon())
	if err != nil {
		return nil, err
	}
	for _, arr := range scn.Arrivals() {
		if err := m.Inject(arr); err != nil {
			return nil, err
		}
	}
	if err := m.Drain(); err != nil {
		return nil, err
	}
	return m.Result(), nil
}

func buildOpenResult(k *kernel, name string) *OpenResult {
	res := &OpenResult{
		Scenario:     name,
		Apps:         make([]AppOutcome, len(k.apps)),
		Series:       k.series,
		PeakActive:   k.peak,
		Repartitions: k.repartitions,
		SimSeconds:   k.simTime,
	}
	var departed []float64
	var waitSum float64
	for i, a := range k.apps {
		o := AppOutcome{
			Name:         a.spec.Name,
			Slot:         a.slot,
			ArrivedAt:    a.arrivedAt,
			AdmittedAt:   a.admittedAt,
			DepartedAt:   a.departedAt,
			WaitSeconds:  a.admittedAt - a.arrivedAt,
			AloneSeconds: a.aloneT,
			Runs:         len(a.runs),
		}
		switch {
		case a.evicted:
			o.Evicted = true
			res.Evicted++
		case a.departedAt >= 0 && a.aloneT > 0:
			o.Slowdown = (a.departedAt - a.admittedAt) / a.aloneT
			if o.Slowdown < 1 {
				o.Slowdown = 1 // tick-quantization clamp, as in closed runs
			}
			departed = append(departed, o.Slowdown)
			waitSum += o.WaitSeconds
			res.Departed++
		default:
			res.Remaining++
		}
		res.Apps[i] = o
	}
	// Arrivals the run ended before admitting (a horizon cut them off
	// mid-queue or before delivery) still count toward the offered
	// load: without them Apps/Remaining would silently undercount.
	for _, arr := range k.waitQ {
		res.Apps = append(res.Apps, notAdmitted(arr))
		res.Remaining++
	}
	for _, arr := range k.arrivals[k.arrIdx:] {
		res.Apps = append(res.Apps, notAdmitted(arr))
		res.Remaining++
	}
	unf, stp, mean, _, _ := metrics.SlowdownStats(departed)
	if res.Departed > 0 {
		res.Summary = metrics.Summary{Unfairness: unf, STP: stp}
		res.MeanSlowdown = mean
		res.MeanWait = waitSum / float64(res.Departed)
	}
	return res
}

func notAdmitted(arr scenario.Arrival) AppOutcome {
	return AppOutcome{
		Name:       arr.Spec.Name,
		Slot:       -1,
		ArrivedAt:  arr.Time,
		AdmittedAt: -1,
		DepartedAt: -1,
	}
}
