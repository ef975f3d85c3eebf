package harness

import (
	"fmt"
	"strings"

	"github.com/faircache/lfoc/internal/cluster"
	"github.com/faircache/lfoc/internal/machine"
	"github.com/faircache/lfoc/internal/sim"
	"github.com/faircache/lfoc/internal/sim/scenario"
	"github.com/faircache/lfoc/internal/workloads"
)

// ChurnPolicies is the default policy axis of a Grid.
var ChurnPolicies = []string{"stock", "dunn", "lfoc"}

// ClusterPlacements is the default placement axis of a Grid over more
// than one machine.
var ClusterPlacements = []string{"rr", "least", "fair"}

// Grid is the paper's §5 comparison run as an open-system sweep: every
// arrival trace × every placement × every partitioning policy, each
// cell over the same fleet. All cells of one trace face the identical
// arrival stream (and the identical lifecycle schedule), so the
// comparison is between placement and policy, never between traces.
// A one-machine cell is a plain open run: cluster.Run at N=1 is
// bit-identical to sim.RunOpen.
type Grid struct {
	// Workload, Rates, Window and Seed define one trace per rate: the
	// workload's applications arriving by a Poisson process of that
	// rate over [0, Window) simulated seconds, seeded by Seed. Seed
	// also seeds every cell's lifecycle failure process.
	Workload workloads.Workload
	Rates    []float64
	Window   float64
	Seed     int64
	// Specs define one trace per spec, generated at Config.Scale from
	// the spec's own seed. Exactly one of Rates and Specs is set.
	Specs []*workloads.Spec
	// Machines is the size of a homogeneous fleet (0 = one machine).
	// Mix, when set, is a cluster.ParseMachineMix heterogeneous fleet;
	// Machines must then be 0 or the mix's size.
	Machines int
	Mix      string
	// Placements and Policies are the grid's axes. Empty Placements is
	// rr on one machine and ClusterPlacements on a fleet; empty Policies
	// is ChurnPolicies.
	Placements []string
	Policies   []string
	// Lifecycle, when set, is every cell's lifecycle template: each cell
	// runs a copy with FailureSeed = Seed and a JoinPolicy building the
	// cell's policy. Its Migration must be nil, since concurrent cells
	// would share the instance.
	Lifecycle *cluster.Lifecycle
}

// GridRow is one (trace, placement, policy) cell of a Grid.
type GridRow struct {
	// Spec names the cell's spec trace; Rate is its Poisson rate.
	Spec      string  `json:"spec,omitempty"`
	Rate      float64 `json:"rate,omitempty"`
	Placement string  `json:"placement"`
	Policy    string  `json:"policy"`
	// Arrivals counts trace arrivals; MachineArrivals breaks them down
	// per machine (omitted when the fleet only ever had one).
	Arrivals        int   `json:"arrivals"`
	MachineArrivals []int `json:"machine_arrivals,omitempty"`
	// Departed and Remaining describe the population; Remaining is
	// nonzero only if the run ended before the fleet drained.
	Departed  int `json:"departed"`
	Remaining int `json:"remaining"`
	// MeanSlowdown and MeanWait average over departed applications;
	// Unfairness and STP are windowed means (the open-system analogues
	// of Eqs. 3 and 4); Throughput is completed runs per simulated
	// second over the whole run.
	MeanSlowdown float64 `json:"mean_slowdown"`
	MeanWait     float64 `json:"mean_wait"`
	Unfairness   float64 `json:"unfairness"`
	STP          float64 `json:"stp"`
	Throughput   float64 `json:"throughput"`
	PeakActive   int     `json:"peak_active"`
	SimSeconds   float64 `json:"sim_seconds"`
	// Lifecycle is the cell's lifecycle accounting (nil without one).
	Lifecycle *cluster.LifecycleSummary `json:"lifecycle,omitempty"`
}

// GridData is a Grid's result: the fleet and trace parameters plus
// one row per cell, trace-major, then by placement, then by policy.
type GridData struct {
	// Workload and Window describe rate traces; spec grids leave them
	// empty.
	Workload string    `json:"workload,omitempty"`
	Machines int       `json:"machines"`
	Mix      string    `json:"mix,omitempty"`
	Window   float64   `json:"window_seconds,omitempty"`
	Seed     int64     `json:"seed"`
	Rows     []GridRow `json:"rows"`
}

// gridTrace is one trace of a Grid: a Poisson rate, or a spec.
type gridTrace struct {
	rate float64
	spec *workloads.Spec
}

type gridCell struct {
	trace             gridTrace
	placement, policy string
}

// Run runs every cell through cluster.Run, spreading cells over
// cfg.Workers; each cell's fleet advances serially, since a second
// level of workers would oversubscribe multiplicatively. The inputs
// are checked before any cell runs.
func (g Grid) Run(cfg Config) (GridData, error) {
	cfg = cfg.normalized()
	if err := g.validate(); err != nil {
		return GridData{}, err
	}
	machines := g.Machines
	if machines == 0 && g.Mix == "" {
		machines = 1
	}
	ccfg := cluster.Config{Sim: cfg.SimConfig(), Machines: machines, Workers: 1}
	if g.Mix != "" {
		fleet, err := cluster.ParseMachineMix(g.Mix, ccfg.Sim)
		if err != nil {
			return GridData{}, fmt.Errorf("grid: Mix: %w", err)
		}
		ccfg.Fleet = fleet
	}
	sims, err := ccfg.MachineConfigs()
	if err != nil {
		return GridData{}, fmt.Errorf("grid: Machines: %w", err)
	}
	placements, policies := g.Placements, g.Policies
	if len(placements) == 0 {
		placements = []string{"rr"}
		if len(sims) > 1 {
			placements = ClusterPlacements
		}
	}
	if len(policies) == 0 {
		policies = ChurnPolicies
	}
	for _, name := range placements {
		if _, err := cluster.NewPlacement(name, cfg.Plat); err != nil {
			return GridData{}, fmt.Errorf("grid: Placements: %w", err)
		}
	}
	for _, name := range policies {
		if _, _, err := cfg.NewDynamicPolicy(name); err != nil {
			return GridData{}, fmt.Errorf("grid: Policies: %w", err)
		}
	}

	var traces []gridTrace
	for _, r := range g.Rates {
		traces = append(traces, gridTrace{rate: r})
	}
	for _, s := range g.Specs {
		traces = append(traces, gridTrace{spec: s})
	}
	var cells []gridCell
	for _, tr := range traces {
		for _, pl := range placements {
			for _, po := range policies {
				cells = append(cells, gridCell{trace: tr, placement: pl, policy: po})
			}
		}
	}
	rows, err := mapRows(cfg.workers(), cells, func(c gridCell) (GridRow, error) {
		row, err := g.cell(cfg, ccfg, sims, c)
		if err != nil {
			return GridRow{}, fmt.Errorf("grid: %s %s/%s: %w", g.traceName(c.trace), c.placement, c.policy, err)
		}
		return row, nil
	})
	if err != nil {
		return GridData{}, err
	}
	d := GridData{Machines: len(sims), Mix: g.Mix, Seed: g.Seed, Rows: rows}
	if len(g.Rates) > 0 {
		d.Workload, d.Window = g.Workload.Name, g.Window
	}
	return d, nil
}

func (g Grid) validate() error {
	switch {
	case len(g.Rates) == 0 && len(g.Specs) == 0:
		return fmt.Errorf("grid: needs Rates or Specs")
	case len(g.Rates) > 0 && len(g.Specs) > 0:
		return fmt.Errorf("grid: Rates and Specs are exclusive")
	case len(g.Rates) > 0 && len(g.Workload.Benchmarks) == 0:
		return fmt.Errorf("grid: Rates need a Workload with benchmarks")
	case len(g.Rates) > 0 && g.Window <= 0:
		return fmt.Errorf("grid: Rates need a positive Window, got %g", g.Window)
	case g.Lifecycle != nil && g.Lifecycle.Migration != nil:
		return fmt.Errorf("grid: Lifecycle.Migration must be nil: concurrent cells would share one instance")
	}
	return nil
}

func (g Grid) traceName(t gridTrace) string {
	if t.spec != nil {
		return "spec " + t.spec.Name
	}
	return fmt.Sprintf("%s rate %g", g.Workload.Name, t.rate)
}

func (g Grid) cell(cfg Config, ccfg cluster.Config, sims []sim.Config, c gridCell) (GridRow, error) {
	// Each cell generates its own copy of the trace (generation is a
	// pure function of its inputs), so concurrent cells share no
	// scenario.
	var scn *scenario.Open
	var err error
	if c.trace.spec != nil {
		scn, err = c.trace.spec.Scenario(cfg.Scale)
	} else {
		scn, err = g.Workload.OpenScenario(c.trace.rate, g.Window, g.Seed, cfg.Scale)
	}
	if err != nil {
		return GridRow{}, err
	}
	if ccfg.Placement, err = cluster.NewPlacement(c.placement, cfg.Plat); err != nil {
		return GridRow{}, err
	}
	// Each machine's policy is built for its own platform: in a
	// heterogeneous fleet way counts differ per machine.
	newPolicy := func(plat *machine.Platform) (sim.Dynamic, error) {
		pol, _, err := cfg.NewDynamicPolicyFor(c.policy, plat)
		return pol, err
	}
	if g.Lifecycle != nil {
		lc := *g.Lifecycle
		lc.FailureSeed = g.Seed
		lc.JoinPolicy = func(_ int, mc sim.Config) (sim.Dynamic, error) { return newPolicy(mc.Plat) }
		ccfg.Lifecycle = &lc
	}
	res, err := cluster.Run(ccfg, scn, func(i int) (sim.Dynamic, error) { return newPolicy(sims[i].Plat) })
	if err != nil {
		return GridRow{}, err
	}
	row := GridRow{
		Rate:         c.trace.rate,
		Placement:    res.Placement,
		Policy:       c.policy,
		Arrivals:     len(scn.Arrivals()),
		Departed:     res.Departed,
		Remaining:    res.Remaining,
		MeanSlowdown: res.MeanSlowdown,
		MeanWait:     res.MeanWait,
		Unfairness:   res.Series.MeanUnfairness(),
		STP:          res.Series.MeanSTP(),
		Throughput:   res.Series.TotalThroughput(),
		PeakActive:   res.PeakActive,
		SimSeconds:   res.SimSeconds,
		Lifecycle:    res.Lifecycle,
	}
	if c.trace.spec != nil {
		row.Spec = scn.Name()
	}
	if len(res.PerMachine) > 1 {
		for _, m := range res.PerMachine {
			row.MachineArrivals = append(row.MachineArrivals, m.Arrivals)
		}
	}
	return row, nil
}

// Render formats the grid as one table per trace. The placement and
// per-machine columns appear when cells ran on more than one machine,
// the lifecycle columns when cells had a lifecycle.
func (d GridData) Render() string {
	fleet := fmt.Sprintf("%d machines", d.Machines)
	if d.Machines == 1 {
		fleet = "1 machine"
	}
	if d.Mix != "" {
		fleet += " (" + d.Mix + ")"
	}
	// Spec traces carry their own seeds, so only rate grids print one.
	out := "Sweep over " + fleet
	if d.Workload != "" {
		out += fmt.Sprintf(": workload %s, Poisson arrivals over %gs, seed %d", d.Workload, d.Window, d.Seed)
	}
	out += "\n"

	var multi, lifecycle bool
	for _, r := range d.Rows {
		multi = multi || r.MachineArrivals != nil
		lifecycle = lifecycle || r.Lifecycle != nil
	}
	var header []string
	if multi {
		header = append(header, "placement")
	}
	header = append(header, "policy", "arrivals")
	if multi {
		header = append(header, "per-machine")
	}
	header = append(header, "departed", "slowdown", "wait(s)", "unfairness", "STP", "tput(runs/s)", "peak")
	if lifecycle {
		header = append(header, "fails", "drains", "joins", "disrupted", "migrated", "requeued", "dead", "avail")
	}

	var rows [][]string
	flush := func(title string) {
		if len(rows) > 1 {
			out += fmt.Sprintf("\n%s:\n%s", title, renderTable(rows))
		}
		rows = [][]string{header}
	}
	title := ""
	for _, r := range d.Rows {
		t := fmt.Sprintf("arrival rate %g/s", r.Rate)
		if r.Spec != "" {
			t = "spec " + r.Spec
		}
		if t != title {
			flush(title)
			title = t
		}
		var cells []string
		if multi {
			cells = append(cells, r.Placement)
		}
		cells = append(cells, r.Policy, fmt.Sprint(r.Arrivals))
		if multi {
			loads := make([]string, len(r.MachineArrivals))
			for i, n := range r.MachineArrivals {
				loads[i] = fmt.Sprint(n)
			}
			cells = append(cells, strings.Join(loads, "/"))
		}
		cells = append(cells, fmt.Sprint(r.Departed), f3(r.MeanSlowdown), f3(r.MeanWait),
			f3(r.Unfairness), f3(r.STP), f3(r.Throughput), fmt.Sprint(r.PeakActive))
		if lc := r.Lifecycle; lc != nil {
			cells = append(cells, fmt.Sprint(lc.Failures), fmt.Sprint(lc.Drains), fmt.Sprint(lc.Joins),
				fmt.Sprint(lc.Disruptions), fmt.Sprint(lc.Migrations), fmt.Sprint(lc.Requeues),
				fmt.Sprint(lc.DeadLettered), f3(lc.Availability))
		}
		rows = append(rows, cells)
	}
	flush(title)
	return out
}
