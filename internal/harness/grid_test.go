package harness

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"github.com/faircache/lfoc/internal/cluster"
	"github.com/faircache/lfoc/internal/workloads"
)

const sweepSpec = `
spec_version: 1
seed: 9
duration_seconds: 4
cohorts:
  - mix:
      workload: S1
    rate:
      sinusoid:
        base: 2
        amplitude: 1
`

// burstySpec exercises the MMPP burst overlay and Pareto job sizes.
const burstySpec = `
spec_version: 1
seed: 11
duration_seconds: 3
cohorts:
  - mix:
      workload: S3
    rate:
      constant: 3
    burst:
      factor: 3
      mean_calm_seconds: 0.8
      mean_burst_seconds: 0.3
    size:
      dist: pareto
      alpha: 2
      max_factor: 4
`

// loadSpec writes text to a file named file and loads it, so the spec
// is named after the file's basename.
func loadSpec(t *testing.T, file, text string) *workloads.Spec {
	t.Helper()
	path := filepath.Join(t.TempDir(), file)
	if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := workloads.LoadSpec(path)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func mustWorkload(t *testing.T, name string) workloads.Workload {
	t.Helper()
	w, err := workloads.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func scale200() Config {
	cfg := DefaultConfig()
	cfg.Scale = 200
	return cfg
}

// TestGridMatchesSweepGolden reruns, as Grids, the five sweeps whose
// rows testdata/sweeps.golden.json holds as the four earlier sweep
// drivers (Churn, ClusterSweep, ChaosSweep, SpecSweep) produced them at
// Scale 200. Every key of every old row must equal the Grid row's
// value: lifecycle keys are read from the row's lifecycle summary, an
// old availability of 1 matches an absent summary, the old per-row mtbf
// matches the Grid's lifecycle template, and an old zero or empty value
// matches an omitted key.
func TestGridMatchesSweepGolden(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "sweeps.golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	var golden map[string][]map[string]any
	if err := json.Unmarshal(data, &golden); err != nil {
		t.Fatal(err)
	}
	events, err := cluster.ParseEvents("drain:t=1.5,m=1;fail:t=2.5,m=2")
	if err != nil {
		t.Fatal(err)
	}
	specs := []*workloads.Spec{loadSpec(t, "sweep.yaml", sweepSpec), loadSpec(t, "bursty.yaml", burstySpec)}
	grids := map[string]Grid{
		"churn":   {Workload: mustWorkload(t, "S3"), Rates: []float64{2, 8}, Window: 3, Seed: 7},
		"cluster": {Workload: mustWorkload(t, "S1"), Rates: []float64{4}, Window: 3, Seed: 7, Mix: "2x11way,2x7way"},
		"chaos": {Workload: mustWorkload(t, "S1"), Rates: []float64{4}, Window: 5, Seed: 7, Machines: 4,
			Lifecycle: &cluster.Lifecycle{Events: events, MTBF: 3, MigrationCost: 0.05}},
		"spec":       {Specs: specs},
		"spec_least": {Specs: specs, Machines: 3, Placements: []string{"least"}},
	}
	if len(golden) != len(grids) {
		t.Fatalf("golden holds %d runs, the test reruns %d", len(golden), len(grids))
	}
	for name, g := range grids {
		old, ok := golden[name]
		if !ok {
			t.Fatalf("golden has no %q run", name)
		}
		d, err := g.Run(scale200())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(d.Rows) != len(old) {
			t.Fatalf("%s: %d rows, golden has %d", name, len(d.Rows), len(old))
		}
		for i, want := range old {
			got := rowMap(t, d.Rows[i])
			for key, w := range want {
				v, present := got[key]
				if lc, ok := got["lifecycle"].(map[string]any); ok && !present {
					v, present = lc[key]
				}
				switch {
				case key == "mtbf" && g.Lifecycle != nil:
					v, present = g.Lifecycle.MTBF, true
				case key == "availability" && !present:
					v, present = 1.0, true
				}
				if !present {
					if !zeroOrEmpty(w) {
						t.Errorf("%s row %d: %s = %v in the golden, absent from the Grid row", name, i, key, w)
					}
					continue
				}
				if !reflect.DeepEqual(v, w) {
					t.Errorf("%s row %d: %s = %v, golden %v", name, i, key, v, w)
				}
			}
		}
	}
}

func zeroOrEmpty(v any) bool {
	switch v := v.(type) {
	case nil:
		return true
	case []any:
		return len(v) == 0
	default:
		return reflect.ValueOf(v).IsZero()
	}
}

// rowMap returns the row as its JSON object, so it compares with the
// golden's decoded rows key by key.
func rowMap(t *testing.T, r GridRow) map[string]any {
	t.Helper()
	buf, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(buf, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestChurnSweep(t *testing.T) {
	d, err := Grid{Workload: mustWorkload(t, "S3"), Rates: []float64{2, 8}, Window: 3, Seed: 7}.Run(scale200())
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Rows) != 2*len(ChurnPolicies) {
		t.Fatalf("%d rows, want %d", len(d.Rows), 2*len(ChurnPolicies))
	}
	// Identical traces per rate: every policy sees the same arrivals.
	for r := 0; r < 2; r++ {
		base := d.Rows[r*len(ChurnPolicies)]
		for pi := 1; pi < len(ChurnPolicies); pi++ {
			row := d.Rows[r*len(ChurnPolicies)+pi]
			if row.Arrivals != base.Arrivals {
				t.Errorf("rate %g: %s saw %d arrivals, %s saw %d",
					base.Rate, base.Policy, base.Arrivals, row.Policy, row.Arrivals)
			}
			if row.Rate != base.Rate {
				t.Errorf("row order broken: %+v", row)
			}
		}
	}
	// The higher rate must actually offer more load.
	if d.Rows[len(ChurnPolicies)].Arrivals <= d.Rows[0].Arrivals {
		t.Errorf("rate 8 offered %d arrivals vs %d at rate 2",
			d.Rows[len(ChurnPolicies)].Arrivals, d.Rows[0].Arrivals)
	}
	for _, row := range d.Rows {
		if row.Departed+row.Remaining != row.Arrivals {
			t.Errorf("%s@%g: %d departed + %d remaining != %d arrivals",
				row.Policy, row.Rate, row.Departed, row.Remaining, row.Arrivals)
		}
		if row.Departed > 0 && row.MeanSlowdown < 1 {
			t.Errorf("%s@%g: mean slowdown %v < 1", row.Policy, row.Rate, row.MeanSlowdown)
		}
		if row.MachineArrivals != nil {
			t.Errorf("%s@%g: one-machine row carries per-machine arrivals", row.Policy, row.Rate)
		}
	}
	if s := d.Render(); !strings.Contains(s, "arrival rate 2/s") || !strings.Contains(s, "lfoc") {
		t.Errorf("render missing expected sections:\n%s", s)
	}
}

func TestSpecSweepSingleMachine(t *testing.T) {
	g := Grid{Specs: []*workloads.Spec{loadSpec(t, "sweep.yaml", sweepSpec)}, Policies: []string{"lfoc", "stock"}}
	d, err := g.Run(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Rows) != 2 {
		t.Fatalf("want 2 rows, got %d", len(d.Rows))
	}
	for _, r := range d.Rows {
		if r.Spec != "sweep" {
			t.Errorf("row spec %q, want file basename %q", r.Spec, "sweep")
		}
		if r.Arrivals == 0 {
			t.Errorf("%s: no arrivals", r.Policy)
		}
		if r.MachineArrivals != nil {
			t.Errorf("%s: single-machine row carries per-machine arrivals", r.Policy)
		}
	}
	// Both policies face the identical generated trace.
	if d.Rows[0].Arrivals != d.Rows[1].Arrivals {
		t.Errorf("policies saw different traces: %d vs %d arrivals", d.Rows[0].Arrivals, d.Rows[1].Arrivals)
	}
	if s := d.Render(); !strings.Contains(s, "spec sweep:") {
		t.Errorf("render missing the spec table:\n%s", s)
	}
}

func TestSpecSweepClusterDeterministic(t *testing.T) {
	g := Grid{Specs: []*workloads.Spec{loadSpec(t, "sweep.yaml", sweepSpec)}, Machines: 2,
		Placements: []string{"rr"}, Policies: []string{"lfoc"}}
	run := func() GridData {
		d, err := g.Run(DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatal("spec sweep is not deterministic")
	}
	r := a.Rows[0]
	if len(r.MachineArrivals) != 2 {
		t.Fatalf("want 2 machine-arrival counts, got %v", r.MachineArrivals)
	}
	if r.MachineArrivals[0]+r.MachineArrivals[1] != r.Arrivals {
		t.Fatalf("placement lost arrivals: %v vs %d", r.MachineArrivals, r.Arrivals)
	}
}

// A 4-worker grid with scheduled events, MTBF failures and autoscaling
// over a mixed fleet: cells share the lifecycle template and the fleet
// configuration, so under -race this checks they share nothing mutable;
// the result must equal the serial run's.
func TestGridLifecycleWorkersDeterministic(t *testing.T) {
	events := []cluster.Event{{Time: 1.5, Kind: cluster.MachineDrain, Machine: 1}, {Time: 2.5, Kind: cluster.MachineFail, Machine: 0}}
	g := Grid{Workload: mustWorkload(t, "S1"), Rates: []float64{4}, Window: 3, Seed: 7, Mix: "1x11way,1x7way",
		Lifecycle: &cluster.Lifecycle{Events: events, MTBF: 3, MigrationCost: 0.05,
			Autoscale: &cluster.Autoscale{Interval: 0.5, Up: 0.1, Down: 0.05, Min: 1, Max: 4}}}
	run := func(workers int) GridData {
		cfg := DefaultConfig()
		cfg.Workers = workers
		d, err := g.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	serial, parallel := run(1), run(4)
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatal("grid rows differ between 1 and 4 workers")
	}
	joins := 0
	for _, r := range serial.Rows {
		if r.Lifecycle == nil {
			t.Fatalf("%s/%s: no lifecycle summary", r.Placement, r.Policy)
		}
		joins += r.Lifecycle.Joins
	}
	if joins == 0 {
		t.Error("autoscale never joined a machine")
	}
	if s := serial.Render(); !strings.Contains(s, "joins") || !strings.Contains(s, "per-machine") {
		t.Errorf("render lacks the fleet and lifecycle columns:\n%s", s)
	}
}

// TestGridValidation pins that Run rejects bad inputs, naming the
// field, before any cell runs.
func TestGridValidation(t *testing.T) {
	s1 := mustWorkload(t, "S1")
	spec := loadSpec(t, "sweep.yaml", sweepSpec)
	for _, tc := range []struct {
		name  string
		g     Grid
		field string
	}{
		{"neither traces", Grid{Workload: s1, Window: 3}, "Rates or Specs"},
		{"both traces", Grid{Workload: s1, Rates: []float64{2}, Window: 3, Specs: []*workloads.Spec{spec}}, "Rates and Specs"},
		{"no benchmarks", Grid{Rates: []float64{2}, Window: 3}, "Workload"},
		{"no window", Grid{Workload: s1, Rates: []float64{2}}, "Window"},
		{"shared migration", Grid{Specs: []*workloads.Spec{spec},
			Lifecycle: &cluster.Lifecycle{MTBF: 1, Migration: cluster.NewCostAwareMigration(0, DefaultConfig().Plat)}}, "Migration"},
		{"unknown placement", Grid{Specs: []*workloads.Spec{spec}, Placements: []string{"rr", "nope"}}, "Placements"},
		{"unknown policy", Grid{Specs: []*workloads.Spec{spec}, Policies: []string{"lfoc", "nope"}}, "Policies"},
		{"bad mix", Grid{Specs: []*workloads.Spec{spec}, Mix: "2xbogus"}, "Mix"},
		{"mix size conflict", Grid{Specs: []*workloads.Spec{spec}, Mix: "2x11way", Machines: 3}, "Machines"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := tc.g.Run(DefaultConfig())
			if err == nil {
				t.Fatal("accepted")
			}
			if !strings.Contains(err.Error(), tc.field) {
				t.Errorf("error %q does not name %s", err, tc.field)
			}
		})
	}
}
