package main

import (
	"fmt"
	"path/filepath"
	"strings"
	"testing"
)

// loadBenchmarkFile reads the repository's benchmark definition.
func loadBenchmarkFile(t *testing.T) *benchmarkFile {
	t.Helper()
	var bf benchmarkFile
	if err := readJSON("../BENCHMARK.json", &bf); err != nil {
		t.Fatal(err)
	}
	return &bf
}

// TestDefinitionMatchesBENCHMARK pins the program's workloads and metric
// tables to BENCHMARK.json, names, order and units.
func TestDefinitionMatchesBENCHMARK(t *testing.T) {
	bf := loadBenchmarkFile(t)
	if len(bf.Workloads) != len(workloadList) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(bf.Workloads), len(workloadList))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloadList[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloadList[i].name)
		}
	}
	check := func(kind string, got []metricDef, names, units []string) {
		if len(got) != len(names) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(names), len(got))
		}
		for i, d := range got {
			if d.name != names[i] || d.unit != units[i] {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], program %s [%s]", kind, i, names[i], units[i], d.name, d.unit)
			}
		}
	}
	var names, units []string
	for _, m := range bf.EndToEnd {
		names, units = append(names, m.Name), append(units, m.Unit)
	}
	check("end_to_end", endToEnd, names, units)
	names, units = nil, nil
	for _, m := range bf.PerLayer {
		names, units = append(names, m.Name), append(units, m.Unit)
	}
	check("per_layer", perLayer, names, units)
}

// TestOpsTransparentAndCorrect runs one untraced and one probed op per
// workload: the probes must leave the result digest unchanged, and every
// correctness check must pass — for chaos-resume that includes the
// resumed result equalling the uninterrupted run.
func TestOpsTransparentAndCorrect(t *testing.T) {
	for _, w := range workloadList {
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			b, err := w.setup(env{seed: 1, dir: t.TempDir(), parent: -1})
			if err != nil {
				t.Fatal(err)
			}
			plain, err := b.run(nil)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := digestOf(plain.result)
			if err != nil {
				t.Fatal(err)
			}
			ot := newOpTrace(newTracer(), "op", -1)
			traced, err := b.run(ot)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := verify(b, traced, ref, ot.tr); err != nil {
				t.Fatalf("probed op: %v", err)
			}
			if rec, _, _, _ := ot.policyTotals(); rec.n == 0 {
				t.Error("the policy probes saw no Reconfigure call")
			}
		})
	}
}

// TestReportCarriesEveryMetric measures one workload with each pass and
// checks that the untraced report holds every end-to-end metric of
// BENCHMARK.json and the traced one every per-layer metric, each with
// its unit and nothing else. measure sets the same metrics whatever the
// workload.
func TestReportCarriesEveryMetric(t *testing.T) {
	bf := loadBenchmarkFile(t)
	e2e, layers := map[string]string{}, map[string]string{}
	for _, m := range bf.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	for _, m := range bf.PerLayer {
		layers[m.Name] = m.Unit
	}
	for _, pass := range []struct {
		tr   *tracer
		want map[string]string
	}{{nil, e2e}, {newTracer(), layers}} {
		wr, err := measure(workloadList[2], options{seed: 1, dir: t.TempDir(), tr: pass.tr})
		if err != nil {
			t.Fatal(err)
		}
		if wr.Failed != 0 {
			t.Fatalf("%d of %d ops failed: %v", wr.Failed, wr.Attempted, wr.Failures)
		}
		for name, unit := range pass.want {
			m, ok := wr.Metrics[name]
			if !ok {
				t.Errorf("report lacks %s", name)
			} else if m.Unit != unit {
				t.Errorf("%s: unit %q, BENCHMARK.json says %q", name, m.Unit, unit)
			}
		}
		if len(wr.Metrics) != len(pass.want) {
			t.Errorf("report has %d metrics, BENCHMARK.json defines %d for its pass", len(wr.Metrics), len(pass.want))
		}
	}
}

// TestCompareVerdicts checks -compare against synthetic runs under the
// bounds in BENCHMARK.json.
func TestCompareVerdicts(t *testing.T) {
	bf := loadBenchmarkFile(t)
	bound := map[string]float64{}
	for _, m := range bf.EndToEnd {
		bound[m.Name] = m.Bound
	}
	// runs makes three runs of one workload; run k reads v*(1+jitter*(k-1))
	// for each metric {v, jitter}.
	runs := func(values map[string][2]float64) []*report {
		var out []*report
		for k := -1.0; k <= 1; k++ {
			ms := map[string]metric{}
			for name, v := range values {
				ms[name] = metric{Value: v[0] * (1 + v[1]*k)}
			}
			out = append(out, &report{Workloads: []*workloadReport{{Name: "w", Metrics: ms}}})
		}
		return out
	}
	const drift = 0.3 // between runs, wider than every bound (at most 0.25)
	base := runs(map[string][2]float64{
		"run_s_p50":     {1, 0.02},
		"solo_s_per_s":  {1000, 0.02},
		"allocs_per_op": {1e6, 0},
		"stp":           {100, 0},
		"unfairness":    {2, 0},
		"peak_rss_mb":   {100, drift},
	})
	head := runs(map[string][2]float64{
		"run_s_p50":     {2, 0.02},
		"solo_s_per_s":  {2000, drift}, // drifts, but every run reads better
		"allocs_per_op": {1e6 * (1 + bound["allocs_per_op"] + 0.01), 0},
		"stp":           {100 * (1 - bound["stp"]/2), 0},
		"unfairness":    {2, drift},
		"peak_rss_mb":   {100, drift},
	})
	verdicts := func(base, head []*report) map[string]string {
		got := map[string]string{}
		for _, v := range compareReports(bf, base, head) {
			got[v.metric] = v.status
		}
		return got
	}
	want := map[string]string{
		"run_s_p50":     regressed,
		"solo_s_per_s":  within,
		"allocs_per_op": regressed,
		"stp":           within,
		"unfairness":    unresolved, // the head runs spread wider than the bound
		"peak_rss_mb":   unresolved, // unchanged, but drift hides any change
		"setup_s":       unresolved, // absent from both sides
	}
	got := verdicts(base, head)
	for name, status := range want {
		if got[name] != status {
			t.Errorf("%s: verdict %q, want %q", name, got[name], status)
		}
	}
	// One run a side cannot measure the drift between runs, so a pair
	// worse than its bound is unresolved, not regressed.
	if got := verdicts(base[:1], head[:1])["run_s_p50"]; got != unresolved {
		t.Errorf("run_s_p50 from one run a side: verdict %q, want %q", got, unresolved)
	}
	// The same runs compared with themselves are within wherever they
	// have values and do not drift.
	for _, v := range compareReports(bf, base, base) {
		if v.spread >= 0 && v.spread <= v.bound && v.status != within {
			t.Errorf("%s against itself: %s", v.metric, v.status)
		}
	}

	// The command takes comma-separated runs, exits 1 on a regression and
	// warns about differing machines.
	dir := t.TempDir()
	head[2].GOMAXPROCS = 4
	var paths [2][]string
	for i, side := range [][]*report{base, head} {
		for k, r := range side {
			p := filepath.Join(dir, fmt.Sprintf("%d-%d.json", i, k))
			if err := writeJSON(p, r); err != nil {
				t.Fatal(err)
			}
			paths[i] = append(paths[i], p)
		}
	}
	var stdout, stderr strings.Builder
	args := []string{"-compare", "-bench", "../BENCHMARK.json", strings.Join(paths[0], ","), strings.Join(paths[1], ",")}
	if code := run(args, &stdout, &stderr); code != 1 {
		t.Errorf("-compare exit code %d, want 1; stderr: %s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "warning: gomaxprocs differs") {
		t.Errorf("-compare did not warn about gomaxprocs:\n%s", stdout.String())
	}
}
