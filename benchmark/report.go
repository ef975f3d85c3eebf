package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
)

// metricDef names a metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics the untraced pass reports: what a user of the
// simulator sees. BENCHMARK.json gives each its direction and bound.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"run_s_p50", "s"},
	{"solo_s_per_s", "s/s"},
	{"allocs_per_op", "count"},
	{"alloc_mb_per_op", "MB"},
	{"peak_rss_mb", "MB"},
	{"unfairness", "ratio"},
	{"stp", "ratio"},
}

// perLayer are the metrics the traced pass reports, per op unless the
// README says otherwise.
var perLayer = []metricDef{
	{"engine.self_s", "s"},
	{"policy.activations", "count"},
	{"policy.reconfigure_s", "s"},
	{"policy.reconfigure_us_p50", "us"},
	{"policy.reconfigure_us_p99", "us"},
	{"policy.windows", "count"},
	{"policy.window_s", "s"},
	{"policy.assignments", "count"},
	{"policy.assign_s", "s"},
	{"policy.assign_changed_frac", "frac"},
	{"cluster.placements", "count"},
	{"cluster.place_s", "s"},
	{"cluster.place_us_p50", "us"},
	{"cluster.place_us_p99", "us"},
	{"cluster.migrate_calls", "count"},
	{"cluster.migrate_s", "s"},
	{"cluster.lifecycle_events", "count"},
	{"cluster.disruptions", "count"},
	{"cluster.requeues", "count"},
	{"cluster.dead_lettered", "count"},
	{"cluster.ckpt_write_s", "s"},
	{"cluster.ckpt_read_s", "s"},
	{"cluster.ckpt_resume_s", "s"},
	{"cluster.ckpt_mb", "MB"},
	{"workloads.generate_s", "s"},
	{"workloads.trace_write_s", "s"},
	{"workloads.trace_read_s", "s"},
	{"workloads.trace_kb", "KB"},
	{"workloads.arrivals", "count"},
	{"metrics.merge_s", "s"},
	{"sharing.evaluate_ns", "ns"},
	{"sharing.evaluate_allocs", "count"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"sim.solo_s", "s"},
	{"sim.departed", "count"},
	{"trace.overhead_frac", "frac"},
}

// report is everything one run measured; -out writes it and -compare
// reads several of them.
type report struct {
	Seed       int64             `json:"seed"`
	Seconds    float64           `json:"seconds"`
	Trace      int               `json:"trace"`
	GoVersion  string            `json:"go_version"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	NumCPU     int               `json:"nproc"`
	Workloads  []*workloadReport `json:"workloads"`
}

type workloadReport struct {
	Name      string            `json:"name"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Failures  []string          `json:"failures,omitempty"`
	Digest    string            `json:"digest"`
	Metrics   map[string]metric `json:"metrics"`
}

// metric is one measured value. Spread is the interquartile range of
// the samples behind it relative to their median (0 when the value is
// not a median of samples).
type metric struct {
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	N      int     `json:"n"`
	Spread float64 `json:"spread,omitempty"`
}

// maxFailures caps the failure messages a report keeps per workload.
const maxFailures = 8

func (wr *workloadReport) fail(err error) {
	wr.Failed++
	if len(wr.Failures) < maxFailures {
		wr.Failures = append(wr.Failures, err.Error())
	}
}

func (wr *workloadReport) set(name string, v float64, n int, spread float64) {
	wr.Metrics[name] = metric{Value: v, Unit: unitOf(name), N: n, Spread: spread}
}

func unitOf(name string) string {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if d.name == name {
				return d.unit
			}
		}
	}
	panic("benchmark: undefined metric " + name)
}

// print writes one workload's results as a table, end-to-end metrics
// first.
func (wr *workloadReport) print(w io.Writer) {
	fmt.Fprintf(w, "== %s: %d ops attempted, %d failed, digest %.16s\n", wr.Name, wr.Attempted, wr.Failed, wr.Digest)
	for _, f := range wr.Failures {
		fmt.Fprintf(w, "   FAILED: %s\n", f)
	}
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			m, ok := wr.Metrics[d.name]
			if !ok {
				continue
			}
			fmt.Fprintf(w, "   %-28s %14.6g %-6s n=%d", d.name, m.Value, m.Unit, m.N)
			if m.Spread != 0 {
				fmt.Fprintf(w, "  iqr %.1f%%", 100*m.Spread)
			}
			fmt.Fprintln(w)
		}
	}
}

// resultLine is the last line a run prints: the totals and every
// metric measured, prefixed by the workload name when the run covered
// more than one workload.
type resultLine struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]resultItem `json:"metrics"`
}

type resultItem struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *report) resultLine() resultLine {
	line := resultLine{Metrics: map[string]resultItem{}}
	for _, wr := range r.Workloads {
		line.Attempted += wr.Attempted
		line.Failed += wr.Failed
		for name, m := range wr.Metrics {
			if len(r.Workloads) > 1 {
				name = wr.Name + "." + name
			}
			line.Metrics[name] = resultItem{m.Value, m.Unit}
		}
	}
	line.Correct = line.Failed == 0
	return line
}

// benchmarkFile is the part of BENCHMARK.json the benchmark reads.
type benchmarkFile struct {
	RunSeconds float64 `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// Verdicts of a comparison.
const (
	within     = "within"
	regressed  = "regressed"
	unresolved = "unresolved"
)

// minRuns is the fewest runs per side from which -compare measures the
// spread between runs. The host's speed drifts from one run to the next
// by more than a single run shows, so with fewer runs a pair worse than
// its bound cannot be told from drift and stays unresolved.
const minRuns = 3

// verdict judges one (workload, end-to-end metric) pair of two sets of
// runs.
type verdict struct {
	workload, metric string
	// base and head are the medians of each side's runs.
	base, head float64
	// worse is the relative change of the medians in the metric's bad
	// direction. spread is the larger of the two sides' interquartile
	// ranges between runs, relative to their medians; it is -1 when a
	// side has fewer than minRuns runs.
	worse, spread, bound float64
	status               string
}

// compareReports judges every (workload, end-to-end metric) pair of the
// head runs against the base runs:
//   - unresolved when either side lacks the pair; when the spread
//     between runs is wider than the bound, unless every head run reads
//     better than every base run; or when the medians worsened by more
//     than the bound but a side has too few runs to measure the spread;
//   - regressed when the medians worsened by more than the bound;
//   - within otherwise.
func compareReports(bf *benchmarkFile, base, head []*report) []verdict {
	var out []verdict
	for _, name := range workloadNames(base) {
		for _, def := range bf.EndToEnd {
			v := verdict{workload: name, metric: def.Name, bound: def.Bound, spread: -1, status: unresolved}
			bs, hs := valuesOf(base, name, def.Name), valuesOf(head, name, def.Name)
			if len(bs) > 0 && len(hs) > 0 {
				// sign turns every metric into lower-is-better.
				sign := 1.0
				if def.Better == "higher" {
					sign = -1
				}
				v.base, v.head = median(bs), median(hs)
				v.worse = sign * ratio(v.head-v.base, math.Abs(v.base))
				if len(bs) >= minRuns && len(hs) >= minRuns {
					v.spread = math.Max(relIQR(bs), relIQR(hs))
				}
				switch {
				case v.spread > v.bound:
					if allBetter(sign, bs, hs) {
						v.status = within
					}
				case v.worse <= v.bound:
					v.status = within
				case v.spread >= 0:
					v.status = regressed
				}
			}
			out = append(out, v)
		}
	}
	return out
}

// workloadNames lists the workloads of the reports in order of first
// appearance.
func workloadNames(reps []*report) []string {
	var names []string
	seen := map[string]bool{}
	for _, r := range reps {
		for _, w := range r.Workloads {
			if !seen[w.Name] {
				seen[w.Name] = true
				names = append(names, w.Name)
			}
		}
	}
	return names
}

// valuesOf collects one (workload, metric) value from every report that
// has it.
func valuesOf(reps []*report, workload, metric string) []float64 {
	var vs []float64
	for _, r := range reps {
		for _, w := range r.Workloads {
			if m, ok := w.Metrics[metric]; ok && w.Name == workload {
				vs = append(vs, m.Value)
			}
		}
	}
	return vs
}

// allBetter reports whether every head value is better than every base
// value; sign is -1 for a metric where higher is better.
func allBetter(sign float64, base, head []float64) bool {
	for _, h := range head {
		for _, b := range base {
			if sign*h >= sign*b {
				return false
			}
		}
	}
	return true
}

// compareMain is -compare: it prints a verdict per pair and returns 1
// when any pair regressed. Each argument is a comma-separated list of
// -out reports: the base runs, then the head runs.
func compareMain(benchPath string, args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: benchmark -compare base1.json[,base2.json...] head1.json[,head2.json...]")
		return 2
	}
	var bf benchmarkFile
	if err := readJSON(benchPath, &bf); err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 2
	}
	var sides [2][]*report
	for i, arg := range args {
		for _, path := range strings.Split(arg, ",") {
			r := &report{}
			if err := readJSON(path, r); err != nil {
				fmt.Fprintf(stderr, "benchmark: %v\n", err)
				return 2
			}
			sides[i] = append(sides[i], r)
		}
	}
	base, head := sides[0], sides[1]
	first := base[0]
	for _, r := range append(base[1:], head...) {
		if r.GOMAXPROCS != first.GOMAXPROCS {
			fmt.Fprintf(stdout, "warning: gomaxprocs differs (%d vs %d)\n", first.GOMAXPROCS, r.GOMAXPROCS)
		}
		if goMinor(r.GoVersion) != goMinor(first.GoVersion) {
			fmt.Fprintf(stdout, "warning: Go version differs (%s vs %s)\n", first.GoVersion, r.GoVersion)
		}
	}
	fmt.Fprintf(stdout, "%d base runs, %d head runs\n", len(base), len(head))
	status := 0
	for _, v := range compareReports(&bf, base, head) {
		spread := "  n/a"
		if v.spread >= 0 {
			spread = fmt.Sprintf("%4.1f%%", 100*v.spread)
		}
		fmt.Fprintf(stdout, "%-14s %-16s %14.6g -> %-14.6g worse %+7.2f%% spread %s (bound %.0f%%)  %s\n",
			v.workload, v.metric, v.base, v.head, 100*v.worse, spread, 100*v.bound, v.status)
		if v.status == regressed {
			status = 1
		}
	}
	return status
}

// goMinor trims a Go version to its minor release: go1.24.3 -> go1.24.
func goMinor(v string) string {
	if i := strings.Index(v, "."); i >= 0 {
		if j := strings.Index(v[i+1:], "."); j >= 0 {
			return v[:i+1+j]
		}
	}
	return v
}
