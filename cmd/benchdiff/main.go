// Command benchdiff is the CI perf-regression gate for Table 2: it
// compares a freshly generated JSON baseline (lfoc-bench -json) against
// the committed reference and fails — exits non-zero — when a
// partitioning algorithm got meaningfully slower or started allocating
// more.
//
// Usage:
//
//	benchdiff -baseline BENCH_table2.json -current BENCH_new.json
//
// The gates:
//
//   - Time: the median over workload sizes of the current/baseline
//     solve-time ratio must stay within -max-time-ratio (default 1.25,
//     i.e. a >25% median regression fails). The median over the eight
//     sizes absorbs single-row scheduler noise; the threshold absorbs
//     runner-to-runner variance.
//   - Allocations: allocs per invocation must not regress at all (they
//     are deterministic counts, so any growth is a real code change);
//     -alloc-slack (default 0.5 allocs/op) only absorbs background
//     runtime allocations smeared across the timing loop.
//
// To refresh the committed baseline intentionally (after an accepted
// perf change), regenerate it with the same iteration count CI uses and
// commit the result:
//
//	go run ./cmd/lfoc-bench -table 2 -iters 50 -json BENCH_table2.json
//
// The simulator's wall time is measured by the benchmark module (bash
// benchmark/run.sh, gated with its -compare mode), and its whole-run
// allocation budgets by TestWholeRunAllocations.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"

	"github.com/faircache/lfoc/internal/harness"
)

// baselineFile mirrors the lfoc-bench -json schema (the fields the gate
// reads; unknown fields are ignored).
type baselineFile struct {
	GeneratedAt  string              `json:"generated_at"`
	GoVersion    string              `json:"go_version"`
	Scale        uint64              `json:"scale"`
	ItersPerSize int                 `json:"iters_per_size"`
	Rows         []harness.Table2Row `json:"rows"`
}

func load(path string) (baselineFile, error) {
	var b baselineFile
	buf, err := os.ReadFile(path)
	if err != nil {
		return b, err
	}
	if err := json.Unmarshal(buf, &b); err != nil {
		return b, fmt.Errorf("%s: %w", path, err)
	}
	if len(b.Rows) == 0 {
		return b, fmt.Errorf("%s: no rows", path)
	}
	return b, nil
}

// minorVersion truncates a runtime.Version string to major.minor
// ("go1.24.5" → "go1.24"), the granularity at which alloc counts are
// comparable.
func minorVersion(v string) string {
	dots := 0
	for i, c := range v {
		if c == '.' {
			dots++
			if dots == 2 {
				return v[:i]
			}
		}
	}
	return v
}

func median(v []float64) float64 {
	sort.Float64s(v)
	n := len(v)
	if n%2 == 1 {
		return v[n/2]
	}
	return (v[n/2-1] + v[n/2]) / 2
}

func main() {
	var (
		basePath   = flag.String("baseline", "BENCH_table2.json", "committed Table 2 reference baseline")
		currPath   = flag.String("current", "", "freshly generated Table 2 baseline to check (required)")
		timeRatio  = flag.Float64("max-time-ratio", 1.25, "fail when a median solve-time ratio exceeds this")
		allocSlack = flag.Float64("alloc-slack", 0.5, "allocs/op tolerance for runtime background noise")
	)
	flag.Parse()
	if flag.NArg() > 0 || *currPath == "" {
		fmt.Fprintln(os.Stderr, "benchdiff: need -current")
		flag.Usage()
		os.Exit(2)
	}

	failures, err := diffTable2(*basePath, *currPath, *timeRatio, *allocSlack)
	exitOn(err)
	if failures > 0 {
		fmt.Fprintf(os.Stderr, "benchdiff: %d regression(s)\n", failures)
		os.Exit(1)
	}
	fmt.Println("benchdiff: no perf regression")
}

// diffTable2 runs the Table 2 gates and returns the failure count; an
// unreadable file or a comparison with no common rows is an error.
func diffTable2(basePath, currPath string, timeRatio, allocSlack float64) (int, error) {
	base, err := load(basePath)
	if err != nil {
		return 0, err
	}
	curr, err := load(currPath)
	if err != nil {
		return 0, err
	}

	// Alloc counts are deterministic per Go release but can shift
	// between releases; comparing across major.minor versions would gate
	// on the toolchain, not the code.
	sameGo := minorVersion(base.GoVersion) == minorVersion(curr.GoVersion)
	if !sameGo {
		fmt.Fprintf(os.Stderr, "benchdiff: WARNING baseline is %s but current is %s; skipping the allocs/op gate (refresh the baseline on the CI Go version)\n",
			base.GoVersion, curr.GoVersion)
	}

	baseRows := map[int]harness.Table2Row{}
	for _, r := range base.Rows {
		baseRows[r.Apps] = r
	}
	currApps := map[int]bool{}
	for _, r := range curr.Rows {
		currApps[r.Apps] = true
	}

	fmt.Printf("benchdiff: %s (go %s, iters %d) vs %s (go %s, iters %d)\n",
		basePath, base.GoVersion, base.ItersPerSize, currPath, curr.GoVersion, curr.ItersPerSize)
	fmt.Printf("%5s %12s %12s %7s %12s %12s %7s %10s %10s\n",
		"#apps", "lfoc-base", "lfoc-curr", "ratio", "kpart-base", "kpart-curr", "ratio", "allocs-b", "allocs-c")

	var lfocRatios, kpartRatios []float64
	failures := 0
	for _, c := range curr.Rows {
		b, ok := baseRows[c.Apps]
		if !ok {
			fmt.Fprintf(os.Stderr, "benchdiff: no baseline row for %d apps\n", c.Apps)
			failures++
			continue
		}
		lr, kr := c.LFOCms/b.LFOCms, c.KPartms/b.KPartms
		lfocRatios = append(lfocRatios, lr)
		kpartRatios = append(kpartRatios, kr)
		fmt.Printf("%5d %10.5fms %10.5fms %7.2f %10.5fms %10.5fms %7.2f %10.1f %10.1f\n",
			c.Apps, b.LFOCms, c.LFOCms, lr, b.KPartms, c.KPartms, kr, b.LFOCAllocs, c.LFOCAllocs)
		if sameGo && c.LFOCAllocs > b.LFOCAllocs+allocSlack {
			fmt.Fprintf(os.Stderr, "benchdiff: FAIL %d apps: LFOC allocs/op %.1f > baseline %.1f\n",
				c.Apps, c.LFOCAllocs, b.LFOCAllocs)
			failures++
		}
		if sameGo && c.KPartAllocs > b.KPartAllocs+allocSlack {
			fmt.Fprintf(os.Stderr, "benchdiff: FAIL %d apps: KPart allocs/op %.1f > baseline %.1f\n",
				c.Apps, c.KPartAllocs, b.KPartAllocs)
			failures++
		}
	}
	// Symmetric coverage: a baseline size the current run never measured
	// is a gap in the gate, not a pass.
	for _, b := range base.Rows {
		if !currApps[b.Apps] {
			fmt.Fprintf(os.Stderr, "benchdiff: FAIL baseline row for %d apps missing from current results\n", b.Apps)
			failures++
		}
	}
	if len(lfocRatios) == 0 {
		return failures, fmt.Errorf("no comparable rows")
	}

	lfocMed, kpartMed := median(lfocRatios), median(kpartRatios)
	fmt.Printf("median solve-time ratio: LFOC %.3f, KPart %.3f (gate %.2f)\n", lfocMed, kpartMed, timeRatio)
	if lfocMed > timeRatio {
		fmt.Fprintf(os.Stderr, "benchdiff: FAIL median LFOC solve time regressed %.0f%% (> %.0f%%)\n",
			(lfocMed-1)*100, (timeRatio-1)*100)
		failures++
	}
	if kpartMed > timeRatio {
		fmt.Fprintf(os.Stderr, "benchdiff: FAIL median KPart solve time regressed %.0f%% (> %.0f%%)\n",
			(kpartMed-1)*100, (timeRatio-1)*100)
		failures++
	}
	return failures, nil
}

func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(1)
	}
}
