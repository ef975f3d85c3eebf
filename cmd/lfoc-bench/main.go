// Command lfoc-bench regenerates the paper's tables and figures.
//
// Usage:
//
//	lfoc-bench -all                  # every artifact (slow at scale 1)
//	lfoc-bench -fig 6 -scale 50      # one figure at 1/50 time scale
//	lfoc-bench -table 2
//	lfoc-bench -fig 6 -workloads S1,S2,S3
//	lfoc-bench -table 2 -json BENCH_table2.json   # machine-readable baseline
//
// The -scale flag divides all instruction quantities and the partitioner
// period by the given factor (cadence ratios preserved); the default, 50,
// is the scale of README.md's "Regenerating the paper's artifacts". The
// -json flag additionally writes the Table 2 timings as a JSON baseline
// so the perf trajectory can be tracked across revisions (CI commits one
// per run). A flag that only some artifacts read (-json, -iters, -mixes,
// -mixes-per-n, -workloads, -budget) is a usage error when no selected
// artifact reads it.
// The simulator's performance record is the benchmark module
// (bash benchmark/run.sh, see benchmark/README.md).
// -cpuprofile/-memprofile write pprof profiles, so perf work starts
// from a profile instead of a guess.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"slices"
	"strings"
	"time"

	"github.com/faircache/lfoc/internal/atomicfile"
	"github.com/faircache/lfoc/internal/harness"
	"github.com/faircache/lfoc/internal/profiling"
)

// table2Baseline is the schema of the -json perf-baseline file.
type table2Baseline struct {
	GeneratedAt  string              `json:"generated_at"`
	GoVersion    string              `json:"go_version"`
	GOMAXPROCS   int                 `json:"gomaxprocs"`
	Scale        uint64              `json:"scale"`
	ItersPerSize int                 `json:"iters_per_size"`
	Rows         []harness.Table2Row `json:"rows"`
}

func writeTable2JSON(path string, d harness.Table2Data, scale uint64, iters int) error {
	b := table2Baseline{
		GeneratedAt:  time.Now().UTC().Format(time.RFC3339),
		GoVersion:    runtime.Version(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		Scale:        scale,
		ItersPerSize: iters,
		Rows:         d.Rows,
	}
	buf, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return err
	}
	// Atomic (temp+rename): an interrupted benchmark run can never leave
	// a truncated baseline behind for benchdiff to choke on.
	return atomicfile.WriteFile(path, append(buf, '\n'), 0o644)
}

func main() {
	var (
		fig       = flag.Int("fig", 0, "figure to regenerate (1..7); 0 = none")
		table     = flag.Int("table", 0, "table to regenerate (2); 0 = none")
		all       = flag.Bool("all", false, "regenerate every artifact")
		scale     = flag.Uint64("scale", 50, "time-scale divisor (1 = paper scale)")
		mixes     = flag.Int("mixes", 20, "random mixes for Fig. 2")
		mixesPerN = flag.Int("mixes-per-n", 5, "random mixes per size for Fig. 3")
		wl        = flag.String("workloads", "", "comma-separated workload subset for Figs. 6/7")
		budget    = flag.Uint64("budget", 0, "optimal-solver node budget override")
		ablation  = flag.Bool("ablation", false, "run the Algorithm 1 parameter sweep")
		ucp       = flag.Bool("ucp", false, "run the UCP-vs-LFOC supplement (8-app workloads)")
		iters     = flag.Int("iters", 200, "timing iterations per size for Table 2")
		jsonOut   = flag.String("json", "", "also write Table 2 timings as a JSON baseline to this file")
		cpuProf   = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf   = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()
	// Each flag below is read only by the artifacts of its row (-all
	// counts as every figure and Table 2); set anywhere else, it would be
	// ignored.
	explicit := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { explicit[f.Name] = true })
	figs := func(ns ...int) bool { return *all || slices.Contains(ns, *fig) }
	table2 := *all || *table == 2
	for _, row := range []struct {
		flag  string
		ok    bool
		where string
	}{
		{"json", table2, "-table 2 or -all"},
		{"iters", table2, "-table 2 or -all"},
		{"mixes", figs(2), "Fig. 2"},
		{"mixes-per-n", figs(3), "Fig. 3"},
		{"workloads", figs(6, 7) || *ablation || *ucp, "Fig. 6, Fig. 7, -ablation or -ucp"},
		{"budget", figs(2, 3, 6), "Fig. 2, 3 or 6"},
	} {
		if explicit[row.flag] && !row.ok {
			fmt.Fprintf(os.Stderr, "lfoc-bench: -%s applies only to %s\n", row.flag, row.where)
			flag.Usage()
			os.Exit(2)
		}
	}
	stopProfiles, err := profiling.Start(*cpuProf, *memProf)
	exitOn(err)
	profileCleanup = stopProfiles
	defer stopProfiles()

	cfg := harness.DefaultConfig()
	cfg.Scale = *scale
	if *budget > 0 {
		cfg.SolverBudgetSmall = *budget
		cfg.SolverBudgetLarge = *budget
	}
	var names []string
	if *wl != "" {
		names = strings.Split(*wl, ",")
	}

	run := func(n int) {
		switch n {
		case 1:
			fmt.Println(harness.Fig1(cfg).Render())
		case 2:
			d, err := harness.Fig2(cfg, *mixes)
			exitOn(err)
			fmt.Println(d.Render())
		case 3:
			d, err := harness.Fig3(cfg, *mixesPerN)
			exitOn(err)
			fmt.Println(d.Render())
		case 4:
			fmt.Println(harness.Fig4(cfg, 160).Render())
		case 5:
			fmt.Println(harness.Fig5(cfg).Render())
		case 6:
			d, err := harness.Fig6(cfg, names)
			exitOn(err)
			fmt.Println(d.Render())
		case 7:
			d, err := harness.Fig7(cfg, names)
			exitOn(err)
			fmt.Println(d.Render())
		default:
			exitOn(fmt.Errorf("unknown figure %d", n))
		}
	}

	runTable2 := func() {
		d, err := harness.Table2(cfg, *iters)
		exitOn(err)
		fmt.Println(d.Render())
		if *jsonOut != "" {
			exitOn(writeTable2JSON(*jsonOut, d, cfg.Scale, *iters))
			fmt.Fprintln(os.Stderr, "lfoc-bench: wrote", *jsonOut)
		}
	}

	did := false
	if *all {
		for n := 1; n <= 7; n++ {
			run(n)
		}
		runTable2()
		did = true
	}
	if *fig > 0 {
		run(*fig)
		did = true
	}
	if *table == 2 {
		runTable2()
		did = true
	} else if *table != 0 {
		exitOn(fmt.Errorf("unknown table %d (only Table 2 is an experiment; Table 1 is the classifier's thresholds)", *table))
	}
	if *ablation {
		d, err := harness.AblationParams(cfg, names)
		exitOn(err)
		fmt.Println(d.Render())
		did = true
	}
	if *ucp {
		d, err := harness.SupplementUCP(cfg, names)
		exitOn(err)
		fmt.Println(d.Render())
		did = true
	}
	if !did {
		flag.Usage()
		os.Exit(2)
	}
}

// profileCleanup finishes any in-flight profiles before a non-zero
// exit (deferred functions do not run across os.Exit).
var profileCleanup func()

func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "lfoc-bench:", err)
		if profileCleanup != nil {
			profileCleanup()
		}
		os.Exit(1)
	}
}
