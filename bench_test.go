// Benchmarks regenerating the paper's tables and figures (one benchmark
// per artifact, §5 evaluation + §3 analysis), plus ablation benchmarks
// for the design choices called out in DESIGN.md and the simulator's
// whole-run allocation budgets (TestWholeRunAllocations).
//
// Figure benchmarks run reduced-size configurations so `go test -bench=.`
// stays tractable; cmd/lfoc-bench regenerates the full artifacts.
package lfoc

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"github.com/faircache/lfoc/internal/appmodel"
	"github.com/faircache/lfoc/internal/cache"
	"github.com/faircache/lfoc/internal/cat"
	"github.com/faircache/lfoc/internal/cluster"
	"github.com/faircache/lfoc/internal/core"
	fp "github.com/faircache/lfoc/internal/fixedpoint"
	"github.com/faircache/lfoc/internal/harness"
	"github.com/faircache/lfoc/internal/lookahead"
	"github.com/faircache/lfoc/internal/machine"
	"github.com/faircache/lfoc/internal/pbb"
	"github.com/faircache/lfoc/internal/policy"
	"github.com/faircache/lfoc/internal/profiles"
	"github.com/faircache/lfoc/internal/sharing"
	"github.com/faircache/lfoc/internal/sim"
	"github.com/faircache/lfoc/internal/workloads"
)

func benchConfig() harness.Config {
	cfg := harness.DefaultConfig()
	cfg.Scale = 200
	cfg.SolverBudgetSmall = 50_000
	cfg.SolverBudgetLarge = 1_000
	return cfg
}

// BenchmarkFig1Profiles regenerates Fig. 1 (slowdown & LLCMPKC curves
// for lbm and xalancbmk).
func BenchmarkFig1Profiles(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		d := harness.Fig1(cfg)
		if len(d.Lbm) != cfg.Plat.Ways {
			b.Fatal("bad curve")
		}
	}
}

// BenchmarkFig2OptimalStructure regenerates Fig. 2 (optimal-clustering
// structure) over a reduced mix count.
func BenchmarkFig2OptimalStructure(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		d, err := harness.Fig2(cfg, 3)
		if err != nil {
			b.Fatal(err)
		}
		if d.StreamingIn1Way < 0.5 {
			b.Fatal("unexpected structure")
		}
	}
}

// BenchmarkFig3ClusteringVsPartitioning regenerates Fig. 3 (optimal
// clustering vs optimal partitioning) with one mix per size.
func BenchmarkFig3ClusteringVsPartitioning(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		d, err := harness.Fig3(cfg, 1)
		if err != nil {
			b.Fatal(err)
		}
		if len(d.Rows) != 8 {
			b.Fatal("bad rows")
		}
	}
}

// BenchmarkFig4PhaseTrace regenerates Fig. 4 (fotonik3d's LLCMPKC trace).
func BenchmarkFig4PhaseTrace(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		d := harness.Fig4(cfg, 160)
		if d.PhaseChange <= 0 {
			b.Fatal("no phase change")
		}
	}
}

// BenchmarkFig5WorkloadMatrix regenerates Fig. 5 (workload composition).
func BenchmarkFig5WorkloadMatrix(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		d := harness.Fig5(cfg)
		if len(d.Workloads) != 36 {
			b.Fatal("bad matrix")
		}
	}
}

// BenchmarkFig6StaticClustering regenerates one workload's slice of
// Fig. 6 (all static policies vs stock).
func BenchmarkFig6StaticClustering(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		d, err := harness.Fig6(cfg, []string{"S1"})
		if err != nil {
			b.Fatal(err)
		}
		if d.Rows[0].NormUnf[2] >= 1 { // LFOC must beat stock
			b.Fatal("LFOC did not improve fairness")
		}
	}
}

// BenchmarkFig7DynamicPolicies regenerates one workload's slice of
// Fig. 7 (dynamic Stock/Dunn/LFOC).
func BenchmarkFig7DynamicPolicies(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		d, err := harness.Fig7(cfg, []string{"P1"})
		if err != nil {
			b.Fatal(err)
		}
		if len(d.Rows) != 1 {
			b.Fatal("bad rows")
		}
	}
}

// table2Inputs builds the partitioning-algorithm inputs for a size.
func table2Inputs(n int) ([]core.AppInfo, *policy.Workload, core.Params) {
	plat := machine.Skylake()
	w := workloads.RandomMix(int64(7000+n), n)
	sw := &policy.Workload{Plat: plat}
	for _, name := range w.Benchmarks {
		spec := profiles.MustGet(name)
		ph := &spec.Phases[0]
		sw.Phases = append(sw.Phases, ph)
		sw.Tables = append(sw.Tables, appmodel.BuildTable(ph, plat))
	}
	params := core.DefaultParams(plat.Ways)
	infos := make([]core.AppInfo, n)
	for i, t := range sw.Tables {
		prof := policy.ProfileFromTable(t)
		infos[i] = core.AppInfo{ID: i, Class: core.Classify(prof, &params), Profile: prof}
	}
	return infos, sw, params
}

// BenchmarkTable2LFOC measures LFOC's partitioning algorithm (Table 2,
// top row) for every workload size the paper reports, on one warm
// core.Partitioner as the controller runs it.
func BenchmarkTable2LFOC(b *testing.B) {
	for n := 4; n <= 11; n++ {
		infos, _, params := table2Inputs(n)
		b.Run(sizeName(n), func(b *testing.B) {
			var part core.Partitioner
			if _, err := part.Partition(infos, &params); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := part.Partition(infos, &params); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestPartitionerSteadyStateAllocFree pins Table 2's LFOC row at zero
// allocations: a warm core.Partitioner reruns Algorithm 1 on every
// Table 2 input size without allocating.
func TestPartitionerSteadyStateAllocFree(t *testing.T) {
	for n := 4; n <= 11; n++ {
		infos, _, params := table2Inputs(n)
		var part core.Partitioner
		if _, err := part.Partition(infos, &params); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := part.Partition(infos, &params); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%d apps: a warm Partitioner allocates %v times per call, want 0", n, allocs)
		}
	}
}

// BenchmarkTable2KPart measures KPart's algorithm (Table 2, bottom row).
func BenchmarkTable2KPart(b *testing.B) {
	for n := 4; n <= 11; n++ {
		_, sw, _ := table2Inputs(n)
		b.Run(sizeName(n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := (policy.KPart{}).Decide(sw); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func sizeName(n int) string { return fmt.Sprintf("apps-%02d", n) }

// ---------------------------------------------------------------------
// Ablation benchmarks (DESIGN.md §4).
// ---------------------------------------------------------------------

// BenchmarkAblationFixedVsFloat contrasts the fixed-point arithmetic the
// kernel constraint forces on LFOC with the float math it forgoes.
func BenchmarkAblationFixedVsFloat(b *testing.B) {
	b.Run("fixedpoint", func(b *testing.B) {
		x := fp.FromMilli(1537)
		y := fp.FromMilli(1031)
		var acc fp.Value
		for i := 0; i < b.N; i++ {
			acc += fp.Div(fp.Mul(x, y), y)
		}
		_ = acc
	})
	b.Run("float64", func(b *testing.B) {
		x, y := 1.537, 1.031
		var acc float64
		for i := 0; i < b.N; i++ {
			acc += x * y / y
		}
		_ = acc
	})
}

// BenchmarkAblationSamplingSweep contrasts LFOC's early-stopping upward
// sweep with a KPart-style full sweep on a streaming application: the
// early stop terminates after ~FlatStepsToStop+1 windows instead of
// ways−1.
func BenchmarkAblationSamplingSweep(b *testing.B) {
	params := core.DefaultParams(11)
	streamIPC := fp.FromMilli(520)
	streamMPKC := fp.FromInt(26)
	b.Run("early-stop", func(b *testing.B) {
		steps := 0
		for i := 0; i < b.N; i++ {
			s := core.NewSampling(&params)
			for !s.Done() {
				s.Record(streamIPC, streamMPKC)
			}
			steps = s.Steps()
		}
		b.ReportMetric(float64(steps), "windows/episode")
	})
	b.Run("full-sweep", func(b *testing.B) {
		full := params
		// Disable both early-stop rules.
		full.LowThresholdMPKC = 0
		full.FlatStepsToStop = 1 << 30
		steps := 0
		for i := 0; i < b.N; i++ {
			s := core.NewSampling(&full)
			for !s.Done() {
				s.Record(streamIPC, streamMPKC)
			}
			steps = s.Steps()
		}
		b.ReportMetric(float64(steps), "windows/episode")
	})
}

// BenchmarkAblationSolverSeeding contrasts the optimal solver with and
// without the LFOC warm start that makes its anytime mode effective.
func BenchmarkAblationSolverSeeding(b *testing.B) {
	plat := machine.Skylake()
	w := workloads.RandomMix(11, 9)
	var phases []*appmodel.PhaseSpec
	sw := &policy.Workload{Plat: plat}
	for _, name := range w.Benchmarks {
		spec := profiles.MustGet(name)
		ph := &spec.Phases[0]
		phases = append(phases, ph)
		sw.Phases = append(sw.Phases, ph)
		sw.Tables = append(sw.Tables, appmodel.BuildTable(ph, plat))
	}
	seed, err := (policy.LFOCStatic{}).Decide(sw)
	if err != nil {
		b.Fatal(err)
	}
	run := func(b *testing.B, seeded bool) {
		for i := 0; i < b.N; i++ {
			s := pbb.New(plat)
			if seeded {
				s.Seeds = append(s.Seeds, seed)
			}
			if _, err := s.OptimalClustering(phases, pbb.Fairness); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("seeded", func(b *testing.B) { run(b, true) })
	b.Run("unseeded", func(b *testing.B) { run(b, false) })
}

// BenchmarkContentionModel measures one co-run equilibrium evaluation
// (the inner loop of both the solver and the simulator) through the
// compatibility map API.
func BenchmarkContentionModel(b *testing.B) {
	plat := machine.Skylake()
	model := sharing.NewModel(plat)
	var apps []sharing.App
	names := []string{"xalancbmk06", "soplex06", "lbm06", "milc06", "povray06", "namd06", "omnetpp06", "gamess06"}
	for i, n := range names {
		apps = append(apps, sharing.App{ID: i, Phase: &profiles.MustGet(n).Phases[0], Mask: cat.FullMask(plat.Ways)})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := model.Evaluate(apps)
		if len(res) != len(apps) {
			b.Fatal("bad result")
		}
	}
}

// BenchmarkContentionModelSession measures the same equilibrium through
// the reusable Evaluator session (the allocation-free hot path the
// solver and simulator actually use).
func BenchmarkContentionModelSession(b *testing.B) {
	plat := machine.Skylake()
	model := sharing.NewModel(plat)
	eval := sharing.NewEvaluator(model)
	var apps []sharing.App
	names := []string{"xalancbmk06", "soplex06", "lbm06", "milc06", "povray06", "namd06", "omnetpp06", "gamess06"}
	for i, n := range names {
		apps = append(apps, sharing.App{ID: i, Phase: &profiles.MustGet(n).Phases[0], Mask: cat.FullMask(plat.Ways)})
	}
	var res []sharing.Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res = eval.EvaluateInto(res, apps)
		if len(res) != len(apps) {
			b.Fatal("bad result")
		}
	}
}

// BenchmarkSolverWorkers measures the branch-and-bound's scaling with
// worker count on a 9-app clustering search: the lock-free read path
// must let Workers=GOMAXPROCS beat (or on a single-core machine, match)
// Workers=1.
func BenchmarkSolverWorkers(b *testing.B) {
	plat := machine.Skylake()
	w := workloads.RandomMix(11, 9)
	var phases []*appmodel.PhaseSpec
	for _, name := range w.Benchmarks {
		phases = append(phases, &profiles.MustGet(name).Phases[0])
	}
	counts := []int{1}
	if n := runtime.GOMAXPROCS(0); n > 1 {
		counts = append(counts, n)
	} else {
		counts = append(counts, 4) // exercise the pool even on 1 CPU
	}
	for _, workers := range counts {
		b.Run(fmt.Sprintf("workers-%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s := pbb.New(plat)
				s.Workers = workers
				if _, err := s.OptimalClustering(phases, pbb.Fairness); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkLLCAccess measures the trace-driven way-partitioned LLC model.
func BenchmarkLLCAccess(b *testing.B) {
	llc, err := cache.New(1024, 11, 64)
	if err != nil {
		b.Fatal(err)
	}
	_ = llc.SetMask(1, cat.MaskRange(0, 4))
	tr := cache.NewZipfTrace(1, 0, 1<<24, 64, 1.1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		llc.Access(1, tr.Next())
	}
}

// BenchmarkLookahead measures the shared way-distribution primitive.
func BenchmarkLookahead(b *testing.B) {
	util := make([][]int64, 8)
	for i := range util {
		u := make([]int64, 12)
		for w := 1; w <= 11; w++ {
			u[w] = int64(w * (i + 1) * 10)
		}
		util[i] = u
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := lookahead.Allocate(util, 11); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------
// Whole-run allocation budgets (DESIGN.md §6).
// ---------------------------------------------------------------------

// wholeRunAllocSlack absorbs runtime background allocations that land
// inside a measured run.
const wholeRunAllocSlack = 16

// cluster1k returns one whole run of a 1024-machine heterogeneous fleet
// (512 11-way and 512 7-way machines, LFOC on each, least-loaded
// placement) under Poisson churn of the S1 mix, with the fleet advanced
// by the given number of workers. Each call of the returned function
// builds its own policies, placement and scenario.
func cluster1k(tb testing.TB, workers int) func() error {
	cfg := harness.DefaultConfig()
	w, err := workloads.Get("S1")
	if err != nil {
		tb.Fatal(err)
	}
	fleet, err := cluster.ParseMachineMix("512x11way,512x7way", cfg.SimConfig())
	if err != nil {
		tb.Fatal(err)
	}
	return func() error {
		scn, err := w.OpenScenario(128, 4, 7, cfg.Scale)
		if err != nil {
			return err
		}
		ccfg := cluster.Config{Fleet: fleet, Placement: cluster.NewLeastLoaded(), Workers: workers}
		_, err = cluster.Run(ccfg, scn, func(i int) (sim.Dynamic, error) {
			pol, _, err := cfg.NewDynamicPolicyFor("lfoc", fleet[i].Plat)
			return pol, err
		})
		return err
	}
}

// BenchmarkClusterFleet1k times TestWholeRunAllocations' 1024-machine
// fleet run with the fleet advanced inline (workers=1) and on a
// two-worker pool (workers=2), so the pool's cost shows without the
// benchmark module.
func BenchmarkClusterFleet1k(b *testing.B) {
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			run := cluster1k(b, workers)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := run(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestWholeRunAllocations holds seven deterministic whole runs to their
// allocation budgets. Five run under the LFOC policy: the paper's closed
// batch on the S1 mix, an open-system churn run (seeded Poisson
// arrivals), a 4-machine cluster behind one arrival stream
// (fairness-aware placement, serial advancement so counts stay
// machine-independent), and a 1024-machine heterogeneous fleet under
// Poisson churn, advanced inline and on a two-worker pool. Two cover
// the Fig. 7 policies' decision paths: the closed S1 batch under Dunn,
// which re-clusters at every activation, and the closed batch of the
// Fig. 7 mix P1 under LFOC, whose sampling episodes repeat. The
// simulator is deterministic, so its allocation count moves only when
// the code does. When a change grows a count on purpose, refresh its
// budget from this test's -v log.
func TestWholeRunAllocations(t *testing.T) {
	if testing.Short() {
		t.Skip("runs seven whole simulations, two of them over 1024 machines")
	}
	// Allocation counts shift between Go releases; the budgets were
	// recorded with go1.24.
	if v := runtime.Version(); v != "go1.24" && !strings.HasPrefix(v, "go1.24.") {
		t.Skipf("allocation budgets are for go1.24, not %s", v)
	}
	if raceEnabled {
		t.Skip("the race detector's runtime adds allocations the budgets do not count")
	}
	cfg := harness.DefaultConfig()
	w, err := workloads.Get("S1")
	if err != nil {
		t.Fatal(err)
	}
	p1, err := workloads.Get("P1")
	if err != nil {
		t.Fatal(err)
	}
	simCfg := cfg.SimConfig()

	// Policies, placements and scenarios are built inside each run:
	// AllocsPerRun calls a run twice (a warm-up, then the measured
	// call), and state shared between the calls would undercount.
	closed := func(w workloads.Workload, name string) func() error {
		return func() error {
			pol, _, err := cfg.NewDynamicPolicy(name)
			if err != nil {
				return err
			}
			_, err = sim.RunDynamic(simCfg, w.ScaledSpecs(cfg.Scale), pol)
			return err
		}
	}
	openChurn := func() error {
		scn, err := w.OpenScenario(2, 4, 7, cfg.Scale)
		if err != nil {
			return err
		}
		pol, _, err := cfg.NewDynamicPolicy("lfoc")
		if err != nil {
			return err
		}
		_, err = sim.RunOpen(simCfg, scn, pol)
		return err
	}
	cluster4 := func() error {
		scn, err := w.OpenScenario(4, 4, 7, cfg.Scale)
		if err != nil {
			return err
		}
		pl, err := cluster.NewPlacement("fair", cfg.Plat)
		if err != nil {
			return err
		}
		ccfg := cluster.Config{Sim: simCfg, Machines: 4, Placement: pl, Workers: 1}
		_, err = cluster.Run(ccfg, scn, func(int) (sim.Dynamic, error) {
			pol, _, err := cfg.NewDynamicPolicy("lfoc")
			return pol, err
		})
		return err
	}
	for _, c := range []struct {
		name   string
		budget float64 // allocations per run
		run    func() error
	}{
		{"closed-batch", 292, closed(w, "lfoc")},
		{"open-churn", 268, openChurn},
		{"cluster-4", 875, cluster4},
		{"cluster-1k", 32977, cluster1k(t, 1)},
		{"closed-dunn", 223, closed(w, "dunn")},
		{"closed-p1", 328, closed(p1, "lfoc")},
		// The batched fleet pool allocates nothing per batch: at two
		// workers the fleet run stays within the serial run's budget.
		{"cluster-1k-w2", 32977, cluster1k(t, 2)},
	} {
		t.Run(c.name, func(t *testing.T) {
			var err error
			allocs := testing.AllocsPerRun(1, func() {
				if e := c.run(); e != nil {
					err = e
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("%.0f allocations per run (budget %.0f + %d)", allocs, c.budget, wholeRunAllocSlack)
			if allocs > c.budget+wholeRunAllocSlack {
				t.Errorf("%.0f allocations per run, over the budget of %.0f + %d", allocs, c.budget, wholeRunAllocSlack)
			}
		})
	}
}
