package harness

import (
	"strings"
	"testing"
)

// fastConfig keeps harness tests quick: heavier scaling and tight solver
// budgets. Shape assertions still hold at this scale.
func fastConfig() Config {
	cfg := DefaultConfig()
	cfg.Scale = 150
	cfg.SolverBudgetSmall = 30_000
	cfg.SolverBudgetLarge = 1_000
	return cfg
}

func TestFig1Shapes(t *testing.T) {
	d := Fig1(fastConfig())
	if len(d.Lbm) != 11 || len(d.Xalan) != 11 {
		t.Fatal("curve lengths wrong")
	}
	// lbm flat, xalancbmk steep.
	if d.Lbm[0].Slowdown > 1.06 {
		t.Errorf("lbm slowdown@1 = %v", d.Lbm[0].Slowdown)
	}
	if d.Xalan[0].Slowdown < 1.5 {
		t.Errorf("xalancbmk slowdown@1 = %v", d.Xalan[0].Slowdown)
	}
	if d.Lbm[0].MPKC < 15 {
		t.Errorf("lbm MPKC@1 = %v", d.Lbm[0].MPKC)
	}
	if !strings.Contains(d.Render(), "xalancbmk") {
		t.Error("render missing series")
	}
}

func TestFig2Structure(t *testing.T) {
	d, err := Fig2(fastConfig(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if d.StreamingIn1Way < 0.7 {
		t.Errorf("only %.0f%% of streaming instances in 1-way clusters (paper: >87%%)",
			d.StreamingIn1Way*100)
	}
	// Paper reports >77%; our catalog has more moderately-sensitive apps
	// (small critical sizes), so the share is lower but must remain the
	// dominant placement pattern (recorded in EXPERIMENTS.md).
	if d.SensitiveIn4Plus < 0.4 {
		t.Errorf("only %.0f%% of sensitive instances in >=4-way clusters (paper: >77%%)",
			d.SensitiveIn4Plus*100)
	}
	if !strings.Contains(d.Render(), "cluster-size") {
		t.Error("render broken")
	}
}

func TestFig3PartitioningDegrades(t *testing.T) {
	cfg := fastConfig()
	d, err := Fig3(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Rows) != 8 { // n = 4..11
		t.Fatalf("rows = %d", len(d.Rows))
	}
	// Partitioning must never beat clustering, and must degrade at the
	// largest size.
	for _, r := range d.Rows {
		if r.NormPartitioning < 0.999 {
			t.Errorf("n=%d: partitioning (%.3f) better than clustering", r.Apps, r.NormPartitioning)
		}
	}
	last := d.Rows[len(d.Rows)-1]
	if last.NormPartitioning < 1.02 {
		t.Errorf("n=11: normalized partitioning unfairness = %.3f, expected visible degradation",
			last.NormPartitioning)
	}
	if !strings.Contains(d.Render(), "optimal-partitioning") {
		t.Error("render broken")
	}
}

func TestFig4PhaseTransition(t *testing.T) {
	d := Fig4(fastConfig(), 120)
	if len(d.Points) != 120 {
		t.Fatal("point count wrong")
	}
	if d.PhaseChange <= 0 {
		t.Fatal("no phase change observed")
	}
	// Early windows: light (low MPKC); late windows: streaming (high).
	if d.Points[0].MPKC > 5 {
		t.Errorf("early MPKC = %v, want light", d.Points[0].MPKC)
	}
	lastPt := d.Points[len(d.Points)-1]
	if lastPt.MPKC < 10 {
		t.Errorf("late MPKC = %v, want streaming", lastPt.MPKC)
	}
	if !strings.Contains(d.Render(), "LLCMPKC") {
		t.Error("render broken")
	}
}

func TestFig5Matrix(t *testing.T) {
	d := Fig5(fastConfig())
	if len(d.Workloads) != 36 || len(d.Benchmarks) != 34 {
		t.Fatalf("matrix is %dx%d", len(d.Workloads), len(d.Benchmarks))
	}
	for wi, row := range d.Counts {
		sum := 0
		for _, c := range row {
			sum += c
			if c > 2 {
				t.Errorf("%s: cell count %d", d.Workloads[wi], c)
			}
		}
		if sum != 8 && sum != 12 && sum != 16 {
			t.Errorf("%s: size %d", d.Workloads[wi], sum)
		}
	}
	if !strings.Contains(d.Render(), "S1") {
		t.Error("render broken")
	}
}

func TestFig6SubsetShape(t *testing.T) {
	cfg := fastConfig()
	d, err := Fig6(cfg, []string{"S1", "S2"})
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Rows) != 2 {
		t.Fatalf("rows = %d", len(d.Rows))
	}
	// LFOC (index 2) must reduce unfairness vs stock on these mixes.
	for _, r := range d.Rows {
		if r.NormUnf[2] >= 1.0 {
			t.Errorf("%s: LFOC normalized unfairness %.3f >= 1", r.Workload, r.NormUnf[2])
		}
	}
	if !strings.Contains(d.Render(), "Best-Static") {
		t.Error("render broken")
	}
}

func TestFig7SubsetShape(t *testing.T) {
	cfg := fastConfig()
	d, err := Fig7(cfg, []string{"P1", "S1"})
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Rows) != 2 {
		t.Fatalf("rows = %d", len(d.Rows))
	}
	for _, r := range d.Rows {
		// LFOC (index 1) should improve fairness vs stock.
		if r.NormUnf[1] >= 1.05 {
			t.Errorf("%s: LFOC dynamic normalized unfairness %.3f", r.Workload, r.NormUnf[1])
		}
	}
	if !strings.Contains(d.Render(), "LFOC") {
		t.Error("render broken")
	}
}

func TestTable2Gap(t *testing.T) {
	d, err := Table2(fastConfig(), 20)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Rows) != 8 {
		t.Fatalf("rows = %d", len(d.Rows))
	}
	for _, r := range d.Rows {
		if r.LFOCms <= 0 || r.KPartms <= 0 {
			t.Fatalf("non-positive timing: %+v", r)
		}
		// The paper's headline: LFOC orders of magnitude faster.
		if r.KPartms < r.LFOCms*5 {
			t.Errorf("n=%d: KPart %.4fms not clearly slower than LFOC %.4fms",
				r.Apps, r.KPartms, r.LFOCms)
		}
	}
	if !strings.Contains(d.Render(), "KPart/LFOC") {
		t.Error("render broken")
	}
}

func TestAblationParams(t *testing.T) {
	cfg := fastConfig()
	d, err := AblationParams(cfg, []string{"S1"})
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Rows) != 16 {
		t.Fatalf("rows = %d", len(d.Rows))
	}
	// Every configuration must remain a valid improvement or at least
	// not a catastrophe, and the default (5,3) should be competitive:
	// within 10% of the best configuration in the sweep.
	best := d.Rows[0].GeoNormUnf
	var def float64
	for _, r := range d.Rows {
		if r.GeoNormUnf < best {
			best = r.GeoNormUnf
		}
		if r.MaxStreamingWay == 5 && r.GapsPerStreaming == 3 {
			def = r.GeoNormUnf
		}
	}
	if def == 0 {
		t.Fatal("default configuration missing from sweep")
	}
	if def > best*1.10 {
		t.Errorf("paper default (%.3f) is >10%% worse than best sweep point (%.3f)", def, best)
	}
	if !strings.Contains(d.Render(), "max_streaming_way") {
		t.Error("render broken")
	}
}

func TestSupplementUCP(t *testing.T) {
	cfg := fastConfig()
	d, err := SupplementUCP(cfg, []string{"S1", "S2"})
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Rows) != 2 {
		t.Fatalf("rows = %d", len(d.Rows))
	}
	// LFOC's clustering should be at least competitive with strict
	// partitioning on aggregate (the §2.2 motivation).
	if d.GeoLFOCUnf > d.GeoUCPUnf*1.05 {
		t.Errorf("LFOC (%.3f) clearly worse than UCP (%.3f)", d.GeoLFOCUnf, d.GeoUCPUnf)
	}
	if !strings.Contains(d.Render(), "UCP-unf") {
		t.Error("render broken")
	}
	// 12/16-app workloads are infeasible for UCP and must error.
	if _, err := SupplementUCP(cfg, []string{"S8"}); err == nil {
		t.Error("infeasible workload accepted")
	}
}
