package sim

// Tests for the event-horizon path (advanceHorizon) and the
// two-generation equilibrium memo: the batched advancement and the
// per-tick reference (advanceTick, pertick_test.go) must be bit-identical
// on every field of every result, for every scenario shape, machine
// shape and tick granularity, and cache eviction must never dump the
// equilibrium working set.

import (
	"fmt"
	"math"
	"reflect"
	"testing"
	"time"

	"github.com/faircache/lfoc/internal/appmodel"
	"github.com/faircache/lfoc/internal/core"
	"github.com/faircache/lfoc/internal/machine"
	"github.com/faircache/lfoc/internal/policy"
	"github.com/faircache/lfoc/internal/sim/binade"
	"github.com/faircache/lfoc/internal/sim/scenario"
)

// horizonPolicy mirrors harness.NewDynamicPolicy without importing the
// harness (which would cycle back into this package), scaling the LFOC
// and Dunn window cadences like the harness does at scale 50.
func horizonPolicy(t testing.TB, name string, plat *machine.Platform) Dynamic {
	t.Helper()
	switch name {
	case "stock":
		return policy.NewStockDynamic(plat.Ways)
	case "dunn":
		d := policy.NewDunnDynamic(plat.Ways)
		d.SetWindow(2_000_000)
		return d
	case "lfoc":
		params := core.DefaultParams(plat.Ways)
		params.NormalWindowInsns = 2_000_000
		params.SamplingWindowInsns = 200_000
		ctrl, err := core.NewController(params, plat.WayBytes)
		if err != nil {
			t.Fatal(err)
		}
		return ctrl
	default:
		t.Fatalf("unknown policy %q", name)
		return nil
	}
}

// uniformTrace builds an explicit open trace: count arrivals every
// interval seconds, cycling through the pool.
func uniformTrace(t testing.TB, pool []*appmodel.Spec, interval float64, count int) *scenario.Open {
	t.Helper()
	arrivals := make([]scenario.Arrival, count)
	for i := range arrivals {
		arrivals[i] = scenario.Arrival{Time: float64(i) * interval, Spec: pool[i%len(pool)]}
	}
	scn, err := scenario.NewTrace("uniform", nil, arrivals)
	if err != nil {
		t.Fatal(err)
	}
	return scn
}

// TestEventHorizonDifferential is the randomized differential pin: the
// batched event-horizon path must reproduce the legacy per-tick path
// field-identically across seeds, arrival processes, machine shapes and
// tick granularities. Run under -race in CI.
func TestEventHorizonDifferential(t *testing.T) {
	pool := specsOf("xalancbmk06", "lbm06", "povray06", "soplex06", "omnetpp06")
	plats := []*machine.Platform{machine.Skylake(), machine.Small(7, 4)}
	policies := []string{"lfoc", "dunn", "stock"}
	seeds := []int64{3, 11}
	// Splitting 10 ms into 50, 250 or 617 ticks gives dt a long mantissa,
	// so every clock add rounds. The dyadic tick (250 ms / 256 = 2^-10 s)
	// makes every clock add exact and lands each policy activation
	// exactly on a tick's time. It runs after the others so their case
	// indices, and with them their policies and names, stay put.
	type diffCase struct {
		plat   *machine.Platform
		tick   string // name label
		period time.Duration
		tpp    int
		seed   int64
	}
	var cases []diffCase
	for _, plat := range plats {
		for _, tpp := range []int{50, 250, 617} {
			for _, seed := range seeds {
				cases = append(cases, diffCase{plat, fmt.Sprintf("t%d", tpp), 10 * time.Millisecond, tpp, seed})
			}
		}
	}
	for _, plat := range plats {
		for _, seed := range seeds {
			cases = append(cases, diffCase{plat, "p250ms-t256", 250 * time.Millisecond, 256, seed})
		}
	}

	for caseIdx, c := range cases {
		// Rotate the policy and arrival process with the case index:
		// every (plat, ticks) cell still sees at least one of each
		// without running the full cross product.
		polName := policies[caseIdx%len(policies)]
		poisson := caseIdx%2 == 0
		plat, seed := c.plat, c.seed
		name := fmt.Sprintf("%s-%s-seed%d-%s", plat.Name, c.tick, seed, polName)
		t.Run(name, func(t *testing.T) {
			cfg := Config{
				Plat:           plat,
				TargetInsns:    300_000_000 + uint64(seed)*50_000_000,
				PolicyPeriod:   c.period,
				TicksPerPeriod: c.tpp,
			}
			var scn *scenario.Open
			if poisson {
				var err error
				scn, err = scenario.NewPoisson("diff", pool, 6, 1.5, seed)
				if err != nil {
					t.Fatal(err)
				}
			} else {
				scn = uniformTrace(t, pool, 0.11, 10+int(seed))
			}
			run := func(legacy bool) *OpenResult {
				if legacy {
					defer perTick()()
				}
				res, err := RunOpen(cfg, scn, horizonPolicy(t, polName, plat))
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			fast, legacy := run(false), run(true)
			if !reflect.DeepEqual(fast, legacy) {
				t.Errorf("batched and legacy open runs diverge:\nfast   %+v\nlegacy %+v", fast, legacy)
			}
		})
	}
}

// TestEventHorizonDifferentialClosed pins the closed methodology the
// same way, including the identity-reset restart flavour.
func TestEventHorizonDifferentialClosed(t *testing.T) {
	specs := specsOf("xalancbmk06", "lbm06", "povray06", "soplex06")
	for _, tpp := range []int{100, 250} {
		for _, reset := range []bool{false, true} {
			t.Run(fmt.Sprintf("ticks%d-reset%v", tpp, reset), func(t *testing.T) {
				cfg := testConfig()
				cfg.TargetInsns = 500_000_000
				cfg.PolicyPeriod = 10 * time.Millisecond
				cfg.TicksPerPeriod = tpp
				run := func(legacy bool) *Result {
					if legacy {
						defer perTick()()
					}
					scn := scenario.NewClosed(specs, 3)
					scn.ResetIdentityOnRestart = reset
					res, err := RunClosed(cfg, scn, horizonPolicy(t, "lfoc", cfg.Plat))
					if err != nil {
						t.Fatal(err)
					}
					return res
				}
				fast, legacy := run(false), run(true)
				if !reflect.DeepEqual(fast, legacy) {
					t.Errorf("batched and legacy closed runs diverge:\nfast   %+v\nlegacy %+v", fast, legacy)
				}
			})
		}
	}
}

// TestEventHorizonPausePoints pins the cluster contract: stepping a
// machine through arbitrary AdvanceTo pause points with the fast path on
// must equal one uninterrupted batched run (the horizon must stop at the
// pause point, not batch across it).
func TestEventHorizonPausePoints(t *testing.T) {
	pool := specsOf("xalancbmk06", "lbm06", "povray06", "soplex06")
	scn, err := scenario.NewPoisson("pause", pool, 5, 1, 17)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Plat:         machine.Small(7, 4),
		TargetInsns:  400_000_000,
		PolicyPeriod: 10 * time.Millisecond,
	}
	whole, err := RunOpen(cfg, scn, horizonPolicy(t, "lfoc", cfg.Plat))
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewOpenMachine(cfg, horizonPolicy(t, "lfoc", cfg.Plat), "pause", nil, scn.Horizon())
	if err != nil {
		t.Fatal(err)
	}
	for i, arr := range scn.Arrivals() {
		// Irregular pause points: before some injections, advance to an
		// extra off-event time too.
		if i%3 == 1 {
			if err := m.AdvanceTo(arr.Time * 0.9); err != nil {
				t.Fatal(err)
			}
		}
		if err := m.AdvanceTo(arr.Time); err != nil {
			t.Fatal(err)
		}
		if err := m.Inject(arr); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Drain(); err != nil {
		t.Fatal(err)
	}
	stepped := m.Result()
	if !reflect.DeepEqual(whole, stepped) {
		t.Errorf("stepped machine diverges from uninterrupted run:\nwhole   %+v\nstepped %+v", whole, stepped)
	}
}

// TestEventHorizonDifferentialMigration pins the batched path against
// the per-tick path across a live migration: machines advanced to the
// migration instant, the source's residents extracted and the source
// halted, the residents injected into a busy destination, which then
// drains. Both results must be field-identical, under a passive policy
// (stock, windows deferred to sync points) and under LFOC (windows bound
// every batch).
func TestEventHorizonDifferentialMigration(t *testing.T) {
	for _, polName := range []string{"stock", "lfoc"} {
		t.Run(polName, func(t *testing.T) {
			run := func(legacy bool) [2]*OpenResult {
				if legacy {
					defer perTick()()
				}
				cfg := Config{
					Plat:         machine.Small(8, 4),
					TargetInsns:  1_500_000_000, // both apps outlive the migration
					PolicyPeriod: 10 * time.Millisecond,
				}
				src, err := NewOpenMachine(cfg, horizonPolicy(t, polName, cfg.Plat), "src",
					specsOf("lbm06", "povray06"), 0)
				if err != nil {
					t.Fatal(err)
				}
				dst, err := NewOpenMachine(cfg, horizonPolicy(t, polName, cfg.Plat), "dst",
					specsOf("xalancbmk06"), 0)
				if err != nil {
					t.Fatal(err)
				}
				for _, m := range []*OpenMachine{src, dst} {
					if err := m.AdvanceTo(0.2); err != nil {
						t.Fatal(err)
					}
				}
				residents := src.ExtractResidents(nil)
				if len(residents) != 2 {
					t.Fatalf("extracted %d residents, want 2", len(residents))
				}
				src.Halt()
				for _, r := range residents {
					if err := dst.InjectResident(r); err != nil {
						t.Fatal(err)
					}
				}
				if err := dst.Drain(); err != nil {
					t.Fatal(err)
				}
				return [2]*OpenResult{src.Result(), dst.Result()}
			}
			fast, legacy := run(false), run(true)
			if !reflect.DeepEqual(fast, legacy) {
				t.Errorf("batched and legacy migrations diverge:\nfast   %+v\nlegacy %+v", fast, legacy)
			}
		})
	}
}

// TestLazyAppAdvanceSavings pins what lazy per-app advancement saves: on
// a closed 8-app LFOC run, whose counter windows end most batches, an
// eager batch loop would advance every active app at every batch end;
// the kernel brings an app up to date only at its own due tick or when
// something reads it, at most a quarter as often — and the run still
// equals the per-tick path.
func TestLazyAppAdvanceSavings(t *testing.T) {
	specs := specsOf("xalancbmk06", "lbm06", "povray06", "soplex06",
		"omnetpp06", "xalancbmk06", "lbm06", "povray06")
	cfg := testConfig()
	cfg.TargetInsns = 500_000_000
	cfg.PolicyPeriod = 10 * time.Millisecond
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	k, err := newKernel(cfg, horizonPolicy(t, "lfoc", cfg.Plat), specs, scenario.NewClosed(specs, 0))
	if err != nil {
		t.Fatal(err)
	}
	if err := k.run(); err != nil {
		t.Fatal(err)
	}
	lazy, err := buildResult(k)
	if err != nil {
		t.Fatal(err)
	}
	restore := perTick()
	legacy, err := RunClosed(cfg, scenario.NewClosed(specs, 0), horizonPolicy(t, "lfoc", cfg.Plat))
	restore()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(lazy, legacy) {
		t.Fatalf("lazy closed run diverges from the per-tick path:\nlazy   %+v\nlegacy %+v", lazy, legacy)
	}
	if k.chainSyncs == 0 || k.batchActives == 0 {
		t.Fatalf("no advancement recorded: %d syncs over %d batch-resident apps", k.chainSyncs, k.batchActives)
	}
	ratio := float64(k.chainSyncs) / float64(k.batchActives)
	t.Logf("%d per-app advances for %d batch-resident apps (%.3f)", k.chainSyncs, k.batchActives, ratio)
	if ratio > 0.25 {
		t.Errorf("per-app advances are %.3f of batches × active apps, want at most 0.25", ratio)
	}
	// The clock and the alone-clock advance a binade at a time; only
	// binade edges, ties and zero clocks still take the per-tick float
	// add.
	if k.tick == 0 || k.aloneTicks == 0 {
		t.Fatalf("no ticks recorded: %d clock, %d alone-clock", k.tick, k.aloneTicks)
	}
	clockShare := float64(k.clockFloatTicks) / float64(k.tick)
	aloneShare := float64(k.aloneFloatTicks) / float64(k.aloneTicks)
	t.Logf("per-tick float adds: clock %d of %d ticks (%.4f), alone-clock %d of %d (%.4f)",
		k.clockFloatTicks, k.tick, clockShare, k.aloneFloatTicks, k.aloneTicks, aloneShare)
	if clockShare > 0.01 || aloneShare > 0.01 {
		t.Errorf("per-tick float adds are %.4f of clock ticks and %.4f of alone-clock ticks, want at most 0.01 each",
			clockShare, aloneShare)
	}
}

// legacyInsnsChain is advanceTick's instruction and alone-clock chain,
// one float tick at a time, stopping after maxTicks ticks or at the
// first tick whose cumulative retirement reaches winLeft — the contract
// of advanceInsnsChain.
func legacyInsnsChain(frac, aloneT, step, ips float64, winLeft uint64, maxTicks int) (ticks int, cum uint64, fracOut, aloneOut float64) {
	for ticks < maxTicks {
		frac += step
		insns := uint64(frac)
		frac -= float64(insns)
		if insns > 0 {
			aloneT += float64(insns) / ips
			cum += insns
		}
		ticks++
		if cum >= winLeft {
			break
		}
	}
	return ticks, cum, frac, aloneT
}

// FuzzBinadeSum pins the alone-clock's binade-exact sum
// (binade.AloneRun, reached through advanceInsnsChain) bit for bit
// against the per-tick loop it replaces. From an accumulator acc, an
// addend x, an instruction step (stepRaw: exponent mod 24 and a free
// 52-bit mantissa, so every step is in [1, 2^24)), a starting carry, a
// tick count and a threshold selector, it runs advanceInsnsChain from
// aloneT acc at solo rate ⌊step⌋/x (so the tick quotients are about x
// and x·(1+1/⌊step⌋)) against legacyInsnsChain, with the window
// threshold on the cumulative retirement of the tick chosen by at, one
// below, one above or absent (edge mod 4): same clock bits, carry bits,
// retirement and ticks. The clock's sum is pinned by binade's
// FuzzAdvanceClock.
//
// The seeds cover a zero accumulator, accumulators just below a power
// of two, ties (x is 1.5 or 2.5 ulps of acc), addends below half an ulp
// (d = 0), addends larger than the accumulator, a subnormal addend, a
// dyadic tick, binade crossings inside one call, a window reached with
// no remainder, and the step magnitudes of binade's
// TestCarryBatchMatchesFloatTicks.
func FuzzBinadeSum(f *testing.F) {
	stepBits := func(step float64) uint64 { // inverse of the decoding below, for step in [1, 2^24)
		b := math.Float64bits(step)
		return (b>>52-1023)<<52 | b&(1<<52-1)
	}
	seeds := []struct {
		acc, x, step float64
		carry        uint64
		ticks        uint16
		at           uint32
		edge         uint8
	}{
		{0, 0.01 / 250, 44153.87, 0x5555555555555555, 3000, 0x07d00bb8, 0},
		{math.Nextafter(1, 0), 0.01 / 617, 80000.25, 1 << 62, 4000, 0x00020003, 0},
		{math.Nextafter(1024, 0), 1.0 / 1024, 1.5, 0, 2000, 0x03e801f4, 1},
		{1, 3 * 0x1p-53, 6.25, 0, 512, 0x01000100, 2},         // tie: x/u = 1.5 (ips = 2^54, so inc0 = x)
		{1, 5 * 0x1p-53, 10.25, 0, 512, 0x01000100, 3},        // tie: x/u = 2.5, and inc1 = 2.75 ulps flips K's parity
		{1, 0x1p-54, 6.25, 1 << 40, 700, 0x00100200, 0},       // d = 0: x/u = 1/4
		{0x1p60, 0.01 / 250, 44153.87, 0, 900, 0x0300012c, 1}, // d = 0 on a huge accumulator
		{1e-9, 0.01 / 250, 7.125, 12345, 1500, 0x000a0005, 2}, // addend ≫ accumulator
		{0.5, 0x1p-10, 2048.75, 0, 4095, 0x0c000400, 0},       // dyadic: every add exact
		{0.5, 0x1p-10, 2048.75, 0, 4095, 0x0c010401, 2},
		{3.7, 0.01 / 617, 131071.5, 99, 3000, 0x0bb80064, 1}, // binade-edge step: float chain
		{12.25, 0.01 / 50, 0x1p23 + 0.5, 1 << 50, 2500, 0x09c40032, 3},
		{0.01, 0.01 / 250, 1.0000001, 7, 1024, 0x00400400, 3},
		{2.5, 0.01 / 250, 1000, 0, 800, 0x00c80190, 0},     // integer step, zero carry: a window reached exactly
		{0x1p-1000, 0x1p-1060, 5.5, 0, 300, 0x00100020, 0}, // subnormal addend
		{1, 1e-3, 2.5, 1 << 52, 4000, 0x0fa00fa0, 3},       // d1 ≈ 1.5·d0, several binade crossings
	}
	for _, s := range seeds {
		f.Add(s.acc, s.x, stepBits(s.step), s.carry, s.ticks, s.at, s.edge)
	}
	f.Fuzz(func(t *testing.T, acc, x float64, stepRaw, carry uint64, ticks uint16, at uint32, edge uint8) {
		acc, x = math.Abs(acc), math.Abs(x)
		n := int(ticks)%4096 + 1
		step := math.Float64frombits((1023+(stepRaw>>52)%24)<<52 | stepRaw&(1<<52-1))
		frac := float64(carry>>11) / (1 << 53) // [0, 1)
		ips := math.Floor(step) / x
		_, cumAt, _, _ := legacyInsnsChain(frac, acc, step, ips, math.MaxUint64, int(at)%n+1)
		var winLeft uint64 = math.MaxUint64
		switch edge % 4 {
		case 0:
			winLeft = cumAt
		case 1:
			winLeft = max(cumAt-1, 1)
		case 2:
			winLeft = cumAt + 1
		}
		wantTicks, wantCum, wantFrac, wantAlone := legacyInsnsChain(frac, acc, step, ips, winLeft, n)
		k := &kernel{}
		a := &kernelApp{insnStep: step, insnGrid: binade.CarryGrid(step), fracInsns: frac, aloneT: acc, aloneIPS: ips, nextWin: winLeft}
		gotTicks, gotCum := k.advanceInsnsChain(a, nil, n)
		if gotTicks != wantTicks || gotCum != wantCum ||
			math.Float64bits(a.fracInsns) != math.Float64bits(wantFrac) ||
			math.Float64bits(a.aloneT) != math.Float64bits(wantAlone) {
			t.Fatalf("alone-clock from %v, step %v, rate %v, carry %v over %d ticks (window %d): got %d ticks, %d insns, carry %v, clock %v; want %d, %d, %v, %v",
				acc, step, ips, frac, n, winLeft, gotTicks, gotCum, a.fracInsns, a.aloneT, wantTicks, wantCum, wantFrac, wantAlone)
		}
	})
}
