package sim

// Tests for the event-horizon fast path (advanceHorizon) and the
// two-generation equilibrium memo: the batched and legacy per-tick
// advancement must be bit-identical on every field of every result, for
// every scenario shape, machine shape and tick granularity, and cache
// eviction must never dump the equilibrium working set.

import (
	"fmt"
	"math"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"github.com/faircache/lfoc/internal/appmodel"
	"github.com/faircache/lfoc/internal/core"
	"github.com/faircache/lfoc/internal/machine"
	"github.com/faircache/lfoc/internal/policy"
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
	ticksPerPeriod := []int{50, 250, 617}
	seeds := []int64{3, 11}

	caseIdx := 0
	for _, plat := range plats {
		for _, tpp := range ticksPerPeriod {
			for _, seed := range seeds {
				// Rotate the policy and arrival process with the case
				// index: every (plat, ticks) cell still sees at least one
				// of each without running the full cross product.
				polName := policies[caseIdx%len(policies)]
				poisson := caseIdx%2 == 0
				caseIdx++
				name := fmt.Sprintf("%s-t%d-seed%d-%s", plat.Name, tpp, seed, polName)
				t.Run(name, func(t *testing.T) {
					cfg := Config{
						Plat:           plat,
						TargetInsns:    300_000_000 + uint64(seed)*50_000_000,
						PolicyPeriod:   10 * time.Millisecond,
						TicksPerPeriod: tpp,
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
						c := cfg
						c.noEventHorizon = legacy
						res, err := RunOpen(c, scn, horizonPolicy(t, polName, plat))
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
					c := cfg
					c.noEventHorizon = legacy
					scn := scenario.NewClosed(specs, 3)
					scn.ResetIdentityOnRestart = reset
					res, err := RunClosed(c, scn, horizonPolicy(t, "lfoc", c.Plat))
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
				cfg := Config{
					Plat:           machine.Small(8, 4),
					TargetInsns:    1_500_000_000, // both apps outlive the migration
					PolicyPeriod:   10 * time.Millisecond,
					noEventHorizon: legacy,
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
	k, err := newKernel(cfg, scenario.NewClosed(specs, cfg.RunsTarget), horizonPolicy(t, "lfoc", cfg.Plat))
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
	legacyCfg := cfg
	legacyCfg.noEventHorizon = true
	legacy, err := RunClosed(legacyCfg, scenario.NewClosed(specs, cfg.RunsTarget), horizonPolicy(t, "lfoc", cfg.Plat))
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
}

// equilStats runs an open churn scenario through a kernel with the
// given equilibrium-cache capacity and returns the result plus the
// cache hit rate.
func equilStats(t *testing.T, max int) (*OpenResult, float64) {
	t.Helper()
	pool := specsOf("xalancbmk06", "lbm06", "povray06", "soplex06")
	scn, err := scenario.NewPoisson("equil", pool, 6, 12, 5)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Plat:         machine.Small(7, 4),
		TargetInsns:  300_000_000,
		PolicyPeriod: 10 * time.Millisecond,
	}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	cfg.MetricsWindow = cfg.EffectiveMetricsWindow()
	k, err := newKernel(cfg, scn, horizonPolicy(t, "lfoc", cfg.Plat))
	if err != nil {
		t.Fatal(err)
	}
	k.equilMax = max
	if err := k.run(); err != nil {
		t.Fatal(err)
	}
	if k.equilHits+k.equilMiss == 0 {
		t.Fatal("no equilibrium lookups")
	}
	return buildOpenResult(k, scn.Name()), float64(k.equilHits) / float64(k.equilHits+k.equilMiss)
}

// TestEquilCacheRotationKeepsWorkingSet pins the two-generation
// eviction: even under absurd pressure (capacity 2, so the cache
// rotates on almost every distinct configuration) the current working
// set keeps hitting, because rotation moves the hot generation to the
// cold one and a touch promotes it back — unlike the wholesale clear
// this replaced, which dumped the live configuration and forced
// periodic full re-solve storms. Results must be identical regardless
// of eviction, since memoized fixed points are deterministic.
func TestEquilCacheRotationKeepsWorkingSet(t *testing.T) {
	unboundedRes, unboundedRate := equilStats(t, 1<<30)
	pressuredRes, pressuredRate := equilStats(t, 2)
	if !reflect.DeepEqual(unboundedRes, pressuredRes) {
		t.Error("eviction changed simulation results")
	}
	if unboundedRate < 0.5 {
		t.Errorf("churn run should be memo-friendly, hit rate %.3f", unboundedRate)
	}
	if pressuredRate < unboundedRate-0.03 {
		t.Errorf("eviction dumped the working set: hit rate %.3f under pressure vs %.3f unbounded",
			pressuredRate, unboundedRate)
	}
}

// TestCarryBatchMatchesFloatTicks is the focused exactness pin for the
// integer carry advancement (carryGrid/carryRun/carryBatch): for random
// steps across magnitudes — including sub-1 steps and binade edges that
// must take the float fallback — and random starting carries, a batched
// advance must reproduce the legacy per-tick float loop bit-for-bit:
// same total output, same final carry.
func TestCarryBatchMatchesFloatTicks(t *testing.T) {
	f := func(stepBits uint32, fracBits uint16, ticksRaw uint16, scale uint8) bool {
		// Steps spread over magnitudes 2^-8 .. 2^24-ish.
		step := float64(stepBits) / 256 * math.Pow(2, float64(scale%16))
		frac := float64(fracBits) / 65536 // [0,1)
		ticks := int(ticksRaw)%2000 + 1

		// Reference: the legacy per-tick float loop.
		refFrac := frac
		var refSum uint64
		for i := 0; i < ticks; i++ {
			refFrac += step
			v := uint64(refFrac)
			refFrac -= float64(v)
			refSum += v
		}

		g := carryGrid(step)
		gotFrac := frac
		gotSum := carryBatch(&gotFrac, step, &g, ticks)
		return gotSum == refSum && math.Float64bits(gotFrac) == math.Float64bits(refFrac)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestCarryGridEdges pins the fallback decisions: sub-1 steps, binade
// edges and huge steps must refuse the integer path rather than risk a
// rounding divergence.
func TestCarryGridEdges(t *testing.T) {
	for _, step := range []float64{0, 0.25, 0.999999, 1 << 52, math.Inf(1), math.NaN()} {
		if g := carryGrid(step); g.ok {
			t.Errorf("step %v must take the float path", step)
		}
	}
	// ⌊step⌋+2 crossing the binade: step+1 could round past 2^17.
	if g := carryGrid(131071.5); g.ok {
		t.Error("binade-edge step must take the float path")
	}
	if g := carryGrid(80000.25); !g.ok || g.base != 80000 {
		t.Errorf("well-formed step rejected: %+v", g)
	}
}
