package sim

// Benchmarks contrasting the event-horizon batched advancement
// ("horizon") with the per-tick reference path ("legacy", advanceTick)
// at the default TicksPerPeriod=250 and the harness's scale-50 cadences
// — the measured speedups quoted in DESIGN.md §2 "Time advancement"
// come from these.

import (
	"fmt"
	"testing"
	"time"

	"github.com/faircache/lfoc/internal/machine"
	"github.com/faircache/lfoc/internal/sim/scenario"
	"github.com/faircache/lfoc/internal/workloads"
)

func benchOpenConfig() Config {
	return Config{
		Plat:           machine.Skylake(),
		TargetInsns:    3_000_000_000,
		PolicyPeriod:   10 * time.Millisecond,
		TicksPerPeriod: 250,
	}
}

// benchMode switches runUntil to the per-tick reference path for the
// rest of a "legacy" sub-benchmark.
func benchMode(b *testing.B, mode string) {
	if mode == "legacy" {
		b.Cleanup(perTick())
	}
}

// BenchmarkKernelOpenChurn measures an open-churn run (Poisson
// arrivals, LFOC) on both advancement paths.
func BenchmarkKernelOpenChurn(b *testing.B) {
	pool := specsOf("xalancbmk06", "lbm06", "povray06", "soplex06", "omnetpp06")
	for _, mode := range []string{"horizon", "legacy"} {
		b.Run(mode, func(b *testing.B) {
			benchMode(b, mode)
			cfg := benchOpenConfig()
			var ticks float64
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				scn, err := scenario.NewPoisson("bench", pool, 2, 4, 7)
				if err != nil {
					b.Fatal(err)
				}
				res, err := RunOpen(cfg, scn, horizonPolicy(b, "lfoc", cfg.Plat))
				if err != nil {
					b.Fatal(err)
				}
				ticks = res.SimSeconds / cfg.PolicyPeriod.Seconds() * float64(cfg.TicksPerPeriod)
			}
			b.ReportMetric(ticks*float64(b.N)/b.Elapsed().Seconds(), "ticks/sec")
		})
	}
}

// BenchmarkKernelClosed measures the paper's closed methodology on both
// advancement paths.
func BenchmarkKernelClosed(b *testing.B) {
	specs := specsOf("xalancbmk06", "lbm06", "povray06", "soplex06")
	for _, mode := range []string{"horizon", "legacy"} {
		b.Run(mode, func(b *testing.B) {
			benchMode(b, mode)
			cfg := benchOpenConfig()
			var ticks float64
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := RunDynamic(cfg, specs, horizonPolicy(b, "lfoc", cfg.Plat))
				if err != nil {
					b.Fatal(err)
				}
				ticks = res.SimSeconds / cfg.PolicyPeriod.Seconds() * float64(cfg.TicksPerPeriod)
			}
			b.ReportMetric(ticks*float64(b.N)/b.Elapsed().Seconds(), "ticks/sec")
		})
	}
}

// BenchmarkKernelChurnSweep measures the cells of a one-machine rate
// sweep (a harness.Grid over Rates) — the S1 mix under seeded Poisson
// arrivals, each policy against the identical trace — through RunOpen
// on both advancement paths, at the default TicksPerPeriod=250 and the
// harness's scale-50 cadences. The DESIGN.md speedups quote these
// cells.
func BenchmarkKernelChurnSweep(b *testing.B) {
	w, err := workloads.Get("S1")
	if err != nil {
		b.Fatal(err)
	}
	for _, rate := range []float64{1, 4} {
		for _, polName := range []string{"stock", "dunn", "lfoc"} {
			for _, mode := range []string{"horizon", "legacy"} {
				b.Run(fmt.Sprintf("rate%g/%s/%s", rate, polName, mode), func(b *testing.B) {
					benchMode(b, mode)
					cfg := benchOpenConfig()
					var ticks float64
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						scn, err := w.OpenScenario(rate, 6, 7, 50)
						if err != nil {
							b.Fatal(err)
						}
						res, err := RunOpen(cfg, scn, horizonPolicy(b, polName, cfg.Plat))
						if err != nil {
							b.Fatal(err)
						}
						ticks = res.SimSeconds / cfg.PolicyPeriod.Seconds() * float64(cfg.TicksPerPeriod)
					}
					b.ReportMetric(ticks*float64(b.N)/b.Elapsed().Seconds(), "ticks/sec")
				})
			}
		}
	}
}
