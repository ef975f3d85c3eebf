// Package harness regenerates every table and figure of the paper's
// evaluation (§3 and §5): one entry point per artifact, each returning
// structured data plus a text rendering that mirrors the rows/series the
// paper reports. cmd/lfoc-bench is a thin CLI over this package, and
// bench_test.go wraps the same entry points in testing.B benchmarks.
//
// Time scaling: the paper runs each program for 150 G instructions with
// 100M/10M-instruction counter windows and a 500 ms partitioner period.
// Config.Scale divides every instruction quantity and the partitioner
// period by the same factor, preserving all cadence ratios while keeping
// experiment runtime tractable (default 50, the scale of README.md's
// "Regenerating the paper's artifacts").
package harness

import (
	"fmt"
	"time"

	"github.com/faircache/lfoc/internal/appmodel"
	"github.com/faircache/lfoc/internal/core"
	"github.com/faircache/lfoc/internal/machine"
	"github.com/faircache/lfoc/internal/policy"
	"github.com/faircache/lfoc/internal/sim"
	"github.com/faircache/lfoc/internal/workloads"
)

// Config parameterizes all experiments.
type Config struct {
	Plat *machine.Platform
	// Scale divides all instruction quantities and the policy period
	// (1 = paper scale; default 50).
	Scale uint64
	// SolverBudgetSmall/Large bound the optimal solver's anytime search
	// for ≤10-app and >10-app workloads respectively.
	SolverBudgetSmall uint64
	SolverBudgetLarge uint64
	// Workers bounds the harness's parallelism (0 = GOMAXPROCS). For
	// Fig. 6/7 the workload rows fan out over this many goroutines and
	// the per-row solver runs serially (rows are the unit of parallelism;
	// a second level would oversubscribe multiplicatively). Fig. 2/3 have
	// no row fan-out, so there Workers bounds the optimal solver's own
	// worker pool instead.
	Workers int
}

// DefaultConfig returns the standard experiment configuration.
func DefaultConfig() Config {
	return Config{
		Plat:              machine.Skylake(),
		Scale:             50,
		SolverBudgetSmall: 500_000,
		SolverBudgetLarge: 4_000,
	}
}

// normalized applies defaults.
func (c Config) normalized() Config {
	if c.Plat == nil {
		c.Plat = machine.Skylake()
	}
	if c.Scale == 0 {
		c.Scale = 50
	}
	if c.SolverBudgetSmall == 0 {
		c.SolverBudgetSmall = 500_000
	}
	if c.SolverBudgetLarge == 0 {
		c.SolverBudgetLarge = 4_000
	}
	return c
}

// paper-scale constants.
const (
	paperTargetInsns    = 150_000_000_000
	paperNormalWindow   = 100_000_000
	paperSamplingWindow = 10_000_000
	paperPolicyPeriodNs = int64(500 * time.Millisecond)
)

// SimConfig derives the scaled simulator configuration.
func (c Config) SimConfig() sim.Config {
	c = c.normalized()
	return sim.Config{
		Plat:         c.Plat,
		TargetInsns:  paperTargetInsns / c.Scale,
		PolicyPeriod: time.Duration(paperPolicyPeriodNs / int64(c.Scale)),
	}
}

// NewDynamicPolicy constructs a dynamic policy by name ("stock", "dunn"
// or "lfoc"). For LFOC the controller is also returned so callers can
// inspect classifications.
func (c Config) NewDynamicPolicy(name string) (sim.Dynamic, *core.Controller, error) {
	c = c.normalized()
	switch name {
	case "stock":
		return policy.NewStockDynamic(c.Plat.Ways), nil, nil
	case "dunn":
		return c.newDunn(), nil, nil
	case "lfoc":
		ctrl, err := c.newLFOC()
		if err != nil {
			return nil, nil, err
		}
		return ctrl, ctrl, nil
	default:
		return nil, nil, fmt.Errorf("harness: unknown policy %q (want stock, dunn or lfoc)", name)
	}
}

// NewDynamicPolicyFor is NewDynamicPolicy against an explicit platform
// instead of Config.Plat — heterogeneous fleets need the per-machine
// policy built for the machine's own way count and way size, or its
// masks and thresholds would target the wrong LLC. A nil plat falls
// back to Config.Plat.
func (c Config) NewDynamicPolicyFor(name string, plat *machine.Platform) (sim.Dynamic, *core.Controller, error) {
	if plat != nil {
		c.Plat = plat
	}
	return c.NewDynamicPolicy(name)
}

// lfocParams derives scaled LFOC tunables.
func (c Config) lfocParams() core.Params {
	p := core.DefaultParams(c.Plat.Ways)
	p.NormalWindowInsns = paperNormalWindow / c.Scale
	if p.NormalWindowInsns == 0 {
		p.NormalWindowInsns = 1
	}
	p.SamplingWindowInsns = paperSamplingWindow / c.Scale
	if p.SamplingWindowInsns == 0 {
		p.SamplingWindowInsns = 1
	}
	return p
}

// newLFOC builds a fresh scaled LFOC controller.
func (c Config) newLFOC() (*core.Controller, error) {
	return core.NewController(c.lfocParams(), c.Plat.WayBytes)
}

// newDunn builds a fresh scaled dynamic Dunn runtime.
func (c Config) newDunn() *policy.DunnDynamic {
	d := policy.NewDunnDynamic(c.Plat.Ways)
	d.SetWindow(paperNormalWindow / c.Scale)
	return d
}

// staticWorkload converts a workload into the static policies' input:
// each app represented by its dominant phase and offline table.
func (c Config) staticWorkload(w workloads.Workload) *policy.Workload {
	out := &policy.Workload{Plat: c.Plat}
	for _, name := range w.Benchmarks {
		ph := specOf(name).DominantPhase()
		out.Phases = append(out.Phases, ph)
		out.Tables = append(out.Tables, appmodel.BuildTable(ph, c.Plat))
	}
	return out
}

func specOf(name string) *appmodel.Spec {
	w := workloads.Workload{Benchmarks: []string{name}}
	return w.Specs()[0]
}
