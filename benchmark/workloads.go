package main

import (
	_ "embed"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"time"

	"github.com/faircache/lfoc/internal/appmodel"
	"github.com/faircache/lfoc/internal/cluster"
	"github.com/faircache/lfoc/internal/harness"
	"github.com/faircache/lfoc/internal/machine"
	"github.com/faircache/lfoc/internal/metrics"
	"github.com/faircache/lfoc/internal/sim"
	"github.com/faircache/lfoc/internal/sim/scenario"
	"github.com/faircache/lfoc/internal/workloads"
)

// workload is one set of inputs the benchmark runs. setup builds the
// inputs from the seed and returns the bench that runs ops on them.
type workload struct {
	name  string
	setup func(e env) (*bench, error)
}

// env is what a workload's setup may use: the seed of the seeded
// workloads' inputs, a scratch directory inside the checkout, and the
// tracer with the setup span to hang input spans under.
type env struct {
	seed   int64
	dir    string
	tr     *tracer
	parent int
}

// timed runs f, records it as a span under e.parent when tracing, and
// returns its duration in seconds.
func (e env) timed(name string, f func() error) (float64, error) {
	start := time.Now()
	id := e.tr.begin(name, e.parent)
	err := f()
	e.tr.end(id)
	return time.Since(start).Seconds(), err
}

// bench is a set-up workload.
type bench struct {
	// run executes one op on the fixed inputs. ot is nil for an
	// untraced op; a traced op wraps every policy in probes.
	run func(ot *opTrace) (*outcome, error)
	// check, when set, verifies an outcome against a workload-specific
	// reference.
	check func(o *outcome) error
	// stopWithoutCheckpoint, when set, runs the checkpoint workload's
	// stop leg without writing the checkpoint: the traced pass
	// subtracts it from the stop leg with one to price the write.
	stopWithoutCheckpoint func(tr *tracer) (float64, error)
	// mixes are the co-run sets the sharing-evaluator probe times.
	mixes []evalMix
	// inputs describes the input generation of this setup.
	inputs inputStats
}

// evalMix is one co-run set on one platform.
type evalMix struct {
	plat   *machine.Platform
	phases []*appmodel.PhaseSpec
}

type inputStats struct {
	generateS, traceWriteS, traceReadS, traceKB float64
	arrivals                                    int
}

// outcome is one op's result and the readings taken from it.
type outcome struct {
	// result is what the digest hashes: the program's own result values.
	result any
	digest string
	// soloS is the solo-equivalent seconds of the work that departed
	// (completed runs times their alone time); departed counts it.
	soloS      float64
	departed   int
	unfairness float64
	stp        float64
	// cluster is the cluster result (nil for closed runs) and apps the
	// number of applications its scenario supplied.
	cluster   *cluster.Result
	apps      int
	ckptBytes int64
}

// workloadList is every workload, in report order. BENCHMARK.json
// records why each one exists.
var workloadList = []workload{
	{"paper-fig7", setupPaperFig7},
	{"fleet-1k", setupFleet1k},
	{"fair-dense", setupFairDense},
	{"chaos-resume", setupChaosResume},
}

// setupPaperFig7 is the paper's Fig. 7 experiment (§5.2): the 24
// dynamic-study mixes under stock, dunn and lfoc with the closed
// methodology, run serially. The mixes are fixed, so the seed is unused.
func setupPaperFig7(e env) (*bench, error) {
	cfg := harness.DefaultConfig()
	simCfg := cfg.SimConfig()
	var mixes []workloads.Workload
	var specs [][]*appmodel.Spec
	gen, _ := e.timed("workloads.generate", func() error {
		mixes = workloads.Dynamic()
		for _, w := range mixes {
			specs = append(specs, w.ScaledSpecs(cfg.Scale))
		}
		return nil
	})
	b := &bench{inputs: inputStats{generateS: gen}}
	for _, s := range specs {
		b.mixes = append(b.mixes, evalMix{cfg.Plat, dominantPhases(s)})
	}
	b.run = func(ot *opTrace) (*outcome, error) {
		out := &outcome{}
		results := make([]*sim.Result, 0, 3*len(specs))
		var normUnf, normSTP []float64
		for i, s := range specs {
			for _, name := range []string{"stock", "dunn", "lfoc"} {
				pol, _, err := cfg.NewDynamicPolicy(name)
				if err != nil {
					return nil, err
				}
				res, err := sim.RunDynamic(simCfg, s, ot.policy(pol))
				if err != nil {
					return nil, fmt.Errorf("%s under %s: %w", mixes[i].Name, name, err)
				}
				results = append(results, res)
				for app, runs := range res.RunTimes {
					out.soloS += float64(len(runs)) * res.AloneCT[app]
					out.departed += len(runs)
				}
			}
			stock, lfoc := results[len(results)-3], results[len(results)-1]
			normUnf = append(normUnf, lfoc.Summary.Unfairness/stock.Summary.Unfairness)
			normSTP = append(normSTP, lfoc.Summary.STP/stock.Summary.STP)
		}
		var err error
		if out.unfairness, err = metrics.GeoMean(normUnf); err != nil {
			return nil, err
		}
		if out.stp, err = metrics.GeoMean(normSTP); err != nil {
			return nil, err
		}
		out.result = results
		return out, nil
	}
	// The paper's headline: LFOC is fairer than stock Linux on average.
	b.check = func(o *outcome) error {
		if o.unfairness >= 1 {
			return fmt.Errorf("LFOC unfairness normalised to stock is %.4f, want < 1", o.unfairness)
		}
		return nil
	}
	return b, nil
}

// setupFleet1k is a sparse 1024-machine heterogeneous fleet under
// Poisson churn (S1 at 128 arrivals/s over 4 s) with least-loaded
// placement.
func setupFleet1k(e env) (*bench, error) {
	cfg := harness.DefaultConfig()
	s1, err := workloads.Get("S1")
	if err != nil {
		return nil, err
	}
	var scn *scenario.Open
	gen, err := e.timed("workloads.generate", func() (err error) {
		scn, err = poissonTrace("fleet-1k", s1.ScaledSpecs(cfg.Scale), 512, 4, e.seed)
		return err
	})
	if err != nil {
		return nil, err
	}
	fleet, err := cluster.ParseMachineMix("512x11way,512x7way", cfg.SimConfig())
	if err != nil {
		return nil, err
	}
	b := &bench{inputs: inputStats{generateS: gen, arrivals: len(scn.Arrivals())}}
	b.mixes = fleetMixes(fleet, cfg.Scale, s1)
	b.run = func(ot *opTrace) (*outcome, error) {
		res, err := cluster.Run(cluster.Config{Fleet: fleet, Placement: ot.placement(cluster.NewLeastLoaded())},
			scn, lfocPolicies(cfg, fleet, ot))
		if err != nil {
			return nil, err
		}
		return clusterOutcome(res, scn), nil
	}
	return b, nil
}

//go:embed specs/fair-dense.yaml
var fairDenseSpec []byte

// setupFairDense is a dense 16-machine fleet under fairness-aware
// placement, fed by the committed spec through a trace file round trip.
// The spec keeps its own seed: each seed draws another application
// sequence, and the cost of a dense fleet depends so much on it that
// runs at different seeds would not be comparable.
func setupFairDense(e env) (*bench, error) {
	cfg := harness.DefaultConfig()
	spec, err := workloads.ParseSpec(fairDenseSpec, ".yaml")
	if err != nil {
		return nil, err
	}
	var generated []scenario.Arrival
	gen, err := e.timed("workloads.generate", func() (err error) {
		generated, err = spec.Generate(cfg.Scale)
		return err
	})
	if err != nil {
		return nil, err
	}
	path := filepath.Join(e.dir, "fair-dense.trace")
	write, err := e.timed("workloads.trace_write", func() error {
		return workloads.WriteTraceFile(path, &workloads.Trace{Name: spec.Name, Scale: cfg.Scale, Arrivals: generated})
	})
	if err != nil {
		return nil, err
	}
	fi, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	var trace *workloads.Trace
	read, err := e.timed("workloads.trace_read", func() (err error) {
		trace, err = workloads.ReadTraceFile(path)
		return err
	})
	if err != nil {
		return nil, err
	}
	if !reflect.DeepEqual(trace.Arrivals, generated) {
		return nil, fmt.Errorf("trace read back from %s differs from the generated arrivals", filepath.Base(path))
	}
	scn, err := trace.Scenario()
	if err != nil {
		return nil, err
	}
	fleet, err := cluster.ParseMachineMix("8x11way,8x7way", cfg.SimConfig())
	if err != nil {
		return nil, err
	}
	b := &bench{inputs: inputStats{generateS: gen, traceWriteS: write, traceReadS: read,
		traceKB: float64(fi.Size()) / 1e3, arrivals: len(generated)}}
	for _, c := range spec.Cohorts {
		w, err := workloads.Get(c.Mix.Workload)
		if err != nil {
			return nil, err
		}
		b.mixes = append(b.mixes, fleetMixes(fleet, cfg.Scale, w)...)
	}
	b.run = func(ot *opTrace) (*outcome, error) {
		res, err := cluster.Run(cluster.Config{Fleet: fleet, Placement: ot.placement(cluster.NewFairnessAware(fleet[0].Plat))},
			scn, lfocPolicies(cfg, fleet, ot))
		if err != nil {
			return nil, err
		}
		return clusterOutcome(res, scn), nil
	}
	return b, nil
}

// The checkpoint workload: 16 machines, S2 at 16 arrivals/s over 30 s,
// paused at chaosStopAfter and resumed from the checkpoint.
const (
	chaosMachines  = 16
	chaosWindow    = 30
	chaosStopAfter = 15
)

// setupChaosResume is a 16-machine fleet with machine failures, drains
// and autoscaling whose op is interrupted by a checkpoint and resumed
// from it.
func setupChaosResume(e env) (*bench, error) {
	cfg := harness.DefaultConfig()
	simCfg := cfg.SimConfig()
	s2, err := workloads.Get("S2")
	if err != nil {
		return nil, err
	}
	var scn *scenario.Open
	gen, err := e.timed("workloads.generate", func() (err error) {
		scn, err = poissonTrace("chaos-resume", s2.ScaledSpecs(cfg.Scale), 16*chaosWindow, chaosWindow, e.seed)
		return err
	})
	if err != nil {
		return nil, err
	}
	events := chaosEvents()
	fleet := make([]sim.Config, chaosMachines)
	for i := range fleet {
		fleet[i] = simCfg
	}
	config := func(ot *opTrace) cluster.Config {
		return cluster.Config{Sim: simCfg, Machines: chaosMachines, Placement: ot.placement(cluster.NewLeastLoaded()),
			Lifecycle: &cluster.Lifecycle{
				Events: events,
				// Scale up when a fifth of the cores are committed: at
				// full commitment this load never triggers a join. Never
				// drain for low load (see chaosEvents).
				Autoscale: &cluster.Autoscale{Interval: 1, Up: 0.2, Down: 0, Min: chaosMachines / 2, Max: chaosMachines * 3 / 2},
				// The default migration policy, passed explicitly so a
				// traced op can wrap it.
				Migration: ot.migration(cluster.NewCostAwareMigration(0, simCfg.Plat)),
				JoinPolicy: func(_ int, mc sim.Config) (sim.Dynamic, error) {
					pol, _, err := cfg.NewDynamicPolicyFor("lfoc", mc.Plat)
					if err != nil {
						return nil, err
					}
					return ot.policy(pol), nil
				},
			}}
	}
	ckpt := filepath.Join(e.dir, "chaos-resume.ckpt")
	b := &bench{inputs: inputStats{generateS: gen, arrivals: len(scn.Arrivals())}}
	b.mixes = fleetMixes(fleet, cfg.Scale, s2)
	b.run = func(ot *opTrace) (*outcome, error) {
		stop := config(ot)
		stop.StopAfter = chaosStopAfter
		stop.Checkpoint = &cluster.CheckpointConfig{Path: ckpt}
		if err := ot.span("ckpt.stop", func() error {
			_, err := cluster.Run(stop, scn, lfocPolicies(cfg, fleet, ot))
			return err
		}); err != nil {
			return nil, fmt.Errorf("stop leg: %w", err)
		}
		var ck *cluster.Checkpoint
		if err := ot.span("ckpt.read", func() (err error) {
			ck, err = cluster.ReadCheckpoint(ckpt)
			return err
		}); err != nil {
			return nil, err
		}
		fi, err := os.Stat(ckpt)
		if err != nil {
			return nil, err
		}
		resume := config(ot)
		resume.Resume = ck
		var res *cluster.Result
		if err := ot.span("ckpt.resume", func() (err error) {
			res, err = cluster.Run(resume, scn, lfocPolicies(cfg, fleet, ot))
			return err
		}); err != nil {
			return nil, fmt.Errorf("resume leg: %w", err)
		}
		out := clusterOutcome(res, scn)
		out.ckptBytes = fi.Size()
		return out, nil
	}
	b.stopWithoutCheckpoint = func(tr *tracer) (float64, error) {
		ot := newOpTrace(tr, "ckpt.stop_without_checkpoint", -1)
		stop := config(ot)
		stop.StopAfter = chaosStopAfter
		start := time.Now()
		_, err := cluster.Run(stop, scn, lfocPolicies(cfg, fleet, ot))
		tr.end(ot.opSpan)
		return time.Since(start).Seconds(), err
	}
	// The uninterrupted run is the reference every resumed result must
	// equal. It is computed once, on the first check, outside any timing.
	var uninterrupted string
	b.check = func(o *outcome) error {
		if uninterrupted == "" {
			res, err := cluster.Run(config(nil), scn, lfocPolicies(cfg, fleet, nil))
			if err != nil {
				return fmt.Errorf("uninterrupted run: %w", err)
			}
			if uninterrupted, err = digestOf(res); err != nil {
				return err
			}
		}
		if o.digest != uninterrupted {
			return fmt.Errorf("resumed result %.12s differs from the uninterrupted run %.12s", o.digest, uninterrupted)
		}
		return nil
	}
	return b, nil
}

// poissonTrace is n arrivals over [0, window) at seeded, uniformly
// random instants — a Poisson process conditioned on n arrivals —
// running the pool's applications in cyclic order. Fixing the count and
// the sequence fixes the work, so the seed moves only the arrival
// instants: the application sequence alone changes a fleet's cost by
// tens of percent, which would make runs at different seeds
// incomparable.
func poissonTrace(name string, pool []*appmodel.Spec, n int, window float64, seed int64) (*scenario.Open, error) {
	rng := rand.New(rand.NewSource(seed))
	times := make([]float64, n)
	for i := range times {
		times[i] = rng.Float64() * window
	}
	sort.Float64s(times)
	arrivals := make([]scenario.Arrival, n)
	for i, t := range times {
		arrivals[i] = scenario.Arrival{Time: t, Spec: pool[i%len(pool)]}
	}
	return scenario.NewTrace(name, nil, arrivals)
}

// chaosEvents is the checkpoint workload's disruption schedule: six
// failures and two drains of distinct initial machines, evenly spaced
// between the checkpoint instant and the end of the arrivals. All of
// them come after the checkpoint instant, because a run resumed while
// machines are down does not reproduce the uninterrupted run (the
// README's known issue); that is also why autoscaling never drains.
func chaosEvents() []cluster.Event {
	events := make([]cluster.Event, 8)
	for i := range events {
		kind := cluster.MachineFail
		if i%4 == 1 {
			kind = cluster.MachineDrain
		}
		events[i] = cluster.Event{
			Time:    chaosStopAfter + (float64(i)+0.5)*(chaosWindow-chaosStopAfter)/float64(len(events)),
			Kind:    kind,
			Machine: (5*i + 3) % chaosMachines,
		}
	}
	return events
}

// lfocPolicies is the per-machine policy factory: LFOC built for each
// machine's own platform, wrapped when the op is traced.
func lfocPolicies(cfg harness.Config, fleet []sim.Config, ot *opTrace) func(int) (sim.Dynamic, error) {
	return func(i int) (sim.Dynamic, error) {
		pol, _, err := cfg.NewDynamicPolicyFor("lfoc", fleet[i].Plat)
		if err != nil {
			return nil, err
		}
		return ot.policy(pol), nil
	}
}

// clusterOutcome reads a cluster result. A departed application always
// has a positive slowdown, the predicate cluster results count by.
func clusterOutcome(res *cluster.Result, scn *scenario.Open) *outcome {
	out := &outcome{result: res, cluster: res, departed: res.Departed,
		unfairness: res.Series.MeanUnfairness(), stp: res.Summary.STP,
		apps: len(scn.Initial()) + len(scn.Arrivals())}
	for _, m := range res.PerMachine {
		for _, a := range m.Open.Apps {
			if a.DepartedAt >= 0 && a.Slowdown > 0 {
				out.soloS += a.AloneSeconds
			}
		}
	}
	return out
}

// fleetMixes is the mix w on every distinct platform of the fleet.
func fleetMixes(fleet []sim.Config, scale uint64, w workloads.Workload) []evalMix {
	phases := dominantPhases(w.ScaledSpecs(scale))
	var out []evalMix
	for i, c := range fleet {
		if i == 0 || c.Plat != fleet[i-1].Plat {
			out = append(out, evalMix{c.Plat, phases})
		}
	}
	return out
}

func dominantPhases(specs []*appmodel.Spec) []*appmodel.PhaseSpec {
	out := make([]*appmodel.PhaseSpec, len(specs))
	for i, s := range specs {
		out[i] = s.DominantPhase()
	}
	return out
}
