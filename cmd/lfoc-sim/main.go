// Command lfoc-sim co-runs one workload under one policy and reports the
// paper's metrics (per-app slowdowns, unfairness, STP), in the closed
// §5 methodology, as an open system under arrival/departure churn, or —
// with -machines — across a multi-machine cluster behind one arrival
// stream.
//
// Usage:
//
//	lfoc-sim -workload S3 -policy lfoc
//	lfoc-sim -workload P7 -policy dunn -scale 20
//	lfoc-sim -apps lbm06,xalancbmk06,povray06 -policy stock
//	lfoc-sim -workload S3 -arrivals poisson:2 -duration 10 -seed 7
//	lfoc-sim -workload S3 -arrivals uniform:0.5 -duration 10 -json out.json
//	lfoc-sim -workload S3 -sweep 0.5,1,2 -duration 10 -seed 7
//	lfoc-sim -workload S3 -arrivals poisson:4 -machines 4 -placement fair -seed 7
//	lfoc-sim -workload S3 -sweep 2,4 -machines 4 -duration 10
//	lfoc-sim -workload-spec examples/specs/diurnal-bursty.yaml
//	lfoc-sim -workload-spec spec.yaml -record-trace run.trace
//	lfoc-sim -replay-trace run.trace -machines 4 -placement fair
//	lfoc-sim -spec-sweep examples/specs/diurnal-web.yaml,examples/specs/bursty-batch.yaml
//
// Policies: stock (no partitioning), dunn, lfoc (all dynamic).
//
// Each invocation is one of three runs, picked by at most one of five
// selectors: a grid (-sweep, -spec-sweep); one run of an arrival source
// (-arrivals, -workload-spec, -replay-trace), on a fleet when a fleet
// flag (-machines above 1, -placement, -machine-mix), a lifecycle flag
// (-events, -mtbf, -autoscale) or a checkpoint flag (-checkpoint,
// -resume, -stop-after) is set; otherwise the closed batch. Every flag
// that depends on the run has one row in main's applicability table,
// mirrored by the "Applies to" column of README's flag table; a flag set
// explicitly outside its row is a usage error, so no input is accepted
// and then ignored.
//
// -arrivals switches to the open system: applications arrive by a
// seeded Poisson process (poisson:<rate>, arrivals per simulated
// second) or a fixed cadence (uniform:<interval seconds>) over
// -duration simulated seconds, run one instruction quota, and depart.
// Results are per-app slowdowns at departure plus windowed
// unfairness/STP/throughput series. -sweep runs a grid over a list of
// Poisson rates: at each rate every policy (stock, dunn, lfoc) faces
// the identical trace, and an explicit -policy narrows the grid to one.
// -seed makes every seeded trace reproducible. -json writes the
// machine-readable result (mirroring lfoc-bench -json).
//
// -machines N spreads the arrival stream across a fleet of N identical
// machines, each running its own instance of -policy; -placement picks
// the routing policy (rr = round-robin, least = least-loaded, fair =
// contention-aware via the sharing model). -machine-mix makes the fleet
// heterogeneous: a comma-separated list of <count>x<ways>way[<cores>c]
// groups (e.g. -machine-mix 2x11way,2x7way), each machine running the
// default platform resized to that way/core count, with its -policy
// instance built for its own platform. Cluster JSON output includes
// the per-machine results (with per-machine platform/cores/ways) and
// windowed series. On a fleet, -sweep adds a placement axis (rr, least,
// fair); an explicit -placement narrows it as -policy does the policy
// axis.
//
// Cluster runs advance the fleet through a lazy event queue: only
// machines whose next-event horizon has passed are touched per
// arrival, so 1000-machine fleets simulate in seconds while producing
// results bit-identical to an eager every-machine loop.
// -record-assignments adds the per-arrival machine assignment log to the
// JSON result of one run on a fleet (off by default — it costs
// O(arrivals) memory).
//
// -events, -mtbf and -autoscale add the machine lifecycle layer:
// -events schedules joins/drains/failures (drain:t=5,m=1;fail:t=7,m=0;
// join:t=9), -mtbf injects seeded random machine failures with the
// given mean time between failures, and -autoscale
// (i=<interval>[,up=][,down=][,min=][,max=]) scales the fleet with
// load. Drained machines migrate their residents when the cost-aware
// policy finds it worth it (-migration-cost tunes the tradeoff;
// negative disables migration); failed machines requeue them with
// exponential backoff bounded by -max-retries. These three tuning flags
// apply only with a lifecycle. The identical (seed, trace, schedule)
// inputs reproduce the identical run at any -machines/worker
// configuration. With -sweep or -spec-sweep every grid cell runs the
// lifecycle these flags configure, so the cells of one trace face the
// same disruption schedule too.
//
// -workload-spec replaces -arrivals with a declarative scenario file
// (YAML or JSON, see docs/workload-spec.md): cohorts with diurnal rate
// curves, MMPP calm/burst episodes, heavy-tailed job sizes and weighted
// application mixes. The spec carries its own applications, duration
// and seed (an explicit -seed overrides the spec's), and generation is
// a pure function of (spec, -scale), so a spec file is a complete
// reproducible experiment. -record-trace writes the open-system arrival
// trace (whatever its source) to a versioned file; -replay-trace runs
// from such a file instead of generating, reproducing the recorded
// arrivals bit for bit — record once, then replay under different
// -placement/-policy/-machines settings to compare them on the
// identical stream. A trace bakes in its -scale (replay adopts it; a
// conflicting explicit -scale is an error). -spec-sweep is the
// spec-file counterpart of -sweep: one grid trace per spec file, over
// the fleet and lifecycle flags, with an explicit -seed overriding
// every spec's seed.
//
// -checkpoint <path> makes a cluster run crash-safe: the run's full
// coordinate (per-machine kernel state, placement state, lifecycle
// timeline position) is written atomically to the file — every
// -checkpoint-every simulated seconds, and once more when the run is
// interrupted. -resume <path> restarts from such a file under the
// identical flags and completes to the result the uninterrupted run
// would have produced, bit for bit (see docs/checkpoint-resume.md).
// -stop-after <s> stops a cluster run at a simulated time, emitting the
// partial result with "interrupted": true — combined with -checkpoint
// it splits a long run into resumable legs. SIGINT/SIGTERM interrupt a
// cluster run the same way: the run pauses at the next arrival
// boundary, writes the final checkpoint, emits the partial result, and
// exits 130 (a second signal kills immediately).
//
// -cpuprofile/-memprofile write pprof profiles of the run, so perf
// investigations start from a profile instead of a guess.
//
// All usage and runtime errors exit non-zero, so CI steps built on this
// command cannot silently pass.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"

	"github.com/faircache/lfoc/internal/atomicfile"
	"github.com/faircache/lfoc/internal/cluster"
	"github.com/faircache/lfoc/internal/harness"
	"github.com/faircache/lfoc/internal/profiles"
	"github.com/faircache/lfoc/internal/profiling"
	"github.com/faircache/lfoc/internal/sim"
	"github.com/faircache/lfoc/internal/sim/scenario"
	"github.com/faircache/lfoc/internal/workloads"
)

// closedJSON is the -json schema of a closed run.
type closedJSON struct {
	Workload     string    `json:"workload"`
	Policy       string    `json:"policy"`
	Scale        uint64    `json:"scale"`
	Benchmarks   []string  `json:"benchmarks"`
	CT           []float64 `json:"ct_seconds"`
	AloneCT      []float64 `json:"alone_ct_seconds"`
	Slowdowns    []float64 `json:"slowdowns"`
	Unfairness   float64   `json:"unfairness"`
	STP          float64   `json:"stp"`
	Repartitions int       `json:"repartitions"`
	SimSeconds   float64   `json:"sim_seconds"`
}

// openJSON is the -json schema of an open run.
type openJSON struct {
	Workload string `json:"workload"`
	Policy   string `json:"policy"`
	Scale    uint64 `json:"scale"`
	Seed     int64  `json:"seed"`
	*sim.OpenResult
}

// clusterJSON is the -json schema of a cluster run: the cluster result
// (fleet aggregates, assignments, per-machine outcomes and series) plus
// the run parameters.
type clusterJSON struct {
	Workload string `json:"workload"`
	Policy   string `json:"policy"`
	Scale    uint64 `json:"scale"`
	Seed     int64  `json:"seed"`
	// Mix is the -machine-mix fleet specification (empty when the fleet
	// is homogeneous).
	Mix string `json:"mix,omitempty"`
	// Events and MTBF echo the -events schedule and -mtbf setting of a
	// lifecycle run (omitted otherwise, keeping lifecycle-free JSON
	// byte-identical to earlier releases).
	Events []cluster.Event `json:"events,omitempty"`
	MTBF   float64         `json:"mtbf,omitempty"`
	*cluster.Result
}

// gridJSON is the -json schema of a -sweep or -spec-sweep grid. Events
// and MTBF echo the lifecycle flags, as in clusterJSON.
type gridJSON struct {
	Scale  uint64          `json:"scale"`
	Events []cluster.Event `json:"events,omitempty"`
	MTBF   float64         `json:"mtbf,omitempty"`
	harness.GridData
}

func main() {
	var (
		workload      = flag.String("workload", "", "workload name (S1..S21, P1..P15)")
		apps          = flag.String("apps", "", "comma-separated benchmark list (alternative to -workload)")
		polName       = flag.String("policy", "lfoc", "policy: stock | dunn | lfoc")
		scale         = flag.Uint64("scale", 50, "time-scale divisor (1 = paper scale)")
		arrivals      = flag.String("arrivals", "", "open-system arrival process: poisson:<rate> | uniform:<interval>")
		workloadSpec  = flag.String("workload-spec", "", "declarative workload spec file (YAML/JSON): generates the open-system arrival trace (see docs/workload-spec.md)")
		recordTrace   = flag.String("record-trace", "", "write the open-system arrival trace to this file (replay it with -replay-trace)")
		replayTrace   = flag.String("replay-trace", "", "replay a recorded arrival trace bit-exactly instead of generating one")
		specSweep     = flag.String("spec-sweep", "", "comma-separated workload spec files: run every spec against every policy (and placement, on a fleet)")
		duration      = flag.Float64("duration", 10, "open-system arrival window in simulated seconds")
		seed          = flag.Int64("seed", 1, "seed for the open-system arrival trace")
		sweep         = flag.String("sweep", "", "comma-separated Poisson rates: run every policy (and placement, on a fleet) on each rate's trace")
		machines      = flag.Int("machines", 1, "cluster size: spread arrivals across this many machines")
		mix           = flag.String("machine-mix", "", "heterogeneous fleet spec: <count>x<ways>way[<cores>c],... e.g. 2x11way,2x7way (implies cluster mode)")
		placement     = flag.String("placement", "", "cluster placement policy: rr | least | fair (implies cluster mode)")
		recordAssign  = flag.Bool("record-assignments", false, "include the per-arrival machine assignment log in a single cluster run's JSON result (costs O(arrivals) memory)")
		events        = flag.String("events", "", "fleet lifecycle schedule: kind:t=<s>[,m=<idx>];... e.g. drain:t=5,m=1;fail:t=7,m=0;join:t=9 (implies cluster mode)")
		mtbf          = flag.Float64("mtbf", 0, "mean time between random machine failures, simulated seconds (0 = none; implies cluster mode)")
		autoscale     = flag.String("autoscale", "", "load-triggered autoscaling: i=<interval>[,up=<ratio>][,down=<ratio>][,min=<n>][,max=<n>] (implies cluster mode)")
		maxRetries    = flag.Int("max-retries", 0, "failure retry budget per application (0 = default 3)")
		retryBackoff  = flag.Float64("retry-backoff", 0, "base failure-retry backoff, simulated seconds (0 = default 0.25)")
		migrationCost = flag.Float64("migration-cost", 0, "modeled live-migration cost, simulated seconds (negative disables drain migration)")
		checkpoint    = flag.String("checkpoint", "", "write the run's resumable checkpoint to this file, atomically (periodic with -checkpoint-every, always on interruption; implies cluster mode)")
		ckptEvery     = flag.Float64("checkpoint-every", 0, "simulated seconds between periodic checkpoints (0 = only on interruption; needs -checkpoint)")
		resume        = flag.String("resume", "", "resume from a checkpoint file written by -checkpoint, under the identical flags (implies cluster mode)")
		stopAfter     = flag.Float64("stop-after", 0, "stop the run at this simulated time and emit the partial result (0 = run to completion; implies cluster mode)")
		jsonOut       = flag.String("json", "", "write the machine-readable result to this file")
		cpuProf       = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf       = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()
	stopProfiles, err := profiling.Start(*cpuProf, *memProf)
	exitOn(err)
	profileCleanup = stopProfiles
	defer stopProfiles()
	if flag.NArg() > 0 {
		fail(fmt.Errorf("unexpected arguments: %s", strings.Join(flag.Args(), " ")))
	}
	// Go's flag parser accepts NaN and ±Inf, which no float flag can
	// mean; -mtbf and -stop-after also count forward from time zero.
	explicit := map[string]bool{}
	flag.Visit(func(f *flag.Flag) {
		explicit[f.Name] = true
		v, ok := f.Value.(flag.Getter).Get().(float64)
		if ok && (math.IsNaN(v) || math.IsInf(v, 0) || v < 0 && (f.Name == "mtbf" || f.Name == "stop-after")) {
			fail(fmt.Errorf("-%s %v: want a finite number (nonnegative for -mtbf and -stop-after)", f.Name, v))
		}
	})
	if *machines < 1 {
		fail(fmt.Errorf("-machines must be at least 1, got %d", *machines))
	}
	if *scale == 0 {
		fail(fmt.Errorf("-scale must be at least 1 (1 = paper scale)"))
	}

	// The run: a grid, one run of an arrival source (on a fleet when a
	// fleet, lifecycle or checkpoint flag is set), or the closed batch.
	selectors := 0
	for _, s := range []string{*sweep, *specSweep, *arrivals, *workloadSpec, *replayTrace} {
		if s != "" {
			selectors++
		}
	}
	if selectors > 1 {
		fail(fmt.Errorf("-sweep, -spec-sweep, -arrivals, -workload-spec and -replay-trace are mutually exclusive"))
	}
	grid := *sweep != "" || *specSweep != ""
	open := selectors == 1 && !grid
	lc := &cluster.Lifecycle{MTBF: *mtbf, MaxRetries: *maxRetries, RetryBackoff: *retryBackoff, MigrationCost: *migrationCost}
	lc.Events, err = cluster.ParseEvents(*events)
	exitOn(err)
	lc.Autoscale, err = cluster.ParseAutoscale(*autoscale)
	exitOn(err)
	lifecycle := len(lc.Events) > 0 || lc.MTBF > 0 || lc.Autoscale != nil
	fleet := open && (*machines > 1 || *placement != "" || *mix != "" || lifecycle ||
		*checkpoint != "" || *resume != "" || *stopAfter > 0)
	needsWorkload := *specSweep == "" && *workloadSpec == "" && *replayTrace == ""

	// Where each flag that depends on the run applies (README's "Applies
	// to" column). Set anywhere else, it would be ignored.
	const (
		oneSource     = "one run of an arrival source"
		sourceOrGrid  = "one run of an arrival source, or a grid"
		withLifecycle = "a run with -events, -mtbf or -autoscale"
	)
	for _, row := range []struct {
		flag  string
		ok    bool
		where string
	}{
		{"workload", needsWorkload, "a closed run, -arrivals or -sweep"},
		{"apps", needsWorkload && *workload == "", "a closed run, -arrivals or -sweep, in place of -workload"},
		{"duration", *arrivals != "" || *sweep != "", "-arrivals or -sweep"},
		{"seed", grid || *workloadSpec != "" || strings.HasPrefix(*arrivals, "poisson:"),
			"a seeded trace: Poisson arrivals, a spec or a sweep"},
		{"record-trace", open, oneSource},
		{"machines", open || grid, sourceOrGrid},
		{"machine-mix", open || grid, sourceOrGrid},
		{"placement", open || grid, sourceOrGrid},
		{"events", open || grid, sourceOrGrid},
		{"mtbf", open || grid, sourceOrGrid},
		{"autoscale", open || grid, sourceOrGrid},
		{"max-retries", lifecycle, withLifecycle},
		{"retry-backoff", lifecycle, withLifecycle},
		{"migration-cost", lifecycle, withLifecycle},
		{"record-assignments", fleet, "one run of an arrival source, on a fleet"},
		{"checkpoint", open, oneSource},
		{"checkpoint-every", *checkpoint != "", "a run with -checkpoint"},
		{"resume", open, oneSource},
		{"stop-after", open, oneSource},
	} {
		if explicit[row.flag] && !row.ok {
			fail(fmt.Errorf("-%s applies only to %s", row.flag, row.where))
		}
	}

	var w workloads.Workload
	switch {
	case *workload != "":
		w, err = workloads.Get(*workload)
		exitOn(err)
	case *apps != "":
		var names []string
		for _, n := range strings.Split(*apps, ",") {
			name := strings.TrimSpace(n)
			if _, err := profiles.Get(name); err != nil {
				exitOn(err)
			}
			names = append(names, name)
		}
		w = workloads.Workload{Name: *apps, Benchmarks: names}
	case needsWorkload:
		fail(fmt.Errorf("need -workload, -apps, -workload-spec, -replay-trace or -spec-sweep"))
	}

	cfg := harness.DefaultConfig()
	cfg.Scale = *scale

	// With -machine-mix the fleet size comes from the mix; an explicit
	// -machines must agree with it (checked by the cluster layer), while
	// the flag's default of 1 should not be mistaken for a constraint.
	fleetSize := *machines
	if *mix != "" && !explicit["machines"] {
		fleetSize = 0
	}

	if grid {
		// An explicit -placement or -policy narrows its grid axis (and an
		// invalid name fails the run rather than being ignored).
		g := harness.Grid{Workload: w, Window: *duration, Seed: *seed, Machines: fleetSize, Mix: *mix, Lifecycle: lc}
		if explicit["placement"] {
			g.Placements = []string{*placement}
		}
		if explicit["policy"] {
			g.Policies = []string{*polName}
		}
		if *sweep != "" {
			for _, s := range strings.Split(*sweep, ",") {
				r, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
				exitOn(err)
				g.Rates = append(g.Rates, r)
			}
		}
		for _, p := range strings.Split(*specSweep, ",") {
			if p = strings.TrimSpace(p); p == "" {
				continue
			}
			s, err := workloads.LoadSpec(p)
			exitOn(err)
			if explicit["seed"] {
				s.Seed = *seed
			}
			g.Specs = append(g.Specs, s)
		}
		d, err := g.Run(cfg)
		exitOn(err)
		fmt.Println(d.Render())
		writeJSON(*jsonOut, gridJSON{Scale: cfg.Scale, Events: lc.Events, MTBF: lc.MTBF, GridData: d})
		return
	}

	// Open and cluster runs build their scenario here — one place for
	// every arrival source (-arrivals generation, -workload-spec
	// expansion, -replay-trace) — so -record-trace serializes whatever
	// stream the run is about to face.
	var scn *scenario.Open
	scnSeed := *seed
	switch {
	case *replayTrace != "":
		tr, err := workloads.ReadTraceFile(*replayTrace)
		exitOn(err)
		if explicit["scale"] && *scale != tr.Scale {
			fail(fmt.Errorf("-scale %d conflicts with the trace's recorded scale %d (traces bake their scale into the specs)", *scale, tr.Scale))
		}
		cfg.Scale = tr.Scale
		scn, err = tr.Scenario()
		exitOn(err)
		scnSeed = 0 // a replayed trace is not reseedable
		w.Name = scn.Name()
	case *workloadSpec != "":
		s, err := workloads.LoadSpec(*workloadSpec)
		exitOn(err)
		if explicit["seed"] {
			s.Seed = *seed
		}
		scn, err = s.Scenario(cfg.Scale)
		exitOn(err)
		scnSeed = s.Seed
		w.Name = scn.Name()
	case *arrivals != "":
		scn, scnSeed = openScenario(cfg, w, *arrivals, *duration, *seed)
	default:
		runClosed(cfg, w, *polName, *jsonOut)
		return
	}
	if *recordTrace != "" {
		tr := &workloads.Trace{Name: scn.Name(), Scale: cfg.Scale, Arrivals: scn.Arrivals()}
		exitOn(workloads.WriteTraceFile(*recordTrace, tr))
		fmt.Fprintln(os.Stderr, "lfoc-sim: recorded", *recordTrace)
	}
	if !fleet {
		runOpen(cfg, w, *polName, scn, scnSeed, *jsonOut)
		return
	}

	if *placement == "" {
		*placement = "rr"
	}
	ccfg := cluster.Config{Sim: cfg.SimConfig(), Machines: fleetSize, Lifecycle: lc,
		RecordAssignments: *recordAssign, StopAfter: *stopAfter}
	ccfg.Placement, err = cluster.NewPlacement(*placement, cfg.Plat)
	exitOn(err)
	if *checkpoint != "" {
		ccfg.Checkpoint = &cluster.CheckpointConfig{Path: *checkpoint, Every: *ckptEvery}
	}
	if *resume != "" {
		ccfg.Resume, err = cluster.ReadCheckpoint(*resume)
		exitOn(err)
	}
	if *mix != "" {
		ccfg.Fleet, err = cluster.ParseMachineMix(*mix, ccfg.Sim)
		exitOn(err)
	}
	runCluster(cfg, w, *polName, *mix, ccfg, scn, scnSeed, *jsonOut)
}

func runClosed(cfg harness.Config, w workloads.Workload, polName, jsonOut string) {
	specs := w.ScaledSpecs(cfg.Scale)
	pol, ctrl, err := cfg.NewDynamicPolicy(polName)
	exitOn(err)

	res, err := sim.RunDynamic(cfg.SimConfig(), specs, pol)
	exitOn(err)

	fmt.Printf("workload: %s   policy: %s   scale: 1/%d\n\n", w.Name, polName, cfg.Scale)
	fmt.Printf("%-16s %10s %10s %9s %6s\n", "benchmark", "CT(s)", "alone(s)", "slowdown", "runs")
	for i, s := range specs {
		fmt.Printf("%-16s %10.3f %10.3f %9.3f %6d\n",
			s.Name, res.CT[i], res.AloneCT[i], res.Slowdowns[i], len(res.RunTimes[i]))
	}
	fmt.Printf("\nunfairness: %.3f    STP: %.3f    repartitions: %d    simulated: %.1fs\n",
		res.Summary.Unfairness, res.Summary.STP, res.Repartitions, res.SimSeconds)
	if ctrl != nil {
		fmt.Println("\nLFOC final classification:")
		for i, s := range specs {
			id := res.FinalMonIDs[i]
			fmt.Printf("  %-16s %s (resamples: %d)\n", s.Name, ctrl.ClassOf(id), ctrl.Resamples(id))
		}
		fmt.Println("final plan:", ctrl.Plan().Canonical())
	}

	benchNames := make([]string, len(specs))
	for i, s := range specs {
		benchNames[i] = s.Name
	}
	writeJSON(jsonOut, closedJSON{
		Workload:     w.Name,
		Policy:       polName,
		Scale:        cfg.Scale,
		Benchmarks:   benchNames,
		CT:           res.CT,
		AloneCT:      res.AloneCT,
		Slowdowns:    res.Slowdowns,
		Unfairness:   res.Summary.Unfairness,
		STP:          res.Summary.STP,
		Repartitions: res.Repartitions,
		SimSeconds:   res.SimSeconds,
	})
}

// openScenario builds the open-system scenario selected by -arrivals.
// The returned seed is 0 for unseeded (uniform) traces.
func openScenario(cfg harness.Config, w workloads.Workload, arrivals string, duration float64, seed int64) (*scenario.Open, int64) {
	kind, arg, ok := strings.Cut(arrivals, ":")
	if !ok {
		fail(fmt.Errorf("-arrivals %q: want poisson:<rate> or uniform:<interval>", arrivals))
	}
	val, err := strconv.ParseFloat(arg, 64)
	exitOn(err)

	var scn *scenario.Open
	switch kind {
	case "poisson":
		scn, err = w.OpenScenario(val, duration, seed, cfg.Scale)
	case "uniform":
		if val <= 0 {
			err = fmt.Errorf("-arrivals uniform: interval must be positive")
		} else {
			// Arrivals at i*interval for every i with i*interval < duration.
			scn, err = w.UniformScenario(val, int(math.Ceil(duration/val)), cfg.Scale)
		}
		seed = 0 // a uniform trace is unseeded; don't imply otherwise
	default:
		err = fmt.Errorf("-arrivals %q: unknown process %q", arrivals, kind)
	}
	exitOn(err)
	return scn, seed
}

func runOpen(cfg harness.Config, w workloads.Workload, polName string, scn *scenario.Open, seed int64, jsonOut string) {
	pol, _, err := cfg.NewDynamicPolicy(polName)
	exitOn(err)
	res, err := sim.RunOpen(cfg.SimConfig(), scn, pol)
	exitOn(err)

	fmt.Printf("scenario: %s   policy: %s   scale: 1/%d   seed: %d\n\n", res.Scenario, polName, cfg.Scale, seed)
	fmt.Printf("%-16s %10s %10s %10s %9s %8s\n", "benchmark", "arrived", "admitted", "departed", "slowdown", "wait(s)")
	for _, a := range res.Apps {
		admitted, departed, slowdown, wait := "-", "-", "-", "-"
		if a.AdmittedAt >= 0 {
			admitted = fmt.Sprintf("%.3f", a.AdmittedAt)
			wait = fmt.Sprintf("%.3f", a.WaitSeconds)
		}
		if a.DepartedAt >= 0 {
			departed = fmt.Sprintf("%.3f", a.DepartedAt)
			slowdown = fmt.Sprintf("%.3f", a.Slowdown)
		}
		fmt.Printf("%-16s %10.3f %10s %10s %9s %8s\n",
			a.Name, a.ArrivedAt, admitted, departed, slowdown, wait)
	}
	fmt.Printf("\ndeparted: %d/%d    mean slowdown: %.3f    mean wait: %.3fs    peak active: %d\n",
		res.Departed, len(res.Apps), res.MeanSlowdown, res.MeanWait, res.PeakActive)
	fmt.Printf("windowed means: unfairness %.3f    STP %.3f    throughput %.3f runs/s\n",
		res.Series.MeanUnfairness(), res.Series.MeanSTP(), res.Series.TotalThroughput())
	fmt.Printf("repartitions: %d    simulated: %.1fs    windows: %d × %.3fs\n",
		res.Repartitions, res.SimSeconds, res.Series.Len(), res.Series.Width)

	writeJSON(jsonOut, openJSON{Workload: w.Name, Policy: polName, Scale: cfg.Scale, Seed: seed, OpenResult: res})
}

func runCluster(cfg harness.Config, w workloads.Workload, polName, mix string, ccfg cluster.Config, scn *scenario.Open, seed int64, jsonOut string) {
	// SIGINT/SIGTERM interrupt the run cooperatively: the fleet pauses at
	// the next arrival boundary, the final checkpoint (if configured) is
	// written, and the partial result is emitted. A second signal kills
	// immediately.
	var signaled atomic.Bool
	cancel := &sim.CancelFlag{}
	ccfg.Cancel = cancel
	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigc)
	go func() {
		<-sigc
		signaled.Store(true)
		fmt.Fprintln(os.Stderr, "lfoc-sim: interrupt — pausing at the next arrival boundary (send again to kill)")
		cancel.Cancel()
		<-sigc
		os.Exit(130)
	}()
	sims, err := ccfg.MachineConfigs()
	exitOn(err)
	ccfg.Lifecycle.FailureSeed = seed
	ccfg.Lifecycle.JoinPolicy = func(i int, mc sim.Config) (sim.Dynamic, error) {
		pol, _, err := cfg.NewDynamicPolicyFor(polName, mc.Plat)
		return pol, err
	}
	res, err := cluster.Run(ccfg,
		scn, func(i int) (sim.Dynamic, error) {
			// Per-machine platform: a heterogeneous fleet needs each
			// policy instance built for its machine's own way count.
			pol, _, err := cfg.NewDynamicPolicyFor(polName, sims[i].Plat)
			return pol, err
		})
	exitOn(err)

	fleet := fmt.Sprintf("%d", res.Machines)
	if mix != "" {
		fleet = fmt.Sprintf("%d (%s)", res.Machines, cluster.MixNames(sims))
	}
	fmt.Printf("scenario: %s   policy: %s   placement: %s   machines: %s   scale: 1/%d   seed: %d\n\n",
		res.Scenario, polName, res.Placement, fleet, cfg.Scale, seed)
	fmt.Printf("%-8s %6s %6s %9s %9s %9s %10s %10s %10s %10s\n",
		"machine", "cores", "ways", "arrivals", "departed", "remaining", "wait p50", "wait p95", "wait max", "simulated")
	for _, m := range res.PerMachine {
		fmt.Printf("%-8d %6d %6d %9d %9d %9d %10.3f %10.3f %10.3f %9.1fs\n",
			m.Index, m.Cores, m.Ways, m.Arrivals, m.Open.Departed, m.Open.Remaining,
			m.Wait.P50, m.Wait.P95, m.Wait.Max, m.Open.SimSeconds)
	}
	fmt.Printf("\ncluster: departed %d/%d    mean slowdown: %.3f    mean wait: %.3fs    peak active: %d\n",
		res.Departed, res.Departed+res.Remaining, res.MeanSlowdown, res.MeanWait, res.PeakActive)
	fmt.Printf("windowed means: unfairness %.3f    STP %.3f    throughput %.3f runs/s\n",
		res.Series.MeanUnfairness(), res.Series.MeanSTP(), res.Series.TotalThroughput())
	fmt.Printf("repartitions: %d    simulated: %.1fs    windows: %d × %.3fs\n",
		res.Repartitions, res.SimSeconds, res.Series.Len(), res.Series.Width)
	if l := res.Lifecycle; l != nil {
		fmt.Printf("\nlifecycle: %d events (%d joins, %d drains, %d failures",
			l.Events, l.Joins, l.Drains, l.Failures)
		if l.AutoscaleActions > 0 {
			fmt.Printf("; %d autoscale actions", l.AutoscaleActions)
		}
		fmt.Printf(")    availability: %.3f\n", l.Availability)
		fmt.Printf("disrupted: %d    migrated: %d    requeued: %d (retries %d)    dead-lettered: %d    unplaced: %d\n",
			l.Disruptions, l.Migrations, l.Requeues, l.Retries, l.DeadLettered, l.Unplaced)
		fmt.Printf("fleet: %d/%d machines up at end    mean migration latency: %.3fs    mean requeue latency: %.3fs\n",
			l.FinalMachines, l.FleetSize, l.MeanMigrationLatency, l.MeanRequeueLatency)
		for _, m := range res.PerMachine {
			if m.State == "up" {
				continue
			}
			fmt.Printf("  machine %d: %s at %.3fs\n", m.Index, m.State, m.DownAt)
		}
	}

	if res.Interrupted {
		fmt.Printf("\ninterrupted at %.1fs simulated", res.SimSeconds)
		if ccfg.Checkpoint != nil {
			fmt.Printf("; resume with -resume %s", ccfg.Checkpoint.Path)
		}
		fmt.Println()
	}

	writeJSON(jsonOut, clusterJSON{Workload: w.Name, Policy: polName, Scale: cfg.Scale, Seed: seed, Mix: mix,
		Events: ccfg.Lifecycle.Events, MTBF: ccfg.Lifecycle.MTBF, Result: res})

	// A signal-interrupted run exits like an interrupted shell command
	// (130), after the partial result and checkpoint are safely out. An
	// explicit -stop-after boundary is a normal, successful exit.
	if res.Interrupted && signaled.Load() {
		if profileCleanup != nil {
			profileCleanup()
		}
		os.Exit(130)
	}
}

func writeJSON(path string, v any) {
	if path == "" {
		return
	}
	buf, err := json.MarshalIndent(v, "", "  ")
	exitOn(err)
	// Atomic (temp+rename): an interrupt or crash mid-write can never
	// leave a truncated result file behind.
	exitOn(atomicfile.WriteFile(path, append(buf, '\n'), 0o644))
	fmt.Fprintln(os.Stderr, "lfoc-sim: wrote", path)
}

// profileCleanup finishes any in-flight profiles before a non-zero
// exit (deferred functions do not run across os.Exit).
var profileCleanup func()

// fail reports a usage error and exits non-zero, printing the flag
// summary for context.
func fail(err error) {
	fmt.Fprintln(os.Stderr, "lfoc-sim:", err)
	flag.Usage()
	if profileCleanup != nil {
		profileCleanup()
	}
	os.Exit(2)
}

func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "lfoc-sim:", err)
		if profileCleanup != nil {
			profileCleanup()
		}
		os.Exit(1)
	}
}
