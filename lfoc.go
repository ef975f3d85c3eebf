// Package lfoc is a from-scratch Go reproduction of "LFOC: A Lightweight
// Fairness-Oriented Cache Clustering Policy for Commodity Multicores"
// (Garcia-Garcia, Saez, Castro, Prieto-Matias — ICPP 2019).
//
// The package re-exports the library's public surface:
//
//   - the LFOC controller itself (the paper's contribution): an integer
//     arithmetic, kernel-style runtime that classifies applications online
//     (streaming / sensitive / light-sharing), samples their cache
//     sensitivity with an early-stopping way sweep, and clusters them onto
//     Intel-CAT-style way partitions with UCP's lookahead;
//   - the baselines the paper compares against: stock Linux, UCP, Dunn
//     and KPart, plus Best-Static driven by a PBBCache-style parallel
//     branch-and-bound optimal solver;
//   - the experimental substrate: a Skylake-like platform model, a
//     synthetic SPEC CPU2006/2017 application catalog, the co-run
//     contention model, a deterministic co-scheduling simulator
//     implementing the paper's measurement methodology, and the harness
//     that regenerates every figure and table of the evaluation.
//
// Quick start:
//
//	cfg := lfoc.DefaultExperimentConfig()
//	ctrl, _, _ := cfg.NewDynamicPolicy("lfoc")
//	w, _ := lfoc.GetWorkload("S1")
//	res, _ := lfoc.RunDynamic(cfg.SimConfig(), w.ScaledSpecs(cfg.Scale), ctrl)
//	fmt.Println(res.Summary.Unfairness, res.Summary.STP)
//
// See the examples/ directory for complete programs and DESIGN.md for
// the system inventory.
package lfoc

import (
	"github.com/faircache/lfoc/internal/appmodel"
	"github.com/faircache/lfoc/internal/cat"
	"github.com/faircache/lfoc/internal/cluster"
	"github.com/faircache/lfoc/internal/core"
	"github.com/faircache/lfoc/internal/harness"
	"github.com/faircache/lfoc/internal/machine"
	"github.com/faircache/lfoc/internal/metrics"
	"github.com/faircache/lfoc/internal/pbb"
	"github.com/faircache/lfoc/internal/plan"
	"github.com/faircache/lfoc/internal/policy"
	"github.com/faircache/lfoc/internal/profiles"
	"github.com/faircache/lfoc/internal/resctrl"
	"github.com/faircache/lfoc/internal/sharing"
	"github.com/faircache/lfoc/internal/sim"
	"github.com/faircache/lfoc/internal/sim/scenario"
	"github.com/faircache/lfoc/internal/workloads"
)

// ---------------------------------------------------------------------
// Platform.
// ---------------------------------------------------------------------

// Platform describes a CAT-capable multicore (ways, way size, latencies,
// bandwidth).
type Platform = machine.Platform

// Skylake returns the paper's experimental platform: a Xeon Gold 6138
// with an 11-way 27.5 MB way-partitionable LLC.
func Skylake() *Platform { return machine.Skylake() }

// SmallPlatform returns a reduced platform for experimentation.
func SmallPlatform(ways, cores int) *Platform { return machine.Small(ways, cores) }

// ---------------------------------------------------------------------
// Application models.
// ---------------------------------------------------------------------

// Spec is a synthetic application: a sequence of phases with stack-
// distance locality profiles.
type Spec = appmodel.Spec

// PhaseSpec is one steady-state phase of an application.
type PhaseSpec = appmodel.PhaseSpec

// ProfileTable holds an application's offline per-way-count performance
// curves (IPC, LLCMPKC, MPKI, stalls, bandwidth).
type ProfileTable = appmodel.Table

// AppClass is the ground-truth taxonomy of catalog applications
// (distinct from Class, LFOC's *runtime* classification).
type AppClass = appmodel.Class

// Ground-truth class values.
const (
	AppLight     = appmodel.ClassLight
	AppStreaming = appmodel.ClassStreaming
	AppSensitive = appmodel.ClassSensitive
)

// Benchmarks lists the synthetic SPEC CPU2006/2017 catalog.
func Benchmarks() []string { return profiles.Names() }

// BenchmarksByClass lists catalog entries with a ground-truth class.
func BenchmarksByClass(c AppClass) []string { return profiles.ByClass(c) }

// Benchmark returns a catalog application model by name (e.g. "lbm06").
func Benchmark(name string) (*Spec, error) { return profiles.Get(name) }

// BuildProfile computes a phase's offline profile table on a platform.
func BuildProfile(ph *PhaseSpec, plat *Platform) *ProfileTable {
	return appmodel.BuildTable(ph, plat)
}

// ---------------------------------------------------------------------
// Plans, metrics, contention model.
// ---------------------------------------------------------------------

// Plan is a cache-clustering decision: clusters of applications with way
// counts.
type Plan = plan.Plan

// Cluster is one cache partition of a Plan.
type Cluster = plan.Cluster

// Summary bundles a workload's unfairness (Eq. 3) and STP (Eq. 4).
type Summary = metrics.Summary

// Unfairness computes MAX/MIN of the slowdowns (Eq. 3).
func Unfairness(slowdowns []float64) (float64, error) { return metrics.Unfairness(slowdowns) }

// STP computes the system throughput / weighted speedup (Eq. 4).
func STP(slowdowns []float64) (float64, error) { return metrics.STP(slowdowns) }

// ContentionModel estimates co-run performance under a CAT configuration
// (the PBBCache-style analytic model).
type ContentionModel = sharing.Model

// NewContentionModel creates a contention model for a platform.
func NewContentionModel(plat *Platform) *ContentionModel { return sharing.NewModel(plat) }

// EstimateSlowdowns evaluates a plan with the contention model: one
// dominant phase per application, slowdowns relative to running alone.
func EstimateSlowdowns(m *ContentionModel, phases []*PhaseSpec, p Plan) ([]float64, error) {
	return sharing.EvaluatePlan(m, phases, p)
}

// ---------------------------------------------------------------------
// The LFOC controller (the paper's contribution).
// ---------------------------------------------------------------------

// Controller is the OS-level LFOC runtime: online classification,
// early-stopping sampling mode, phase-change heuristics and the
// Algorithm 1 partitioner. All arithmetic is fixed-point.
type Controller = core.Controller

// Params are LFOC's tunables (Table 1 thresholds, Algorithm 1 knobs,
// monitoring cadences).
type Params = core.Params

// DefaultParams returns the paper's configuration for a k-way LLC.
func DefaultParams(nrWays int) Params { return core.DefaultParams(nrWays) }

// NewController creates an LFOC controller (wayBytes = per-way LLC
// capacity, for CMT-based critical-size checks).
func NewController(params Params, wayBytes uint64) (*Controller, error) {
	return core.NewController(params, wayBytes)
}

// Class is LFOC's runtime application classification.
type Class = core.Class

// Classification values.
const (
	ClassUnknown   = core.ClassUnknown
	ClassLight     = core.ClassLight
	ClassStreaming = core.ClassStreaming
	ClassSensitive = core.ClassSensitive
)

// ---------------------------------------------------------------------
// Baseline policies.
// ---------------------------------------------------------------------

// StaticPolicy decides a clustering once from offline profiles (§5.1).
type StaticPolicy = policy.Static

// StaticWorkload is the static policies' input.
type StaticWorkload = policy.Workload

// Static policy implementations.
type (
	// StockPolicy shares the whole LLC (no partitioning).
	StockPolicy = policy.Stock
	// UCPPolicy is utility-based strict partitioning (throughput).
	UCPPolicy = policy.UCP
	// DunnPolicy is the stalls-driven k-means clustering baseline.
	DunnPolicy = policy.Dunn
	// KPartPolicy is the hierarchical partitioning-sharing baseline.
	KPartPolicy = policy.KPart
	// LFOCStaticPolicy runs LFOC's algorithm once over offline data.
	LFOCStaticPolicy = policy.LFOCStatic
	// BestStaticPolicy is the optimal-fairness clustering reference.
	BestStaticPolicy = policy.BestStatic
)

// NewDunnDynamic creates the user-level dynamic Dunn runtime.
func NewDunnDynamic(ways int) *policy.DunnDynamic { return policy.NewDunnDynamic(ways) }

// NewStockDynamic creates the dynamic no-partitioning baseline.
func NewStockDynamic(ways int) *policy.StockDynamic { return policy.NewStockDynamic(ways) }

// ---------------------------------------------------------------------
// Optimal solver (PBBCache reimplementation).
// ---------------------------------------------------------------------

// Solver determines optimal cache-clustering/partitioning solutions with
// a parallel branch-and-bound search.
type Solver = pbb.Solver

// Solution is the solver's result.
type Solution = pbb.Solution

// Solver objectives.
const (
	OptimizeFairness   = pbb.Fairness
	OptimizeThroughput = pbb.Throughput
)

// NewSolver creates a solver for a platform.
func NewSolver(plat *Platform) *Solver { return pbb.New(plat) }

// ---------------------------------------------------------------------
// Simulator (the testbed substitute).
// ---------------------------------------------------------------------

// SimConfig parameterizes a co-run simulation.
type SimConfig = sim.Config

// SimResult carries completion times, slowdowns, unfairness and STP.
type SimResult = sim.Result

// DynamicPolicy is the interface the simulator drives; *Controller,
// *policy.DunnDynamic, *policy.StockDynamic and *sim.FixedPlanPolicy
// implement it. A map returned by Assignment and a plan returned by
// Reconfigure belong to the policy and are valid until its next method
// call: the caller must not modify them and copies what it keeps, and
// an implementer may rewrite both in place on any later call.
type DynamicPolicy = sim.Dynamic

// RunDynamic co-runs a workload under a dynamic policy with the paper's
// restart-until-three-completions methodology.
func RunDynamic(cfg SimConfig, specs []*Spec, pol DynamicPolicy) (*SimResult, error) {
	return sim.RunDynamic(cfg, specs, pol)
}

// RunStatic co-runs a workload under a fixed clustering plan.
func RunStatic(cfg SimConfig, specs []*Spec, p Plan) (*SimResult, error) {
	return sim.RunStatic(cfg, specs, p)
}

// ---------------------------------------------------------------------
// Scenarios (workload data; the simulation kernel applies the run rules).
// ---------------------------------------------------------------------

// ClosedScenario is the paper's §5 closed-batch workload: every
// application starts at time zero, and the kernel restarts each one on
// completion until all have RunsTarget runs (RunDynamic is exactly
// this workload with three runs). Its ResetIdentityOnRestart knob makes
// every restart look like an exit+spawn so policies must re-learn
// classes.
type ClosedScenario = scenario.Closed

// OpenScenario is the open-system arrival trace: applications arrive
// from a seeded Poisson process or an explicit trace, and the kernel
// runs each one's quota once and departs it. RunOpen feeds the trace to
// one machine; RunCluster places each arrival on a machine of a fleet.
type OpenScenario = scenario.Open

// ScenarioArrival schedules one application entering an open system.
type ScenarioArrival = scenario.Arrival

// OpenSimResult carries an open run's per-app outcomes and windowed
// metric series.
type OpenSimResult = sim.OpenResult

// WindowedSeries is the time-windowed metric trajectory of a run. Read
// its windows with Len and All; a stretch of idle windows is stored as
// one run record and read back window by window.
type WindowedSeries = metrics.WindowedSeries

// NewClosedScenario builds the closed scenario for a workload.
func NewClosedScenario(specs []*Spec, runsTarget int) *ClosedScenario {
	return scenario.NewClosed(specs, runsTarget)
}

// NewPoissonScenario builds an open scenario with seeded Poisson
// arrivals (rate per simulated second over [0, window) seconds) drawn
// uniformly from pool.
func NewPoissonScenario(name string, pool []*Spec, rate, window float64, seed int64) (*OpenScenario, error) {
	return scenario.NewPoisson(name, pool, rate, window, seed)
}

// NewTraceScenario builds an open scenario from an explicit arrival
// trace.
func NewTraceScenario(name string, initial []*Spec, arrivals []ScenarioArrival) (*OpenScenario, error) {
	return scenario.NewTrace(name, initial, arrivals)
}

// RunClosed runs a closed scenario under a dynamic policy.
func RunClosed(cfg SimConfig, scn *ClosedScenario, pol DynamicPolicy) (*SimResult, error) {
	return sim.RunClosed(cfg, scn, pol)
}

// RunOpen runs an open scenario under a dynamic policy; same
// (scenario, seed, config) inputs reproduce identical results.
func RunOpen(cfg SimConfig, scn *OpenScenario, pol DynamicPolicy) (*OpenSimResult, error) {
	return sim.RunOpen(cfg, scn, pol)
}

// ---------------------------------------------------------------------
// Cluster layer (multi-machine placement).
// ---------------------------------------------------------------------

// ClusterConfig parameterizes a multi-machine cluster run: per-machine
// simulator configuration (the homogeneous Sim+Machines shorthand or a
// heterogeneous Fleet list), placement policy, the advancement
// worker-pool bound and the opt-in per-arrival assignment log
// (RecordAssignments).
type ClusterConfig = cluster.Config

// ClusterResult carries a cluster run's fleet-wide aggregates, the
// opt-in per-arrival placement record (ClusterConfig.RecordAssignments)
// and every machine's open-system result.
type ClusterResult = cluster.Result

// ClusterMachineResult is one machine's share of a cluster run.
type ClusterMachineResult = cluster.MachineResult

// PlacementPolicy decides which machine admits an arriving application.
type PlacementPolicy = cluster.Policy

// PlacementMachineState is one machine's placement-visible load.
type PlacementMachineState = cluster.MachineState

// NewRoundRobinPlacement cycles arrivals through the machines in order.
func NewRoundRobinPlacement() PlacementPolicy { return cluster.NewRoundRobin() }

// NewLeastLoadedPlacement admits on the machine with the fewest
// resident plus queued applications.
func NewLeastLoadedPlacement() PlacementPolicy { return cluster.NewLeastLoaded() }

// NewFairnessAwarePlacement scores candidate machines with the sharing
// model plus LFOC's light/streaming classification and admits where
// predicted unfairness is lowest.
func NewFairnessAwarePlacement(plat *Platform) PlacementPolicy {
	return cluster.NewFairnessAware(plat)
}

// NewPlacement constructs a placement policy by name ("rr", "least" or
// "fair").
func NewPlacement(name string, plat *Platform) (PlacementPolicy, error) {
	return cluster.NewPlacement(name, plat)
}

// RunCluster executes an open scenario over a fleet of machines, each
// running its own dynamic partitioning policy built by newPolicy. An
// N=1 cluster reproduces RunOpen bit-identically, fleet advancement
// parallelizes over ClusterConfig.Workers without changing any result,
// and ClusterConfig.Fleet makes the fleet heterogeneous.
func RunCluster(cfg ClusterConfig, scn *OpenScenario, newPolicy func(machine int) (DynamicPolicy, error)) (*ClusterResult, error) {
	return cluster.Run(cfg, scn, newPolicy)
}

// ParseMachineMix parses a heterogeneous fleet specification — comma-
// separated "<count>x<ways>way[<cores>c]" groups, e.g. "2x11way,2x7way"
// — into per-machine simulator configurations for ClusterConfig.Fleet,
// deriving each machine from the base configuration.
func ParseMachineMix(spec string, base SimConfig) ([]SimConfig, error) {
	return cluster.ParseMachineMix(spec, base)
}

// ---------------------------------------------------------------------
// Machine lifecycle (elastic fleets, fault injection).
// ---------------------------------------------------------------------

// ClusterLifecycle configures ClusterConfig.Lifecycle: scheduled
// join/drain/fail events, a seeded MTBF failure process, bounded retry
// with exponential backoff, migration-aware drain recovery and
// load-triggered autoscaling. Identical (trace, schedule, seeds) inputs
// reproduce identical runs at any worker count; a nil or event-free
// lifecycle leaves cluster runs byte-identical to a build without the
// layer.
type ClusterLifecycle = cluster.Lifecycle

// ClusterEvent is one scheduled machine lifecycle event.
type ClusterEvent = cluster.Event

// ClusterAutoscale configures load-triggered fleet scaling.
type ClusterAutoscale = cluster.Autoscale

// ClusterLifecycleSummary is the lifecycle layer's share of a cluster
// result (event counts, disruption accounting, availability series).
type ClusterLifecycleSummary = cluster.LifecycleSummary

// Lifecycle event kinds.
const (
	MachineJoin  = cluster.MachineJoin
	MachineDrain = cluster.MachineDrain
	MachineFail  = cluster.MachineFail
)

// MigrationPolicy decides whether an application displaced by a drain
// is live-migrated (progress preserved) or requeued.
type MigrationPolicy = cluster.MigrationPolicy

// NewCostAwareMigration returns the default migration policy: migrate
// when the resident's preserved progress exceeds the modeled cost,
// choosing the destination by predicted unfairness.
func NewCostAwareMigration(cost float64, plat *Platform) MigrationPolicy {
	return cluster.NewCostAwareMigration(cost, plat)
}

// ClusterPlacementError is the typed error a cluster run returns when a
// placement or migration policy chooses a machine outside its contract
// (index out of range, or a machine that is down); test with errors.As.
type ClusterPlacementError = cluster.PlacementError

// Crash safety: checkpoint/resume, cooperative cancellation and
// panic-isolated workers (see docs/checkpoint-resume.md).

// ClusterCheckpointConfig configures periodic checkpointing of a
// cluster run (ClusterConfig.Checkpoint): atomic, checksummed writes of
// the run's full coordinate.
type ClusterCheckpointConfig = cluster.CheckpointConfig

// ClusterCheckpoint is a decoded, checksum-verified checkpoint, ready
// for ClusterConfig.Resume.
type ClusterCheckpoint = cluster.Checkpoint

// ReadClusterCheckpoint loads and verifies a checkpoint file. Failures
// are typed: *ClusterCheckpointFormatError for a non-checkpoint file, an
// unsupported version or a malformed payload,
// *ClusterCheckpointChecksumError for a payload that fails its checksum.
func ReadClusterCheckpoint(path string) (*ClusterCheckpoint, error) {
	return cluster.ReadCheckpoint(path)
}

// Typed checkpoint-file errors (match with errors.As).
type (
	ClusterCheckpointFormatError   = cluster.CheckpointFormatError
	ClusterCheckpointChecksumError = cluster.CheckpointChecksumError
)

// CancelFlag requests a cooperative pause of a run (ClusterConfig.Cancel
// or SimConfig.Cancel): safe to set from any goroutine; kernels check it
// at tick boundaries, the cluster layer at arrival boundaries. A
// canceled cluster run returns a partial result with Interrupted set
// and a nil error.
type CancelFlag = sim.CancelFlag

// ErrCanceled is the sentinel a canceled kernel-level run returns
// (errors.Is). Cluster runs absorb it into Result.Interrupted instead.
var ErrCanceled = sim.ErrCanceled

// ClusterRunPanicError is the typed error a cluster run returns when a
// machine's kernel panics (a buggy policy, for instance): the machine's
// job recovers the panic on whichever goroutine runs it, the fleet pool
// winds down cleanly, and the error reports the machine index,
// recovered value and stack; test with errors.As.
type ClusterRunPanicError = cluster.RunPanicError

// SnapshotUnsupportedError is the typed error reported up-front when
// checkpointing is requested but a placement or partitioning policy
// does not support snapshots; test with errors.As.
type SnapshotUnsupportedError = sim.SnapshotUnsupportedError

// ParseFleetEvents parses a compact lifecycle schedule for
// ClusterLifecycle.Events, e.g. "drain:t=5,m=1;fail:t=7,m=0;join:t=9".
func ParseFleetEvents(s string) ([]ClusterEvent, error) {
	return cluster.ParseEvents(s)
}

// SplitArrivals partitions an arrival trace across machines by an
// explicit per-arrival assignment (such as ClusterResult.Assignments,
// recorded when ClusterConfig.RecordAssignments is set).
func SplitArrivals(arrivals []ScenarioArrival, assignment []int, machines int) ([][]ScenarioArrival, error) {
	return workloads.SplitArrivals(arrivals, assignment, machines)
}

// ---------------------------------------------------------------------
// Workloads and experiments.
// ---------------------------------------------------------------------

// ExperimentWorkload is one of the paper's 36 mixes (Fig. 5).
type ExperimentWorkload = workloads.Workload

// AllWorkloads returns S1..S21 and P1..P15.
func AllWorkloads() []ExperimentWorkload { return workloads.All() }

// GetWorkload looks a workload up by name.
func GetWorkload(name string) (ExperimentWorkload, error) { return workloads.Get(name) }

// RandomMix draws a random workload of the given size.
func RandomMix(seed int64, size int) ExperimentWorkload { return workloads.RandomMix(seed, size) }

// ExperimentConfig parameterizes the figure/table regeneration harness.
type ExperimentConfig = harness.Config

// DefaultExperimentConfig returns the standard (1/50 time-scaled)
// experiment configuration.
func DefaultExperimentConfig() ExperimentConfig { return harness.DefaultConfig() }

// ---------------------------------------------------------------------
// Declarative workload specs and arrival traces.
// ---------------------------------------------------------------------

// WorkloadSpec is a declarative open-system scenario: per-cohort
// application mixes, diurnal rate curves (piecewise or sinusoidal),
// optional MMPP calm/burst modulation and heavy-tailed job-size
// distributions, all loaded from a versioned YAML/JSON file. Its
// Generate/Scenario methods expand it into a concrete arrival trace as
// a pure seeded function of (spec, scale) — bit-identical across runs,
// processes and GOMAXPROCS. See docs/workload-spec.md for the file
// format.
type WorkloadSpec = workloads.Spec

// LoadWorkloadSpec reads, parses and validates a spec file (format by
// extension: .json, .yaml/.yml, anything else sniffed).
func LoadWorkloadSpec(path string) (*WorkloadSpec, error) { return workloads.LoadSpec(path) }

// ParseWorkloadSpec parses and validates spec bytes. Parsing is strict:
// unknown fields are a *WorkloadSpecParseError, semantic problems a
// *WorkloadSpecValidationError, and a schema-version mismatch a
// *WorkloadSpecVersionError (all match with errors.As).
func ParseWorkloadSpec(data []byte, ext string) (*WorkloadSpec, error) {
	return workloads.ParseSpec(data, ext)
}

// Typed workload-spec and trace errors.
type (
	// WorkloadSpecVersionError reports a spec or trace file written
	// under an unsupported schema version.
	WorkloadSpecVersionError = workloads.VersionError
	// WorkloadSpecValidationError reports a semantically invalid spec
	// field by its dotted path (e.g. "cohorts[1].rate.constant").
	WorkloadSpecValidationError = workloads.ValidationError
	// WorkloadSpecParseError reports malformed spec syntax or unknown
	// fields.
	WorkloadSpecParseError = workloads.ParseError
	// ArrivalTraceError reports a malformed or unrepresentable arrival
	// trace.
	ArrivalTraceError = workloads.TraceError
)

// ArrivalTrace is a recorded open-system arrival stream: the versioned
// on-disk form of a generated scenario. Record once, replay under
// different placements/policies/fleets — every variant faces the
// identical arrivals bit for bit.
type ArrivalTrace = workloads.Trace

// WriteArrivalTrace records a trace to a file; it fails with an
// *ArrivalTraceError if any arrival is not exactly representable (so a
// trace that writes cleanly is guaranteed to replay bit-identically).
func WriteArrivalTrace(path string, t *ArrivalTrace) error { return workloads.WriteTraceFile(path, t) }

// ReadArrivalTrace replays a trace from a file, rebuilding every
// arrival spec through the same scaling path generation uses.
func ReadArrivalTrace(path string) (*ArrivalTrace, error) { return workloads.ReadTraceFile(path) }

// ---------------------------------------------------------------------
// resctrl-style deployment interface.
// ---------------------------------------------------------------------

// Resctrl emulates the Linux resctrl filesystem over a CAT controller —
// the control surface a production LFOC daemon would use (resource
// groups, "L3:0=7ff" schemata lines, task files, llc_occupancy).
type Resctrl = resctrl.FS

// CATController is the raw CAT control plane (COS table + associations).
type CATController = cat.Controller

// WayMask is a CAT capacity bitmask (one bit per LLC way).
type WayMask = cat.WayMask

// TaskID identifies a task in the CAT/resctrl namespaces (the simulator
// and the plans use plain application indices for the same ids).
type TaskID = cat.TaskID

// NewCATController creates a CAT control plane for a platform.
func NewCATController(plat *Platform) (*CATController, error) {
	return cat.NewController(plat.Ways, plat.NumCOS, plat.MinCBMBits)
}

// MountResctrl mounts the emulated resctrl filesystem over a controller.
// occFn, if non-nil, backs the llc_occupancy monitoring files.
func MountResctrl(ctrl *CATController, cacheIDs []int, occFn func(task int) uint64) (*Resctrl, error) {
	var wrapped func(cat.TaskID) uint64
	if occFn != nil {
		wrapped = func(t cat.TaskID) uint64 { return occFn(int(t)) }
	}
	return resctrl.NewFS(ctrl, cacheIDs, wrapped)
}

// ApplyPlan enforces a clustering plan through the resctrl interface:
// one resource group per cluster with sequential disjoint masks (or
// Dunn-style overlapping masks when the plan says so).
func ApplyPlan(fs *Resctrl, p Plan, plat *Platform) error {
	masks, err := p.Masks(plat.Ways)
	if err != nil {
		return err
	}
	members := make([][]cat.TaskID, len(p.Clusters))
	for ci, c := range p.Clusters {
		for _, a := range c.Apps {
			members[ci] = append(members[ci], cat.TaskID(a))
		}
	}
	return fs.ApplyPlanMasks(masks, members)
}
