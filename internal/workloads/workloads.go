// Package workloads defines what runs in an experiment: the paper's
// Fig. 5 mix catalog, random mixes, and a declarative workload spec
// engine that expands scenario descriptions into deterministic
// open-system arrival traces.
//
// # Fig. 5 mixes
//
// The catalog reproduces the paper's experimental workloads: 36
// randomly generated multiprogram mixes of SPEC benchmarks — 21 "S"
// workloads whose applications keep a stable behaviour class for the
// whole execution (§5.1), and 15 "P" workloads that include programs
// with distinct long-term phases such as xz, astar, mcf and xalancbmk
// (§5.2), in sizes 8, 12 and 16 to study the ways-to-applications
// ratio. Generation is deterministic (seeded per workload index) and
// follows the visible constraints of Fig. 5: at most two instances of
// a benchmark per mix, and every mix contains both streaming and
// cache-sensitive programs. Get and RandomMix are the entry points;
// Workload.ScaledSpecs resolves a mix to time-scaled application
// models.
//
// # Workload specs
//
// A Spec is a versioned (SpecVersion) declarative scenario: one or
// more cohorts, each with an application mix (a catalog workload, a
// random pool, or an explicit weighted benchmark list), a diurnal
// arrival-rate shape (constant, piecewise periods, or sinusoid),
// optional MMPP calm/burst modulation, and optional heavy-tailed
// (Pareto or lognormal) job-size factors. LoadSpec and ParseSpec read
// YAML or JSON strictly (unknown fields are errors) and validate;
// violations surface as *VersionError, *ParseError and
// *ValidationError (match with errors.As).
//
// Spec.Generate expands a spec into a merged, time-sorted arrival
// stream as a pure function of (spec, scale): every random stream is
// derived from the spec seed with per-cohort substreams, arrival times
// come from Lewis–Shedler thinning of the non-homogeneous rate, and
// the result is byte-identical across runs, machines and GOMAXPROCS.
// Spec.Scenario wraps the same arrivals as a *scenario.Open ready for
// sim.RunOpen or cluster.Run.
//
// # Arrival traces
//
// Trace, WriteTraceFile and ReadTraceFile implement a versioned text
// format ("lfoc-trace v1") for recording generated arrival streams and
// replaying them bit-exactly: the writer verifies every arrival is
// exactly representable before committing the file, so replayed
// arrivals are reflect.DeepEqual to the recorded ones. Record once,
// then compare placements or policies on the identical stream.
//
// docs/workload-spec.md holds the full field reference and cookbook.
package workloads

import (
	"fmt"
	"math/rand"

	"github.com/faircache/lfoc/internal/appmodel"
	"github.com/faircache/lfoc/internal/profiles"
	"github.com/faircache/lfoc/internal/sim/scenario"
)

// Kind distinguishes stable-class (S) from phased (P) workloads.
type Kind int

const (
	// KindS marks workloads whose apps hold one behaviour class.
	KindS Kind = iota
	// KindP marks workloads including phased applications.
	KindP
)

func (k Kind) String() string {
	if k == KindP {
		return "P"
	}
	return "S"
}

// Workload is one experimental mix.
type Workload struct {
	Name       string
	Kind       Kind
	Size       int
	Benchmarks []string // catalog names, len == Size
}

// Specs resolves the workload's benchmark names to application models.
func (w Workload) Specs() []*appmodel.Spec {
	out := make([]*appmodel.Spec, len(w.Benchmarks))
	for i, n := range w.Benchmarks {
		out[i] = profiles.MustGet(n)
	}
	return out
}

// ScaledSpecs returns copies of the workload's specs with every phase
// duration divided by scale, so experiments can shrink simulated time
// while preserving the ratio of phase lengths to run lengths. Endless
// phases stay endless. scale must be ≥ 1.
func (w Workload) ScaledSpecs(scale uint64) []*appmodel.Spec {
	out := make([]*appmodel.Spec, len(w.Benchmarks))
	for i, n := range w.Benchmarks {
		out[i] = scaledSpec(n, scale)
	}
	return out
}

// sizes follows the paper: equal thirds of 8-, 12- and 16-app mixes.
func sizeFor(index, total int) int {
	third := total / 3
	switch {
	case index < third:
		return 8
	case index < 2*third:
		return 12
	default:
		return 16
	}
}

// generate builds one mix deterministically.
func generate(kind Kind, index, size int) Workload {
	seed := int64(1000*int(kind+1) + index)
	rng := rand.New(rand.NewSource(seed))

	streaming := profiles.ByClass(appmodel.ClassStreaming)
	sensitive := profiles.ByClass(appmodel.ClassSensitive)
	light := profiles.ByClass(appmodel.ClassLight)
	phased := profiles.Phased()

	counts := map[string]int{}
	var picks []string
	add := func(name string) bool {
		if counts[name] >= 2 || len(picks) >= size {
			return false
		}
		counts[name]++
		picks = append(picks, name)
		return true
	}
	pickFrom := func(pool []string) {
		for tries := 0; tries < 100; tries++ {
			if add(pool[rng.Intn(len(pool))]) {
				return
			}
		}
	}

	if kind == KindP {
		// Phased programs are the point of the P mixes.
		pickFrom(phased)
		pickFrom(phased)
		pickFrom(phased)
	} else {
		// S mixes use only stable-class apps.
		isPhased := map[string]bool{}
		for _, p := range phased {
			isPhased[p] = true
		}
		filter := func(pool []string) []string {
			var out []string
			for _, n := range pool {
				if !isPhased[n] {
					out = append(out, n)
				}
			}
			return out
		}
		streaming = filter(streaming)
		sensitive = filter(sensitive)
		light = filter(light)
	}
	// Every mix gets streaming and sensitive representation.
	pickFrom(streaming)
	pickFrom(streaming)
	pickFrom(sensitive)
	pickFrom(sensitive)

	all := append(append(append([]string{}, streaming...), sensitive...), light...)
	if kind == KindP {
		all = append(all, phased...)
	}
	for len(picks) < size {
		pickFrom(all)
	}
	return Workload{
		Name:       fmt.Sprintf("%s%d", kind, index+1),
		Kind:       kind,
		Size:       size,
		Benchmarks: picks,
	}
}

// SWorkloads returns S1..S21.
func SWorkloads() []Workload {
	out := make([]Workload, 21)
	for i := range out {
		out[i] = generate(KindS, i, sizeFor(i, 21))
	}
	return out
}

// PWorkloads returns P1..P15.
func PWorkloads() []Workload {
	out := make([]Workload, 15)
	for i := range out {
		out[i] = generate(KindP, i, sizeFor(i, 15))
	}
	return out
}

// All returns the 36 workloads of Fig. 5 (S1..S21 then P1..P15).
func All() []Workload {
	return append(SWorkloads(), PWorkloads()...)
}

// Get looks a workload up by name (e.g. "S3", "P11").
func Get(name string) (Workload, error) {
	for _, w := range All() {
		if w.Name == name {
			return w, nil
		}
	}
	return Workload{}, fmt.Errorf("workloads: unknown workload %q", name)
}

// Dynamic returns the 24 mixes of the §5.2 dynamic-policy study:
// P1–P5, S1–S3, P6–P10, S8–S10, P11–P15, S15–S17 (the x-axis of Fig. 7).
func Dynamic() []Workload {
	names := []string{
		"P1", "P2", "P3", "P4", "P5", "S1", "S2", "S3",
		"P6", "P7", "P8", "P9", "P10", "S8", "S9", "S10",
		"P11", "P12", "P13", "P14", "P15", "S15", "S16", "S17",
	}
	out := make([]Workload, 0, len(names))
	for _, n := range names {
		w, err := Get(n)
		if err != nil {
			panic(err)
		}
		out = append(out, w)
	}
	return out
}

// OpenScenario turns the mix into an open-system workload: arrivals
// follow a seeded Poisson process of the given rate (arrivals per
// simulated second) over [0, window) seconds, each arrival drawing its
// application uniformly from the mix (duplicates in the mix weight the
// draw, as in the closed methodology). scale applies the usual
// time-scale division to the specs.
func (w Workload) OpenScenario(rate, window float64, seed int64, scale uint64) (*scenario.Open, error) {
	name := fmt.Sprintf("%s-poisson(%g/s)", w.Name, rate)
	return scenario.NewPoisson(name, w.ScaledSpecs(scale), rate, window, seed)
}

// UniformScenario is the deterministic counterpart of OpenScenario: one
// arrival every interval seconds, count arrivals total, cycling through
// the mix in order. Useful for load sweeps that must not confound rate
// with trace randomness.
func (w Workload) UniformScenario(interval float64, count int, scale uint64) (*scenario.Open, error) {
	if interval <= 0 {
		return nil, fmt.Errorf("workloads: arrival interval must be positive, got %v", interval)
	}
	if count <= 0 {
		return nil, fmt.Errorf("workloads: arrival count must be positive, got %d", count)
	}
	specs := w.ScaledSpecs(scale)
	arrivals := make([]scenario.Arrival, count)
	for i := range arrivals {
		arrivals[i] = scenario.Arrival{Time: float64(i) * interval, Spec: specs[i%len(specs)]}
	}
	name := fmt.Sprintf("%s-uniform(%gs)", w.Name, interval)
	return scenario.NewTrace(name, nil, arrivals)
}

// SplitArrivals partitions a trace across machines by an explicit
// per-arrival assignment (assignment[i] is arrival i's machine). Each
// sub-trace preserves the original arrival order, so replaying machine
// m's sub-trace through a single-machine open run reproduces exactly
// what machine m executed inside a cluster run — the machine-
// independence property the cluster tests pin.
func SplitArrivals(arrivals []scenario.Arrival, assignment []int, machines int) ([][]scenario.Arrival, error) {
	if machines < 1 {
		return nil, fmt.Errorf("workloads: need at least one machine, got %d", machines)
	}
	if len(assignment) != len(arrivals) {
		return nil, fmt.Errorf("workloads: %d assignments for %d arrivals", len(assignment), len(arrivals))
	}
	out := make([][]scenario.Arrival, machines)
	for i, arr := range arrivals {
		m := assignment[i]
		if m < 0 || m >= machines {
			return nil, fmt.Errorf("workloads: arrival %d assigned to machine %d of %d", i, m, machines)
		}
		out[m] = append(out[m], arr)
	}
	return out, nil
}

// RandomMix draws a size-app mix (max two instances per benchmark, at
// least one streaming and one sensitive app) from the whole catalog —
// used by the Fig. 2/3 optimal-solution studies.
func RandomMix(seed int64, size int) Workload {
	rng := rand.New(rand.NewSource(seed))
	streaming := profiles.ByClass(appmodel.ClassStreaming)
	sensitive := profiles.ByClass(appmodel.ClassSensitive)
	names := profiles.Names()
	counts := map[string]int{}
	var picks []string
	add := func(name string) bool {
		if counts[name] >= 2 || len(picks) >= size {
			return false
		}
		counts[name]++
		picks = append(picks, name)
		return true
	}
	add(streaming[rng.Intn(len(streaming))])
	add(sensitive[rng.Intn(len(sensitive))])
	for len(picks) < size {
		add(names[rng.Intn(len(names))])
	}
	return Workload{
		Name:       fmt.Sprintf("R%d-%d", seed, size),
		Kind:       KindS,
		Size:       size,
		Benchmarks: picks,
	}
}
