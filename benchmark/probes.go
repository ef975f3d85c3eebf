package main

import (
	"math"
	"math/bits"
	"time"

	"github.com/faircache/lfoc/internal/appmodel"
	"github.com/faircache/lfoc/internal/cat"
	"github.com/faircache/lfoc/internal/cluster"
	"github.com/faircache/lfoc/internal/plan"
	"github.com/faircache/lfoc/internal/pmc"
	"github.com/faircache/lfoc/internal/sim"
)

// The probes time each layer from outside the program, by wrapping the
// interfaces it already accepts: the per-machine partitioning policy
// (sim.Dynamic), the placement policy (cluster.Policy) and the drain
// migration policy (cluster.MigrationPolicy). High-frequency calls are
// aggregated into per-wrapper histograms rather than recorded as spans.
// Every policy wrapper owns its accumulators and they are merged after
// the run: machines advance on concurrent workers, and shared atomics
// on this path would inflate the traced run far beyond the cost of the
// clock reads themselves.

// histBuckets covers 1 ns .. 2^40 ns (about 18 minutes) in
// quarter-octave buckets: a bucket's width is at most 19% of its value.
const histBuckets = 4 * 40

// hist is a fixed log-bucket latency histogram with a count and a sum.
type hist struct {
	n      int64
	sum    time.Duration
	bucket [histBuckets]int64
}

func bucketOf(d time.Duration) int {
	if d < 4 {
		return 0
	}
	l := bits.Len64(uint64(d)) - 1
	b := 4*l + int(uint64(d)>>(l-2))&3
	if b >= histBuckets {
		b = histBuckets - 1
	}
	return b
}

func (h *hist) add(d time.Duration) {
	h.n++
	h.sum += d
	h.bucket[bucketOf(d)]++
}

func (h *hist) merge(o *hist) {
	h.n += o.n
	h.sum += o.sum
	for i, k := range o.bucket {
		h.bucket[i] += k
	}
}

// quantileNS returns the nearest-rank q-quantile in nanoseconds, read
// as the midpoint of the bucket that holds it (0 for an empty
// histogram).
func (h *hist) quantileNS(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(h.n)))
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for b, k := range h.bucket {
		seen += k
		if seen >= rank {
			l, f := b/4, float64(b%4)
			return (math.Ldexp(1+f/4, l) + math.Ldexp(1+(f+1)/4, l)) / 2
		}
	}
	return 0
}

// policyStats is one machine's partitioning-policy accounting.
type policyStats struct {
	reconfigure, window, assign hist
	// changed counts Assignment results that differ from the machine's
	// previous one (the first result always counts).
	changed int64
	prev    map[int]cat.WayMask
}

// policyProbe wraps a sim.Dynamic. It forwards the optional refinements
// the kernel and the checkpoint layer look for, so a probed run takes
// exactly the code paths of an unprobed one.
type policyProbe struct {
	inner sim.Dynamic
	st    *policyStats
}

func (p *policyProbe) AddApp(id int) error       { return p.inner.AddApp(id) }
func (p *policyProbe) RemoveApp(id int)          { p.inner.RemoveApp(id) }
func (p *policyProbe) WindowInsns(id int) uint64 { return p.inner.WindowInsns(id) }

func (p *policyProbe) PassiveWindows() bool {
	pw, ok := p.inner.(sim.PassiveWindows)
	return ok && pw.PassiveWindows()
}

// PolicySnapshot and PolicyRestore forward to the wrapped policy: every
// policy the benchmark wraps implements sim.PolicySnapshotter.
func (p *policyProbe) PolicySnapshot() ([]byte, error) {
	return p.inner.(sim.PolicySnapshotter).PolicySnapshot()
}

func (p *policyProbe) PolicyRestore(b []byte) error {
	return p.inner.(sim.PolicySnapshotter).PolicyRestore(b)
}

func (p *policyProbe) OnWindow(id int, w pmc.Sample) bool {
	start := time.Now()
	refresh := p.inner.OnWindow(id, w)
	p.st.window.add(time.Since(start))
	return refresh
}

func (p *policyProbe) Reconfigure() plan.Plan {
	start := time.Now()
	pl := p.inner.Reconfigure()
	p.st.reconfigure.add(time.Since(start))
	return pl
}

func (p *policyProbe) Assignment() (map[int]cat.WayMask, error) {
	start := time.Now()
	m, err := p.inner.Assignment()
	p.st.assign.add(time.Since(start))
	if p.st.prev == nil || !sameMasks(p.st.prev, m) {
		p.st.changed++
		if p.st.prev == nil {
			p.st.prev = make(map[int]cat.WayMask, len(m))
		}
		clear(p.st.prev)
		for id, mask := range m {
			p.st.prev[id] = mask
		}
	}
	return m, err
}

func sameMasks(a, b map[int]cat.WayMask) bool {
	if len(a) != len(b) {
		return false
	}
	for id, mask := range a {
		if other, ok := b[id]; !ok || other != mask {
			return false
		}
	}
	return true
}

// placementProbe wraps a cluster.Policy; Place runs serially, so one
// histogram serves every leg of an op.
type placementProbe struct {
	inner cluster.Policy
	h     *hist
}

func (p *placementProbe) Name() string { return p.inner.Name() }

func (p *placementProbe) Place(spec *appmodel.Spec, t float64, machines []cluster.MachineState) int {
	start := time.Now()
	idx := p.inner.Place(spec, t, machines)
	p.h.add(time.Since(start))
	return idx
}

// PlacementSnapshot and PlacementRestore forward to the wrapped policy:
// every placement the benchmark wraps implements
// cluster.PlacementSnapshotter.
func (p *placementProbe) PlacementSnapshot() ([]byte, error) {
	return p.inner.(cluster.PlacementSnapshotter).PlacementSnapshot()
}

func (p *placementProbe) PlacementRestore(b []byte) error {
	return p.inner.(cluster.PlacementSnapshotter).PlacementRestore(b)
}

// migrationProbe wraps a cluster.MigrationPolicy (called serially by
// the lifecycle engine).
type migrationProbe struct {
	inner cluster.MigrationPolicy
	h     *hist
}

func (p *migrationProbe) Name() string { return p.inner.Name() }

func (p *migrationProbe) Migrate(r sim.Resident, candidates []cluster.MachineState) int {
	start := time.Now()
	idx := p.inner.Migrate(r, candidates)
	p.h.add(time.Since(start))
	return idx
}

// span is one low-frequency boundary of the traced run, in
// microseconds since the tracer started. Parent is -1 for a root span.
type span struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent"`
	Name    string  `json:"name"`
	StartUS float64 `json:"start_us"`
	EndUS   float64 `json:"end_us"`
}

// tracer keeps spans in memory until the benchmark writes them out. A
// nil tracer records nothing.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its id (-1 on a nil tracer).
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Name: name,
		StartUS: float64(time.Since(t.epoch).Nanoseconds()) / 1e3})
	return len(t.spans) - 1
}

// end closes span id and returns its duration in seconds.
func (t *tracer) end(id int) float64 {
	if t == nil || id < 0 {
		return 0
	}
	s := &t.spans[id]
	s.EndUS = float64(time.Since(t.epoch).Nanoseconds()) / 1e3
	return (s.EndUS - s.StartUS) / 1e6
}

// opTrace is the instrumentation of one traced op: the probes its
// policies are wrapped in and the op's span. A nil *opTrace is an
// untraced op — every method then hands the program its own objects.
type opTrace struct {
	tr       *tracer
	opSpan   int
	policies []*policyStats
	place    hist
	migrate  hist
	// child sums the seconds of the op's child spans by name.
	child map[string]float64
}

func newOpTrace(tr *tracer, name string, parent int) *opTrace {
	return &opTrace{tr: tr, opSpan: tr.begin(name, parent), child: map[string]float64{}}
}

func (o *opTrace) policy(pol sim.Dynamic) sim.Dynamic {
	if o == nil {
		return pol
	}
	st := &policyStats{}
	o.policies = append(o.policies, st)
	return &policyProbe{inner: pol, st: st}
}

func (o *opTrace) placement(pl cluster.Policy) cluster.Policy {
	if o == nil {
		return pl
	}
	return &placementProbe{inner: pl, h: &o.place}
}

func (o *opTrace) migration(m cluster.MigrationPolicy) cluster.MigrationPolicy {
	if o == nil {
		return m
	}
	return &migrationProbe{inner: m, h: &o.migrate}
}

// span times f as a child span of the op when traced.
func (o *opTrace) span(name string, f func() error) error {
	if o == nil {
		return f()
	}
	id := o.tr.begin(name, o.opSpan)
	err := f()
	o.child[name] += o.tr.end(id)
	return err
}

// policyTotals merges every machine's policy accounting.
func (o *opTrace) policyTotals() (reconfigure, window, assign hist, changed int64) {
	for _, st := range o.policies {
		reconfigure.merge(&st.reconfigure)
		window.merge(&st.window)
		assign.merge(&st.assign)
		changed += st.changed
	}
	return reconfigure, window, assign, changed
}
