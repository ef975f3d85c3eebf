package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"

	"github.com/faircache/lfoc/internal/cat"
	"github.com/faircache/lfoc/internal/cluster"
	"github.com/faircache/lfoc/internal/metrics"
	"github.com/faircache/lfoc/internal/sharing"
)

// setupRepeats is how many times a workload is set up per run; setup_s
// is the median.
const setupRepeats = 3

// options configures the measurement of one workload.
type options struct {
	seed    int64
	seconds float64
	dir     string
	// tr selects the traced pass (per-layer metrics); nil selects the
	// untraced pass (end-to-end metrics).
	tr *tracer
}

// measure sets a workload up, runs one pass and checks every op.
// Ops run as a closed loop: the next starts when the previous returns.
func measure(w workload, o options) (*workloadReport, error) {
	debug.FreeOSMemory()
	resetPeakRSS()
	m := &measurement{o: o, layers: samples{},
		wr: &workloadReport{Name: w.name, Metrics: map[string]metric{}}}
	if err := m.setUp(w); err != nil {
		return nil, err
	}
	if o.tr == nil {
		m.untracedPass()
	} else {
		m.tracedPass()
	}
	return m.wr, nil
}

// measurement is one workload being measured.
type measurement struct {
	o   options
	b   *bench
	ref *outcome // the first warm-up op, whose digest every op must match
	// setups holds the set-up durations; layers the per-layer readings.
	setups []float64
	layers samples
	wr     *workloadReport
}

// setUp sets the workload up setupRepeats times, each time with one
// warm-up op, and keeps the last set-up for the passes.
func (m *measurement) setUp(w workload) error {
	for k := 0; k < setupRepeats; k++ {
		id := m.o.tr.begin("setup", -1)
		start := time.Now()
		b, err := w.setup(env{seed: m.o.seed, dir: m.o.dir, tr: m.o.tr, parent: id})
		if err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		warm := m.o.tr.begin("warmup", id)
		out, err := b.run(nil)
		if err != nil {
			return fmt.Errorf("warm-up op: %w", err)
		}
		m.o.tr.end(warm)
		m.setups = append(m.setups, time.Since(start).Seconds())
		m.o.tr.end(id)
		m.b = b
		m.layers.add("workloads.generate_s", b.inputs.generateS)
		m.layers.add("workloads.trace_write_s", b.inputs.traceWriteS)
		m.layers.add("workloads.trace_read_s", b.inputs.traceReadS)
		m.layers.add("workloads.trace_kb", b.inputs.traceKB)
		m.layers.add("workloads.arrivals", float64(b.inputs.arrivals))
		if m.ref == nil {
			if out.digest, err = digestOf(out.result); err != nil {
				return err
			}
			m.ref = out
		} else if _, err := verify(b, out, m.ref.digest, nil); err != nil {
			return fmt.Errorf("warm-up op: %w", err)
		}
	}
	m.wr.Digest = m.ref.digest
	return nil
}

// untracedPass runs untraced ops for the pass time and sets the
// end-to-end metrics.
func (m *measurement) untracedPass() {
	var secs, allocs, mb []float64
	start := time.Now()
	for n := 0; n == 0 || time.Since(start).Seconds() < m.o.seconds; n++ {
		r, err := runOp(m.b, nil)
		if err == nil {
			secs = append(secs, r.seconds)
			allocs = append(allocs, float64(r.mallocs))
			mb = append(mb, float64(r.bytes)/1e6)
		}
		m.record(r, err, nil)
	}
	peak := peakRSSMB()
	if len(secs) == 0 {
		return
	}
	wr := m.wr
	p50 := quantile(secs, 0.5)
	wr.set("setup_s", median(m.setups), len(m.setups), relIQR(m.setups))
	wr.set("run_s_p50", p50, len(secs), relIQR(secs))
	wr.set("solo_s_per_s", m.ref.soloS/p50, len(secs), relIQR(secs))
	wr.set("allocs_per_op", median(allocs), len(allocs), relIQR(allocs))
	wr.set("alloc_mb_per_op", median(mb), len(mb), relIQR(mb))
	wr.set("peak_rss_mb", peak, 1, 0)
	wr.set("unfairness", m.ref.unfairness, 1, 0)
	wr.set("stp", m.ref.stp, 1, 0)
}

// tracedPass alternates untraced and traced ops, so the tracing
// overhead is measured under the same conditions, and sets the
// per-layer metrics.
func (m *measurement) tracedPass() {
	var plain, traced, stops, stopsWithout []float64
	var reconfigureAll, placeAll hist
	start := time.Now()
	for n := 0; n == 0 || time.Since(start).Seconds() < m.o.seconds; n++ {
		r, err := runOp(m.b, nil)
		if err == nil {
			plain = append(plain, r.seconds)
		}
		m.record(r, err, nil)

		ot := newOpTrace(m.o.tr, "op", -1)
		r, err = runOp(m.b, ot)
		mergeS := m.record(r, err, m.o.tr)
		if err != nil {
			continue
		}
		traced = append(traced, r.seconds)
		reconfigure := m.addLayers(r, ot, mergeS)
		reconfigureAll.merge(&reconfigure)
		placeAll.merge(&ot.place)
		if m.b.stopWithoutCheckpoint != nil {
			m.wr.Attempted++
			s, err := m.b.stopWithoutCheckpoint(m.o.tr)
			if err != nil {
				m.wr.fail(fmt.Errorf("stop leg without checkpoint: %w", err))
				continue
			}
			stops = append(stops, ot.child["ckpt.stop"])
			stopsWithout = append(stopsWithout, s)
		}
	}
	wr := m.wr
	for name, vs := range m.layers {
		wr.set(name, median(vs), len(vs), relIQR(vs))
	}
	n := len(traced)
	wr.set("policy.reconfigure_us_p50", reconfigureAll.quantileNS(0.5)/1e3, n, 0)
	wr.set("policy.reconfigure_us_p99", reconfigureAll.quantileNS(0.99)/1e3, n, 0)
	wr.set("cluster.place_us_p50", placeAll.quantileNS(0.5)/1e3, n, 0)
	wr.set("cluster.place_us_p99", placeAll.quantileNS(0.99)/1e3, n, 0)
	var write float64
	if len(stops) > 0 {
		write = median(stops) - median(stopsWithout)
	}
	wr.set("cluster.ckpt_write_s", write, len(stops), 0)
	if len(plain) > 0 && n > 0 {
		wr.set("trace.overhead_frac", median(traced)/median(plain)-1, n, 0)
	}
	ns, allocs := evaluatorCost(m.b.mixes)
	wr.set("sharing.evaluate_ns", ns, len(m.b.mixes), 0)
	wr.set("sharing.evaluate_allocs", allocs, len(m.b.mixes), 0)
}

// addLayers adds one traced op's per-layer readings and returns its
// merged Reconfigure histogram.
func (m *measurement) addLayers(r opRun, ot *opTrace, mergeS float64) hist {
	ls := m.layers
	reconfigure, window, assign, changed := ot.policyTotals()
	probed := reconfigure.sum + window.sum + assign.sum + ot.place.sum + ot.migrate.sum
	ls.add("engine.self_s", r.seconds-probed.Seconds()-ot.child["ckpt.read"])
	ls.add("policy.activations", float64(reconfigure.n))
	ls.add("policy.reconfigure_s", reconfigure.sum.Seconds())
	ls.add("policy.windows", float64(window.n))
	ls.add("policy.window_s", window.sum.Seconds())
	ls.add("policy.assignments", float64(assign.n))
	ls.add("policy.assign_s", assign.sum.Seconds())
	ls.add("policy.assign_changed_frac", ratio(float64(changed), float64(assign.n)))
	ls.add("cluster.placements", float64(ot.place.n))
	ls.add("cluster.place_s", ot.place.sum.Seconds())
	ls.add("cluster.migrate_calls", float64(ot.migrate.n))
	ls.add("cluster.migrate_s", ot.migrate.sum.Seconds())
	var life cluster.LifecycleSummary
	if c := r.out.cluster; c != nil && c.Lifecycle != nil {
		life = *c.Lifecycle
	}
	ls.add("cluster.lifecycle_events", float64(life.Events))
	ls.add("cluster.disruptions", float64(life.Disruptions))
	ls.add("cluster.requeues", float64(life.Requeues))
	ls.add("cluster.dead_lettered", float64(life.DeadLettered))
	ls.add("cluster.ckpt_read_s", ot.child["ckpt.read"])
	ls.add("cluster.ckpt_resume_s", ot.child["ckpt.resume"])
	ls.add("cluster.ckpt_mb", float64(r.out.ckptBytes)/1e6)
	ls.add("metrics.merge_s", mergeS)
	ls.add("runtime.gc_cycles", float64(r.gcs))
	ls.add("runtime.gc_pause_ms", float64(r.pauseNS)/1e6)
	ls.add("sim.solo_s", r.out.soloS)
	ls.add("sim.departed", float64(r.out.departed))
	return reconfigure
}

// opRun is one op's duration and the heap activity it caused.
type opRun struct {
	out            *outcome
	seconds        float64
	mallocs, bytes uint64
	gcs            uint32
	pauseNS        uint64
}

func runOp(b *bench, ot *opTrace) (opRun, error) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	out, err := b.run(ot)
	r := opRun{out: out, seconds: time.Since(start).Seconds()}
	if ot != nil {
		ot.tr.end(ot.opSpan)
	}
	runtime.ReadMemStats(&m1)
	r.mallocs = m1.Mallocs - m0.Mallocs
	r.bytes = m1.TotalAlloc - m0.TotalAlloc
	r.gcs = m1.NumGC - m0.NumGC
	r.pauseNS = m1.PauseTotalNs - m0.PauseTotalNs
	return r, err
}

// record counts one op as attempted and checks it; a failed check
// counts the op as failed. It returns the seconds the re-merge took.
func (m *measurement) record(r opRun, err error, tr *tracer) float64 {
	m.wr.Attempted++
	if err != nil {
		m.wr.fail(err)
		return 0
	}
	mergeS, err := verify(m.b, r.out, m.ref.digest, tr)
	if err != nil {
		m.wr.fail(err)
	}
	return mergeS
}

// verify runs the correctness checks on one op's outcome: its digest
// equals the reference (the first untraced op), applications are
// conserved, the per-machine series re-merge to the fleet series, and
// the workload's own check holds. It returns the re-merge's seconds.
func verify(b *bench, o *outcome, ref string, tr *tracer) (float64, error) {
	var err error
	if o.digest, err = digestOf(o.result); err != nil {
		return 0, err
	}
	if o.digest != ref {
		return 0, fmt.Errorf("result digest %.12s differs from the reference %.12s", o.digest, ref)
	}
	var mergeS float64
	if c := o.cluster; c != nil {
		dead := 0
		if c.Lifecycle != nil {
			dead = c.Lifecycle.DeadLettered
		}
		if got := c.Departed + c.Remaining + dead; got != o.apps {
			return 0, fmt.Errorf("departed %d + remaining %d + dead-lettered %d != %d applications supplied",
				c.Departed, c.Remaining, dead, o.apps)
		}
		series := make([]*metrics.WindowedSeries, len(c.PerMachine))
		for i := range c.PerMachine {
			series[i] = &c.PerMachine[i].Open.Series
		}
		id := tr.begin("metrics.merge", -1)
		start := time.Now()
		merged, err := metrics.MergeSeries(series)
		mergeS = time.Since(start).Seconds()
		tr.end(id)
		if err != nil {
			return 0, err
		}
		if !reflect.DeepEqual(merged, c.Series) {
			return 0, fmt.Errorf("re-merging the per-machine series differs from the fleet series")
		}
	}
	if b.check != nil {
		if err := b.check(o); err != nil {
			return 0, err
		}
	}
	return mergeS, nil
}

// digestOf is the sha256 of v's JSON encoding. A cluster result is
// encoded machine by machine: the encoder buffers a whole value, and a
// 1024-machine result would hold far more memory than the run itself.
func digestOf(v any) (string, error) {
	h := sha256.New()
	enc := json.NewEncoder(h)
	parts := []any{v}
	if res, ok := v.(*cluster.Result); ok {
		fleet := *res
		fleet.PerMachine = nil
		parts = []any{&fleet}
		for i := range res.PerMachine {
			parts = append(parts, &res.PerMachine[i])
		}
	}
	for _, p := range parts {
		if err := enc.Encode(p); err != nil {
			return "", fmt.Errorf("digest: %w", err)
		}
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// evaluatorCost times sharing.Evaluator.EvaluateInto over the mixes at
// full mask: nanoseconds and heap allocations per call, after one
// warm-up call per mix fills the evaluators' caches.
func evaluatorCost(mixes []evalMix) (nsPerCall, allocsPerCall float64) {
	const reps = 100
	type job struct {
		ev   *sharing.Evaluator
		apps []sharing.App
	}
	jobs := make([]job, len(mixes))
	var dst []sharing.Result
	for i, m := range mixes {
		apps := make([]sharing.App, len(m.phases))
		for a, ph := range m.phases {
			apps[a] = sharing.App{ID: a, Phase: ph, Mask: cat.FullMask(m.plat.Ways)}
		}
		jobs[i] = job{sharing.NewEvaluator(sharing.NewModel(m.plat)), apps}
		dst = jobs[i].ev.EvaluateInto(dst, apps)
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	for r := 0; r < reps; r++ {
		for _, j := range jobs {
			dst = j.ev.EvaluateInto(dst, j.apps)
		}
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&m1)
	calls := float64(reps * len(jobs))
	return float64(elapsed.Nanoseconds()) / calls, float64(m1.Mallocs-m0.Mallocs) / calls
}

// resetPeakRSS resets the kernel's peak-RSS mark (VmHWM) for this
// process, so each workload's peak is its own. Without /proc the mark
// stays the peak since process start.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB reads VmHWM in megabytes (0 when /proc is unavailable).
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0
			}
			return kb * 1024 / 1e6
		}
	}
	return 0
}

// samples collects per-op readings by metric name.
type samples map[string][]float64

func (s samples) add(name string, v float64) { s[name] = append(s[name], v) }

// quantile is the q-quantile of xs by linear interpolation between
// order statistics (0 for no samples).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// relIQR is the interquartile range of xs relative to its median.
func relIQR(xs []float64) float64 {
	return ratio(quantile(xs, 0.75)-quantile(xs, 0.25), median(xs))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
