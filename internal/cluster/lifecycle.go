// Machine lifecycle layer: a seeded, heap-ordered event timeline
// (joins, drains, failures, scheduled and load-triggered autoscaling)
// interleaved bit-exactly with the arrival stream.
//
// Ordering rules. The timeline is a binary heap keyed by (time, seq):
// seq is the insertion order, so events scheduled earlier fire first at
// equal times, and dynamically scheduled events (retries) fire after
// every event that existed when they were created. At an instant where
// both an event and a trace arrival are due, the event is processed
// first — a machine drained at t never sees the arrival at t. All event
// handling is serial (it is placement-layer work, the cluster's one
// synchronization point), so results are bit-identical for every worker
// count; randomness (MTBF failure times, victim choice) comes from
// dedicated seeded streams fixed before the run starts.
//
// Degradation contract: placement never errors for lack of capacity.
// Arrivals (and requeued residents) that find zero up machines are
// parked FIFO and flushed through normal placement at the next join;
// if no machine ever returns they are reported as unplaced/remaining,
// so a run with the whole fleet down still completes.
package cluster

import (
	"container/heap"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"math/rand"

	"github.com/faircache/lfoc/internal/metrics"
	"github.com/faircache/lfoc/internal/sim"
	"github.com/faircache/lfoc/internal/sim/scenario"
)

// EventKind distinguishes the scheduled machine lifecycle events.
type EventKind int

const (
	// MachineJoin adds a machine to the fleet at the event time.
	MachineJoin EventKind = iota
	// MachineDrain takes a machine out of service gracefully: residents
	// are migrated (policy permitting) or requeued FIFO, nothing is lost.
	MachineDrain
	// MachineFail kills a machine: in-flight applications lose their
	// progress and are requeued with bounded retry plus exponential
	// backoff, dead-lettered when the retry budget is exhausted.
	MachineFail

	// eventRetry and eventScale are the engine's own timeline events: a
	// requeued application's retry and an autoscale check. They are not
	// valid in Lifecycle.Events.
	eventRetry
	eventScale
)

func (k EventKind) String() string {
	switch k {
	case MachineJoin:
		return "join"
	case MachineDrain:
		return "drain"
	case MachineFail:
		return "fail"
	default:
		return fmt.Sprintf("event(%d)", int(k))
	}
}

// MarshalText encodes the kind by name, as ParseEvents reads it.
func (k EventKind) MarshalText() ([]byte, error) { return []byte(k.String()), nil }

// Event is one scheduled machine lifecycle event. A joining machine
// runs machine 0's simulator configuration.
type Event struct {
	// Time is the event instant in simulated seconds.
	Time float64   `json:"t"`
	Kind EventKind `json:"kind"`
	// Machine is the drain/fail target (a MachineState.Index; joined
	// machines extend the index space). A drain or fail whose target is
	// already down is skipped — with MTBF failures in play a scheduled
	// event can race a random one, and losing the race is not an error.
	Machine int `json:"machine,omitempty"`
}

// Autoscale configures load-triggered fleet scaling, evaluated at a
// fixed cadence against the up machines' load/capacity ratio.
type Autoscale struct {
	// Interval is the check cadence in simulated seconds (> 0).
	Interval float64
	// Up adds a machine when load/capacity ≥ Up (and the fleet is below
	// Max); Down drains the least-loaded machine when load/capacity ≤
	// Down (and the fleet is above Min). Load counts resident plus
	// queued plus parked applications; capacity counts up cores.
	Up   float64
	Down float64
	// Min and Max bound the number of up machines.
	Min int
	Max int
}

// Lifecycle configures the cluster's machine lifecycle layer. A nil (or
// event-free) Lifecycle runs the engine over an empty timeline: the
// result and checkpoint carry no lifecycle sections, byte-identical to
// a run without the layer.
type Lifecycle struct {
	// Events is the scheduled event timeline (any order; the engine
	// orders by time, ties by list position).
	Events []Event
	// MTBF, when positive, injects random machine failures as a seeded
	// Poisson process with this mean time between failures (simulated
	// seconds), over the span of the arrival trace. Victims are drawn
	// uniformly from the up machines at each failure instant. Identical
	// (MTBF, FailureSeed, trace, schedule) inputs produce the identical
	// failure sequence.
	MTBF        float64
	FailureSeed int64
	// MaxRetries bounds failure-driven requeues per application (0
	// defaults to 3); an application failed more than MaxRetries times
	// is dead-lettered. RetryBackoff is the base delay of the
	// exponential backoff (0 defaults to 0.25 simulated seconds): the
	// n-th retry is scheduled RetryBackoff·2^(n-1) after the failure.
	// Run rejects a negative MaxRetries and a negative, NaN or infinite
	// RetryBackoff before the run starts.
	MaxRetries   int
	RetryBackoff float64
	// MigrationCost is the modeled cost of one live migration in
	// simulated seconds, fed to the default CostAwareMigration policy
	// and reported as migration latency. Negative disables migration
	// entirely: drains requeue every resident.
	MigrationCost float64
	// Migration overrides the default cost-aware migration policy
	// (fresh instance per run, like Placement).
	Migration MigrationPolicy
	// Autoscale enables load-triggered scaling.
	Autoscale *Autoscale
	// JoinPolicy builds the partitioning policy for a machine joining
	// mid-run (index and config of the new machine). Required when a
	// join can happen — scheduled, or via Autoscale.
	JoinPolicy func(machine int, mc sim.Config) (sim.Dynamic, error)
}

// active reports whether the lifecycle layer can change anything. It is
// the one bit that decides whether results and checkpoints carry the
// lifecycle sections.
func (l *Lifecycle) active() bool {
	return l != nil && (len(l.Events) > 0 || l.MTBF > 0 || l.Autoscale != nil)
}

// LifecycleSummary is the lifecycle layer's share of a cluster result.
type LifecycleSummary struct {
	// Events counts lifecycle events applied (scheduled, MTBF and
	// autoscale alike); Joins/Drains/Failures break them down.
	Events   int `json:"events"`
	Joins    int `json:"joins"`
	Drains   int `json:"drains"`
	Failures int `json:"failures"`
	// AutoscaleActions counts the joins/drains triggered by load.
	AutoscaleActions int `json:"autoscale_actions,omitempty"`
	// Disruptions counts applications displaced by drains and failures:
	// Migrations moved live (progress preserved), Requeues re-entered
	// placement from scratch, DeadLettered exhausted their retry budget.
	Disruptions  int `json:"disruptions"`
	Migrations   int `json:"migrations"`
	Requeues     int `json:"requeues"`
	DeadLettered int `json:"dead_lettered"`
	// Retries counts retry arrivals that actually re-entered placement
	// (a requeued app can be requeued again by a later failure).
	Retries int `json:"retries"`
	// Unplaced counts arrivals still parked when the run ended — they
	// found zero up machines and none ever joined. Also in Remaining.
	Unplaced int `json:"unplaced"`
	// FinalMachines is the number of up machines at the end; FleetSize
	// the total ever in the fleet (initial plus joined).
	FinalMachines int `json:"final_machines"`
	FleetSize     int `json:"fleet_size"`
	// Availability is the run-wide time-averaged fraction of existing
	// machines that were up.
	Availability float64 `json:"availability"`
	// MeanMigrationLatency / MeanRequeueLatency average the modeled
	// migration cost and the scheduled retry delays (drain requeues are
	// immediate and count as zero).
	MeanMigrationLatency float64 `json:"mean_migration_latency"`
	MeanRequeueLatency   float64 `json:"mean_requeue_latency"`
	// Series is the per-window lifecycle trajectory, aligned with the
	// cluster's windowed metric series.
	Series metrics.LifecycleSeries `json:"series"`
}

// timelineEvent is one heap entry of the event timeline.
type timelineEvent struct {
	time    float64
	seq     int
	kind    EventKind
	machine int          // drain/fail target; -1 = draw an MTBF victim
	res     sim.Resident // retry payload
	delay   float64      // the retry's scheduled backoff
}

// eventQueue is a (time, seq)-ordered binary heap — seq makes the order
// total, so equal-time events fire in scheduling order, deterministically.
type eventQueue []*timelineEvent

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if q[i].time != q[j].time {
		return q[i].time < q[j].time
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *eventQueue) Push(x any)   { *q = append(*q, x.(*timelineEvent)) }
func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return ev
}

// parkedArrival is an arrival that found zero up machines: it waits for
// a join. TraceIdx indexes Result.Assignments for trace arrivals (-1
// for lifecycle requeues, which have no assignment slot). Checkpoints
// store it as is.
type parkedArrival struct {
	scenario.Arrival
	TraceIdx int `json:"trace_idx"`
}

// engine drives every cluster run: the arrival loop, interleaved with
// the lifecycle event timeline (empty when the layer is inactive).
// Everything it does is serial placement-layer work.
type engine struct {
	cfg     *Config
	lc      *Lifecycle
	active  bool // lc.active(): emit the lifecycle result and checkpoint sections
	scn     *scenario.Open
	joinCfg sim.Config // machine 0's configuration, run by every joining machine
	pool    *fleetPool

	up       []bool
	nUp      int
	joinedAt []float64
	downAt   []float64
	failedAt []bool // down by failure (vs drain), for MachineResult.State

	placed      []int
	assignments []int // nil unless Config.RecordAssignments; see assignmentLog
	parked      []parkedArrival

	// lastSync is the latest fleet synchronization instant — where Run
	// aligns every lazy clock before the final drain.
	lastSync float64

	evq eventQueue
	seq int
	// ai is the next trace-arrival index — together with the heap, the
	// engine's checkpoint coordinate. staticFired counts popped events
	// that schedule() created (everything but retries); victimCount
	// counts MTBF victim draws. See lifecyclesnap.go.
	ai          int
	staticFired int
	victimCount uint64

	// Cooperative interruption: Config.Cancel and Config.StopAfter pause
	// the run at the next loop top, and Config.Checkpoint.Every spaces
	// periodic checkpoints from lastCkpt; interrupted reports how run()
	// ended.
	lastCkpt    float64
	interrupted bool

	migration  MigrationPolicy
	maxRetries int
	backoff    float64

	trk *lifeTracker
	sum LifecycleSummary

	resScratch  []sim.Resident
	candScratch []MachineState
}

func newEngine(cfg *Config, scn *scenario.Open, joinCfg sim.Config, pool *fleetPool, placed []int, nArrivals int) *engine {
	lc := cfg.Lifecycle
	if lc == nil {
		lc = &Lifecycle{}
	}
	n := len(pool.machines)
	e := &engine{
		cfg:        cfg,
		lc:         lc,
		active:     lc.active(),
		scn:        scn,
		joinCfg:    joinCfg,
		pool:       pool,
		up:         make([]bool, n),
		nUp:        n,
		joinedAt:   make([]float64, n),
		downAt:     make([]float64, n),
		failedAt:   make([]bool, n),
		placed:     placed,
		maxRetries: lc.MaxRetries,
		backoff:    lc.RetryBackoff,
	}
	for i := range e.up {
		e.up[i] = true
		e.downAt[i] = -1
	}
	if cfg.RecordAssignments {
		e.assignments = make([]int, nArrivals)
		for i := range e.assignments {
			e.assignments[i] = -1
		}
	}
	if e.maxRetries == 0 {
		e.maxRetries = 3
	}
	if e.backoff == 0 {
		e.backoff = 0.25
	}
	if !e.active {
		return e // no drains, no lifecycle accounting
	}
	switch {
	case lc.Migration != nil:
		e.migration = lc.Migration
	case lc.MigrationCost >= 0:
		e.migration = NewCostAwareMigration(lc.MigrationCost, joinCfg.Plat)
	}
	e.trk = newLifeTracker(joinCfg.EffectiveMetricsWindow().Seconds(), n, n)
	return e
}

// schedule seeds the timeline: the declared events, the MTBF failure
// process and the autoscale checks, all fixed before the run starts. It
// also rejects a retry policy that could not run: a negative retry
// budget, or a backoff that would schedule a retry before, or never
// after, the failure that caused it.
func (e *engine) schedule(arrivals []scenario.Arrival) error {
	if b := e.lc.RetryBackoff; !(b >= 0) || math.IsInf(b, 1) {
		return fmt.Errorf("cluster: retry backoff %v (want finite and nonnegative)", b)
	}
	if e.lc.MaxRetries < 0 {
		return fmt.Errorf("cluster: max retries %d (want nonnegative)", e.lc.MaxRetries)
	}
	for i, ev := range e.lc.Events {
		if !(ev.Time >= 0) || math.IsInf(ev.Time, 1) {
			return fmt.Errorf("cluster: lifecycle event %d at time %v (want finite and nonnegative)", i, ev.Time)
		}
		switch ev.Kind {
		case MachineJoin, MachineDrain, MachineFail:
		default:
			return fmt.Errorf("cluster: lifecycle event %d has unknown kind %v", i, ev.Kind)
		}
		if ev.Kind != MachineJoin && ev.Machine < 0 {
			return fmt.Errorf("cluster: lifecycle event %d (%v) targets machine %d", i, ev.Kind, ev.Machine)
		}
		e.push(&timelineEvent{time: ev.Time, kind: ev.Kind, machine: ev.Machine})
	}
	end := 0.0
	if n := len(arrivals); n > 0 {
		end = arrivals[n-1].Time
	}
	if e.lc.MTBF > 0 {
		rng := rand.New(rand.NewSource(e.lc.FailureSeed))
		for t := rng.ExpFloat64() * e.lc.MTBF; t < end; t += rng.ExpFloat64() * e.lc.MTBF {
			e.push(&timelineEvent{time: t, kind: MachineFail, machine: -1})
		}
	}
	if as := e.lc.Autoscale; as != nil {
		if !(as.Interval > 0) {
			return fmt.Errorf("cluster: autoscale interval must be positive, got %v", as.Interval)
		}
		if as.Max > 0 && as.Min > as.Max {
			return fmt.Errorf("cluster: autoscale Min %d exceeds Max %d", as.Min, as.Max)
		}
		for t := as.Interval; t < end; t += as.Interval {
			e.push(&timelineEvent{time: t, kind: eventScale})
		}
	}
	return nil
}

func (e *engine) push(ev *timelineEvent) {
	ev.seq = e.seq
	e.seq++
	heap.Push(&e.evq, ev)
}

// run interleaves the event timeline with the arrival stream: at each
// step the earlier of (next event, next arrival) is processed, events
// first at equal times. With an empty timeline it is the plain
// per-arrival loop: advance the due machines, place, inject.
//
// The loop top is the engine's checkpoint pause point: the next event
// is only peeked (not popped) before the fleet advances, so a
// cancellation caught mid-advance leaves the heap — and the whole
// engine coordinate — exactly as a checkpoint needs it. Event handling
// itself runs with the cancel flag masked: a drain or join mutates
// several machines out of band, and pausing halfway through would leave
// a coordinate no snapshot describes.
func (e *engine) run(arrivals []scenario.Arrival) error {
	for e.ai < len(arrivals) || e.evq.Len() > 0 {
		evNext := e.evq.Len() > 0 && (e.ai >= len(arrivals) || e.evq[0].time <= arrivals[e.ai].Time)
		var t float64
		if evNext {
			t = e.evq[0].time
		} else {
			t = arrivals[e.ai].Time
		}
		if e.cfg.Cancel.Canceled() || (e.cfg.StopAfter > 0 && t >= e.cfg.StopAfter) {
			e.interrupted = true
			return nil
		}
		if ck := e.cfg.Checkpoint; ck != nil && ck.Every > 0 && t >= e.lastCkpt+ck.Every {
			if err := e.checkpoint(); err != nil {
				return err
			}
			e.lastCkpt = t
		}
		if err := e.advance(t); err != nil {
			if errors.Is(err, sim.ErrCanceled) {
				e.interrupted = true
				return nil
			}
			return err
		}
		if e.active {
			e.trk.advance(t)
		}
		if evNext {
			ev := heap.Pop(&e.evq).(*timelineEvent)
			if ev.kind != eventRetry {
				e.staticFired++
			}
			e.cfg.Cancel.Mask()
			err := e.handle(ev)
			e.cfg.Cancel.Unmask()
			if err != nil {
				return err
			}
			continue
		}
		if err := e.place(arrivals[e.ai], e.ai); err != nil {
			return err
		}
		e.ai++
	}
	return nil
}

// checkpoint writes the run's current coordinate to Config.Checkpoint.
func (e *engine) checkpoint() error {
	p, err := captureCheckpoint(e)
	if err != nil {
		return err
	}
	return writeCheckpointPayload(e.cfg.Checkpoint.Path, p)
}

// advance synchronizes the fleet to instant t: the fleet event queue
// picks the due machines, and every up machine's placement-visible
// state then matches an eager advance bit for bit.
func (e *engine) advance(t float64) error {
	e.lastSync = t
	return e.pool.advanceDue(t)
}

// resume repositions a freshly scheduled engine at a checkpoint's
// coordinate.
func (e *engine) resume(p *checkpointPayload, arrivals []scenario.Arrival) error {
	e.ai = p.NextArrival
	copy(e.assignments, p.Assignments)
	if e.active {
		return e.restore(p.Lifecycle)
	}
	// A lifecycle-free checkpoint holds no engine snapshot: its last
	// synchronization instant, and the reference for the next periodic
	// checkpoint, is the last arrival it processed.
	if p.NextArrival > 0 {
		e.lastSync = arrivals[p.NextArrival-1].Time
		e.lastCkpt = e.lastSync
	}
	return nil
}

// assignmentLog is the placement record as Result and checkpoints
// report it. A lifecycle-free run places arrivals in trace order, so
// its log is the placed prefix; a lifecycle run can park arrivals and
// place them later, so its log spans the whole trace with -1 marking
// arrivals not (yet) placed.
func (e *engine) assignmentLog() []int {
	if e.active || e.assignments == nil {
		return e.assignments
	}
	return e.assignments[:e.ai]
}

func (e *engine) handle(ev *timelineEvent) error {
	switch ev.kind {
	case MachineJoin:
		return e.join(ev.time, false)
	case MachineDrain:
		return e.drainMachine(ev.time, ev.machine, false)
	case MachineFail:
		idx := ev.machine
		if idx < 0 { // MTBF failure: draw the victim now
			ups := e.upIndices()
			if len(ups) == 0 {
				return nil // nothing left to fail
			}
			idx = ups[victimDraw(e.lc.FailureSeed, e.victimCount, len(ups))]
			e.victimCount++
		}
		return e.failMachine(ev.time, idx)
	case eventRetry:
		e.sum.Retries++
		return e.place(scenario.Arrival{Time: ev.time, Spec: ev.res.Spec, Tag: ev.res.Attempts}, -1)
	case eventScale:
		return e.autoscaleCheck(ev.time)
	default:
		return fmt.Errorf("cluster: unknown timeline event kind %d", ev.kind)
	}
}

// place routes one arrival (trace, requeue or retry) through the
// placement policy over the up machines — or parks it when there are
// none. traceIdx records the decision in Assignments for trace arrivals.
func (e *engine) place(arr scenario.Arrival, traceIdx int) error {
	cands := e.candidates()
	if len(cands) == 0 {
		e.parked = append(e.parked, parkedArrival{Arrival: arr, TraceIdx: traceIdx})
		return nil
	}
	idx := e.cfg.Placement.Place(arr.Spec, arr.Time, cands)
	if err := checkPlaced(e.cfg.Placement.Name(), idx, len(e.pool.machines), e.up); err != nil {
		return err
	}
	if err := e.pool.machines[idx].Inject(arr); err != nil {
		return fmt.Errorf("cluster: machine %d: %w", idx, err)
	}
	e.pool.refreshState(idx)
	e.pool.q.touch(idx, arr.Time)
	e.placed[idx]++
	if traceIdx >= 0 && e.assignments != nil {
		e.assignments[traceIdx] = idx
	}
	return nil
}

// candidates returns the up machines' states in index order. When the
// whole fleet is up it is the states slice itself.
func (e *engine) candidates() []MachineState {
	if e.nUp == len(e.pool.states) {
		return e.pool.states
	}
	e.candScratch = e.candScratch[:0]
	for i := range e.pool.states {
		if e.up[i] {
			e.candScratch = append(e.candScratch, e.pool.states[i])
		}
	}
	return e.candScratch
}

// victimDraw is the index-th MTBF victim draw over n up machines: the
// index-th output of a splitmix64 stream seeded with seed, reduced to
// [0, n) by a multiply-shift. A counter-based draw is a pure function of
// its index, so a checkpoint resumes the stream from the draw count.
func victimDraw(seed int64, index uint64, n int) int {
	z := uint64(seed) + (index+1)*0x9e3779b97f4a7c15
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	hi, _ := bits.Mul64(z^z>>31, uint64(n))
	return int(hi)
}

func (e *engine) upIndices() []int {
	ups := make([]int, 0, e.nUp)
	for i, u := range e.up {
		if u {
			ups = append(ups, i)
		}
	}
	return ups
}

// join adds a machine running machine 0's configuration at time t:
// built fresh, advanced from zero to t (so its metric windows stay
// index-aligned with the fleet's), then offered the parked backlog FIFO.
func (e *engine) join(t float64, autoscaled bool) error {
	if e.lc.JoinPolicy == nil {
		return fmt.Errorf("cluster: lifecycle join at t=%g needs Lifecycle.JoinPolicy", t)
	}
	mc := e.joinCfg
	idx := len(e.pool.machines)
	pol, err := e.lc.JoinPolicy(idx, mc)
	if err != nil {
		return fmt.Errorf("cluster: machine %d policy: %w", idx, err)
	}
	m, err := sim.NewOpenMachine(mc, pol, e.scn.Name(), nil, e.scn.Horizon())
	if err != nil {
		return fmt.Errorf("cluster: machine %d: %w", idx, err)
	}
	if err := m.AdvanceTo(t); err != nil {
		return fmt.Errorf("cluster: machine %d: %w", idx, err)
	}
	e.pool.grow(m, MachineState{Index: idx, Cores: mc.Plat.Cores, Plat: mc.Plat})
	e.pool.refreshState(idx)
	e.up = append(e.up, true)
	e.nUp++
	e.joinedAt = append(e.joinedAt, t)
	e.downAt = append(e.downAt, -1)
	e.failedAt = append(e.failedAt, false)
	e.placed = append(e.placed, 0)
	e.sum.Events++
	e.sum.Joins++
	if autoscaled {
		e.sum.AutoscaleActions++
	}
	e.trk.joins++
	e.trk.setFleet(e.nUp, len(e.pool.machines))
	// The backlog waited for exactly this: flush it FIFO through normal
	// placement (arrival times stay nondecreasing per machine — nothing
	// was injected anywhere while zero machines were up).
	parked := e.parked
	e.parked = nil
	for _, pa := range parked {
		if err := e.place(pa.Arrival, pa.TraceIdx); err != nil {
			return err
		}
	}
	return nil
}

// drainMachine takes a machine out of service gracefully: residents are
// live-migrated when the migration policy finds the tradeoff worth it,
// requeued FIFO otherwise. Draining a machine that is already down is a
// no-op (a scheduled drain can lose the race against an MTBF failure).
func (e *engine) drainMachine(t float64, idx int, autoscaled bool) error {
	if idx >= len(e.pool.machines) {
		return fmt.Errorf("cluster: lifecycle drain at t=%g targets machine %d of %d", t, idx, len(e.pool.machines))
	}
	if !e.up[idx] {
		return nil
	}
	// The victim must be at t before extraction: residents carry run
	// progress and phase coordinates as of the drain instant.
	if err := e.pool.advanceOne(idx, t); err != nil {
		return err
	}
	residents := e.takeResidents(idx)
	e.takeDown(t, idx, false)
	e.sum.Drains++
	e.trk.drains++
	if autoscaled {
		e.sum.AutoscaleActions++
	}
	for _, r := range residents {
		dest := -1
		if e.migration != nil && !r.Queued {
			if cands := e.candidates(); len(cands) > 0 {
				dest = e.migration.Migrate(r, cands)
			}
		}
		if dest >= 0 {
			if err := checkPlaced(e.migration.Name(), dest, len(e.pool.machines), e.up); err != nil {
				return err
			}
			// InjectResident requires the destination at the migration
			// instant (the incoming app lands in the window open at t).
			if err := e.pool.advanceOne(dest, t); err != nil {
				return err
			}
			if err := e.pool.machines[dest].InjectResident(r); err != nil {
				return fmt.Errorf("cluster: machine %d: %w", dest, err)
			}
			e.pool.refreshState(dest)
			e.pool.q.touch(dest, t)
			e.placed[dest]++
			e.sum.Disruptions++
			e.sum.Migrations++
			e.trk.migrate(e.lc.MigrationCost)
			continue
		}
		e.sum.Disruptions++
		e.sum.Requeues++
		e.trk.requeue(0)
		if err := e.place(scenario.Arrival{Time: t, Spec: r.Spec, Tag: r.Attempts}, -1); err != nil {
			return err
		}
	}
	return nil
}

// failMachine kills a machine: every resident loses its progress and is
// requeued as a fresh arrival after an exponential backoff, or
// dead-lettered once its retry budget is spent. Failing a machine that
// is already down is a no-op.
func (e *engine) failMachine(t float64, idx int) error {
	if idx >= len(e.pool.machines) {
		return fmt.Errorf("cluster: lifecycle fail at t=%g targets machine %d of %d", t, idx, len(e.pool.machines))
	}
	if !e.up[idx] {
		return nil
	}
	// As for drains: extraction must see the machine's state at t.
	if err := e.pool.advanceOne(idx, t); err != nil {
		return err
	}
	residents := e.takeResidents(idx)
	e.takeDown(t, idx, true)
	e.sum.Failures++
	e.trk.fails++
	for _, r := range residents {
		attempts := r.Attempts + 1
		if attempts > e.maxRetries {
			e.sum.Disruptions++
			e.sum.DeadLettered++
			e.trk.deadLetter()
			continue
		}
		// Exponential backoff: base·2^(attempts-1), shift capped far
		// beyond any realistic retry budget.
		shift := attempts - 1
		if shift > 30 {
			shift = 30
		}
		delay := e.backoff * float64(int64(1)<<shift)
		e.sum.Disruptions++
		e.sum.Requeues++
		e.trk.requeue(delay)
		e.push(&timelineEvent{
			time:  t + delay,
			kind:  eventRetry,
			res:   sim.Resident{Spec: r.Spec, Attempts: attempts},
			delay: delay,
		})
	}
	return nil
}

// takeDown flips a machine out of the up set and halts its kernel —
// its simulated time freezes at t and its metric windows end there.
func (e *engine) takeDown(t float64, idx int, failed bool) {
	e.pool.machines[idx].Halt()
	// A halted machine's state is frozen: drop it out of every future
	// due set.
	e.pool.q.update(idx, math.Inf(1))
	e.up[idx] = false
	e.nUp--
	e.downAt[idx] = t
	e.failedAt[idx] = failed
	e.sum.Events++
	e.trk.setFleet(e.nUp, len(e.pool.machines))
}

// takeResidents extracts and returns a machine's residents, reusing the
// engine's scratch slice.
func (e *engine) takeResidents(idx int) []sim.Resident {
	e.resScratch = e.pool.machines[idx].ExtractResidents(e.resScratch[:0])
	return e.resScratch
}

// autoscaleCheck compares the up fleet's load to its capacity and joins
// or drains one machine per check, within the configured bounds.
func (e *engine) autoscaleCheck(t float64) error {
	as := e.lc.Autoscale
	load, capac := len(e.parked), 0
	for i := range e.pool.states {
		if e.up[i] {
			load += e.pool.states[i].Load()
			capac += e.pool.states[i].Cores
		}
	}
	max := as.Max
	if max <= 0 {
		max = len(e.pool.machines) + 1 // unbounded in practice: one step per check
	}
	switch {
	case capac == 0:
		if load > 0 && e.nUp < max {
			return e.join(t, true)
		}
	case float64(load) >= as.Up*float64(capac) && e.nUp < max:
		return e.join(t, true)
	case float64(load) <= as.Down*float64(capac) && e.nUp > as.Min:
		victim, best := -1, 0
		for i := range e.pool.states {
			if !e.up[i] {
				continue
			}
			if victim < 0 || e.pool.states[i].Load() < best {
				victim, best = i, e.pool.states[i].Load()
			}
		}
		if victim >= 0 {
			return e.drainMachine(t, victim, true)
		}
	}
	return nil
}

// finish closes the lifecycle accounting at the end of the run and
// returns the summary. end is the fleet's final simulated time.
func (e *engine) finish(end float64) *LifecycleSummary {
	e.sum.Unplaced = len(e.parked)
	e.sum.FinalMachines = e.nUp
	e.sum.FleetSize = len(e.pool.machines)
	e.trk.finish(end)
	e.sum.Series = e.trk.series
	e.sum.Availability = e.trk.availability()
	if e.sum.Migrations > 0 {
		e.sum.MeanMigrationLatency = e.trk.totMigLat / float64(e.sum.Migrations)
	}
	if e.sum.Requeues > 0 {
		e.sum.MeanRequeueLatency = e.trk.totReqLat / float64(e.sum.Requeues)
	}
	return &e.sum
}

// lifeTracker integrates fleet availability over time and buckets the
// lifecycle counters into windows aligned with the metric series.
type lifeTracker struct {
	width    float64
	series   metrics.LifecycleSeries
	winStart float64
	lastT    float64

	up    int
	fleet int

	upSec, fleetSec       float64 // current-window integrals
	totUpSec, totFleetSec float64 // run-wide integrals
	totMigLat, totReqLat  float64 // run-wide latency sums

	joins, drains, fails   int
	migs, reqs, dead, disr int
	migLat, reqLat         float64
}

func newLifeTracker(width float64, up, fleet int) *lifeTracker {
	return &lifeTracker{
		width:  width,
		up:     up,
		fleet:  fleet,
		series: metrics.LifecycleSeries{Width: width},
	}
}

// advance integrates occupancy up to t, closing windows at their
// boundaries. Call before handling anything at time t: the integral up
// to t uses the old up/fleet counts, the event's changes apply after.
func (lt *lifeTracker) advance(t float64) {
	for t >= lt.winStart+lt.width {
		end := lt.winStart + lt.width
		lt.integrate(end)
		lt.close(end)
	}
	lt.integrate(t)
}

func (lt *lifeTracker) integrate(t float64) {
	if t <= lt.lastT {
		return
	}
	dt := t - lt.lastT
	lt.upSec += float64(lt.up) * dt
	lt.fleetSec += float64(lt.fleet) * dt
	lt.lastT = t
}

func (lt *lifeTracker) close(end float64) {
	p := metrics.LifecyclePoint{
		Start:        lt.winStart,
		End:          end,
		UpMachines:   lt.up,
		FleetSize:    lt.fleet,
		Joins:        lt.joins,
		Drains:       lt.drains,
		Failures:     lt.fails,
		Disruptions:  lt.disr,
		Migrations:   lt.migs,
		Requeues:     lt.reqs,
		DeadLettered: lt.dead,
	}
	if lt.fleetSec > 0 {
		p.Availability = lt.upSec / lt.fleetSec
	} else {
		p.Availability = 1
	}
	if lt.migs > 0 {
		p.MeanMigrationLatency = lt.migLat / float64(lt.migs)
	}
	if lt.reqs > 0 {
		p.MeanRequeueLatency = lt.reqLat / float64(lt.reqs)
	}
	lt.series.Add(p)
	lt.totUpSec += lt.upSec
	lt.totFleetSec += lt.fleetSec
	lt.winStart = end
	lt.upSec, lt.fleetSec = 0, 0
	lt.joins, lt.drains, lt.fails = 0, 0, 0
	lt.migs, lt.reqs, lt.dead, lt.disr = 0, 0, 0, 0
	lt.migLat, lt.reqLat = 0, 0
}

func (lt *lifeTracker) setFleet(up, fleet int) { lt.up, lt.fleet = up, fleet }

func (lt *lifeTracker) migrate(cost float64) {
	lt.disr++
	lt.migs++
	lt.migLat += cost
	lt.totMigLat += cost
}

func (lt *lifeTracker) requeue(delay float64) {
	lt.disr++
	lt.reqs++
	lt.reqLat += delay
	lt.totReqLat += delay
}

func (lt *lifeTracker) deadLetter() {
	lt.disr++
	lt.dead++
}

// finish closes the trailing window at the end of the run. Events can
// outlast the fleet's simulated time (a drain scheduled past the last
// departure); the series extends to whichever came last.
func (lt *lifeTracker) finish(end float64) {
	if end < lt.lastT {
		end = lt.lastT
	}
	lt.advance(end)
	if end > lt.winStart || lt.dirty() {
		lt.close(end)
	}
}

func (lt *lifeTracker) dirty() bool {
	return lt.joins|lt.drains|lt.fails|lt.disr != 0
}

func (lt *lifeTracker) availability() float64 {
	if lt.totFleetSec <= 0 {
		return 1
	}
	return lt.totUpSec / lt.totFleetSec
}
