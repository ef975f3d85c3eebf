package cluster

import "math"

// fleetQueue is the fleet event queue: an indexed binary min-heap of
// machine indices ordered by (horizon, index), where horizon[i] is the
// conservative next-event bound sim.OpenMachine.NextEventHorizon
// reported the last time machine i was touched. The cluster engine
// consults it at every synchronization instant t (arrival, lifecycle
// event) and advances only the machines whose horizon has passed —
// every other machine's placement-visible state provably cannot have
// changed, so the eager every-machine-every-arrival fan-out collapses
// to the handful of machines with something to do.
//
// Invariants:
//   - heap[0..n) is a binary min-heap under (horizon, index); pos is
//     its inverse permutation (pos[heap[k]] == k). Every live machine
//     is in the heap exactly once — done, halted and idle machines stay
//     in with horizon +Inf rather than being removed, so membership
//     never has to be tracked separately.
//   - horizon[i] is a lower bound on machine i's next state-visible
//     event; it may be stale low (machine due but nothing happens — a
//     cheap no-op advance) but never stale high. Out-of-band kernel
//     mutations (Inject, InjectResident, Halt, join) must therefore be
//     followed by touch/update before the next collectDue.
//
// All heap operations are serial; only the horizon recomputation after
// an advance happens on the fleet pool, into a side slice the serial
// caller then applies one key at a time (updateAll), so the structure
// is deterministic at any worker count.
type fleetQueue struct {
	horizon []float64
	heap    []int
	pos     []int
	stack   []int // collectDue descent scratch
}

// newFleetQueue builds the queue with every machine due at time zero:
// the first synchronization instant advances the whole fleet once
// (exactly what the eager loop does on its first arrival) and the real
// horizons are learned from that advance.
func newFleetQueue(n int) *fleetQueue {
	q := &fleetQueue{
		horizon: make([]float64, n),
		heap:    make([]int, n),
		pos:     make([]int, n),
	}
	for i := range q.heap {
		q.heap[i] = i
		q.pos[i] = i
	}
	return q
}

// less orders heap slots a, b by (horizon, machine index); the index
// tie-break makes the layout — and with it collectDue's output order —
// a pure function of the operation history.
func (q *fleetQueue) less(a, b int) bool {
	ha, hb := q.horizon[q.heap[a]], q.horizon[q.heap[b]]
	if ha != hb {
		return ha < hb
	}
	return q.heap[a] < q.heap[b]
}

func (q *fleetQueue) swap(a, b int) {
	q.heap[a], q.heap[b] = q.heap[b], q.heap[a]
	q.pos[q.heap[a]] = a
	q.pos[q.heap[b]] = b
}

func (q *fleetQueue) up(k int) {
	for k > 0 {
		parent := (k - 1) / 2
		if !q.less(k, parent) {
			return
		}
		q.swap(k, parent)
		k = parent
	}
}

func (q *fleetQueue) down(k int) {
	n := len(q.heap)
	for {
		l := 2*k + 1
		if l >= n {
			return
		}
		c := l
		if r := l + 1; r < n && q.less(r, l) {
			c = r
		}
		if !q.less(c, k) {
			return
		}
		q.swap(k, c)
		k = c
	}
}

// update sets machine idx's horizon and restores the heap invariant.
// The heap must be valid apart from idx: a sift repairs one changed key.
func (q *fleetQueue) update(idx int, h float64) {
	q.horizon[idx] = h
	q.up(q.pos[idx])
	q.down(q.pos[idx])
}

// updateAll applies a batch of recomputed horizons, horizon[i] =
// next[i] for every i in keys, one update at a time so each sift starts
// from a valid heap. Rewriting several keys in place and sifting them
// afterwards is not equivalent: a sift assumes every other entry
// already satisfies the invariant, and a broken heap makes collectDue
// prune subtrees that still hold due machines.
func (q *fleetQueue) updateAll(keys []int, next []float64) {
	for _, i := range keys {
		q.update(i, next[i])
	}
}

// touch lowers machine idx's horizon to at most t — the caller mutated
// the machine's kernel out of band (injected an arrival or a migrated
// resident) and the machine must count as due no later than t.
func (q *fleetQueue) touch(idx int, t float64) {
	if t < q.horizon[idx] {
		q.horizon[idx] = t
		q.up(q.pos[idx])
	}
}

// grow appends a joining machine with horizon h.
func (q *fleetQueue) grow(h float64) {
	idx := len(q.horizon)
	q.horizon = append(q.horizon, h)
	q.heap = append(q.heap, idx)
	q.pos = append(q.pos, len(q.heap)-1)
	q.up(q.pos[idx])
}

// collectDue appends every machine with horizon ≤ t to dst and returns
// it. It descends the heap without popping — a subtree whose root is
// beyond t cannot contain a due machine, so the walk visits O(due)
// nodes — and leaves the heap untouched: the caller advances the due
// machines and hands their recomputed horizons to updateAll.
func (q *fleetQueue) collectDue(t float64, dst []int) []int {
	if len(q.heap) == 0 || math.IsInf(t, -1) {
		return dst
	}
	q.stack = append(q.stack[:0], 0)
	for len(q.stack) > 0 {
		k := q.stack[len(q.stack)-1]
		q.stack = q.stack[:len(q.stack)-1]
		idx := q.heap[k]
		if q.horizon[idx] > t {
			continue
		}
		dst = append(dst, idx)
		if l := 2*k + 1; l < len(q.heap) {
			q.stack = append(q.stack, l)
		}
		if r := 2*k + 2; r < len(q.heap) {
			q.stack = append(q.stack, r)
		}
	}
	return dst
}
