package cluster

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// checkHeap verifies the fleet queue's structural invariants: pos is
// the inverse of heap, and every parent orders no later than its
// children under (horizon, index).
func checkHeap(t *testing.T, q *fleetQueue) {
	t.Helper()
	for k, idx := range q.heap {
		if q.pos[idx] != k {
			t.Fatalf("pos[%d] = %d, machine sits at slot %d", idx, q.pos[idx], k)
		}
		if k > 0 && q.less(k, (k-1)/2) {
			t.Fatalf("slot %d (machine %d, horizon %g) orders before its parent (machine %d, horizon %g)",
				k, idx, q.horizon[idx], q.heap[(k-1)/2], q.horizon[q.heap[(k-1)/2]])
		}
	}
}

// dueSet is the reference answer collectDue must give: every machine
// with horizon ≤ t, in index order.
func dueSet(q *fleetQueue, t float64) []int {
	var want []int
	for i, h := range q.horizon {
		if h <= t {
			want = append(want, i)
		}
	}
	return want
}

// A synchronization instant rewrites the horizons of a whole batch of
// machines at once (the due set, recomputed on the workers). Applying
// that batch through updateAll must leave a valid heap, and collectDue
// must then report exactly the machines with horizon ≤ t. Horizons are
// drawn from a small grid so ties — the (horizon, index) tie-break —
// come up constantly.
func TestFleetQueueBatchUpdate(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	horizon := func() float64 {
		if rng.Intn(8) == 0 {
			return math.Inf(1)
		}
		return float64(rng.Intn(6))
	}
	for trial := 0; trial < 20000; trial++ {
		n := 1 + rng.Intn(12)
		q := newFleetQueue(n)
		next := make([]float64, n)
		for step := 0; step < 6; step++ {
			if rng.Intn(5) == 0 {
				q.grow(horizon())
				next = append(next, 0)
			}
			// Rewrite a random batch: the due set at a random instant,
			// or an arbitrary subset of keys.
			var batch []int
			if rng.Intn(2) == 0 {
				batch = q.collectDue(float64(rng.Intn(6)), nil)
			} else {
				for i := range q.horizon {
					if rng.Intn(2) == 0 {
						batch = append(batch, i)
					}
				}
			}
			for _, i := range batch {
				next[i] = horizon()
			}
			q.updateAll(batch, next)
			checkHeap(t, q)
			for _, i := range batch {
				if q.horizon[i] != next[i] {
					t.Fatalf("trial %d: machine %d horizon %g, batch set %g", trial, i, q.horizon[i], next[i])
				}
			}
			if rng.Intn(3) == 0 {
				q.touch(rng.Intn(len(q.horizon)), float64(rng.Intn(6)))
				checkHeap(t, q)
			}
			at := float64(rng.Intn(7)) - 0.5
			got := q.collectDue(at, nil)
			sort.Ints(got)
			want := dueSet(q, at)
			if len(got) != len(want) {
				t.Fatalf("trial %d: collectDue(%g) = %v, want %v (horizons %v)", trial, at, got, want, q.horizon)
			}
			for k := range got {
				if got[k] != want[k] {
					t.Fatalf("trial %d: collectDue(%g) = %v, want %v (horizons %v)", trial, at, got, want, q.horizon)
				}
			}
		}
	}
}
