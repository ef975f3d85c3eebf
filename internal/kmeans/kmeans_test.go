package kmeans

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestClusterErrors(t *testing.T) {
	if _, err := Cluster(nil, 1); err == nil {
		t.Error("empty values accepted")
	}
	if _, err := Cluster([]float64{1, 2}, 0); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := Cluster([]float64{1, 2}, 3); err == nil {
		t.Error("k>n accepted")
	}
}

func TestClusterK1(t *testing.T) {
	r, err := Cluster([]float64{1, 5, 9}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if r.K != 1 || r.Centroids[0] != 5 {
		t.Errorf("result = %+v", r)
	}
	for _, a := range r.Assignments {
		if a != 0 {
			t.Error("all values should be in cluster 0")
		}
	}
}

func TestWellSeparatedGroups(t *testing.T) {
	// Two obvious groups: ~0.1 and ~0.9.
	values := []float64{0.1, 0.12, 0.08, 0.9, 0.88, 0.93}
	r, err := Cluster(values, 2)
	if err != nil {
		t.Fatal(err)
	}
	if r.K != 2 {
		t.Fatalf("K = %d", r.K)
	}
	// First three in the low cluster (index 0 after canonicalization).
	for i := 0; i < 3; i++ {
		if r.Assignments[i] != 0 {
			t.Errorf("value %d assigned to %d", i, r.Assignments[i])
		}
	}
	for i := 3; i < 6; i++ {
		if r.Assignments[i] != 1 {
			t.Errorf("value %d assigned to %d", i, r.Assignments[i])
		}
	}
	if r.Centroids[0] > r.Centroids[1] {
		t.Error("centroids not sorted")
	}
}

func TestIdenticalValues(t *testing.T) {
	r, err := Cluster([]float64{0.5, 0.5, 0.5, 0.5}, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Degenerate data collapses to one effective cluster.
	if r.K < 1 {
		t.Errorf("K = %d", r.K)
	}
	for _, a := range r.Assignments {
		if a < 0 || a >= r.K {
			t.Error("assignment out of range")
		}
	}
}

func TestSilhouetteSeparatedBeatsMixed(t *testing.T) {
	values := []float64{0.1, 0.11, 0.12, 0.9, 0.91, 0.92}
	good, _ := Cluster(values, 2)
	sGood := Silhouette(values, good.Assignments, good.K)
	// A deliberately bad assignment mixing the groups.
	bad := []int{0, 1, 0, 1, 0, 1}
	sBad := Silhouette(values, bad, 2)
	if sGood <= sBad {
		t.Errorf("silhouette: good=%v <= bad=%v", sGood, sBad)
	}
	if sGood < 0.8 {
		t.Errorf("well-separated silhouette = %v, want high", sGood)
	}
}

func TestSilhouetteDegenerate(t *testing.T) {
	if Silhouette([]float64{1}, []int{0}, 1) != 0 {
		t.Error("k=1 silhouette should be 0")
	}
	if Silhouette([]float64{1, 2}, []int{0, 0}, 1) != 0 {
		t.Error("single-cluster silhouette should be 0")
	}
}

func TestChooseKFindsTwoGroups(t *testing.T) {
	values := []float64{0.05, 0.06, 0.07, 0.85, 0.87, 0.9}
	r, err := ChooseK(values, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	if r.K != 2 {
		t.Errorf("ChooseK selected K=%d, want 2", r.K)
	}
}

func TestChooseKThreeGroups(t *testing.T) {
	values := []float64{0.0, 0.01, 0.5, 0.51, 1.0, 1.01}
	r, err := ChooseK(values, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	if r.K != 3 {
		t.Errorf("ChooseK selected K=%d, want 3", r.K)
	}
}

func TestChooseKDegenerate(t *testing.T) {
	if _, err := ChooseK(nil, 2, 4); err == nil {
		t.Error("empty accepted")
	}
	r, err := ChooseK([]float64{0.4}, 2, 4)
	if err != nil || r.K != 1 {
		t.Errorf("singleton: %+v, %v", r, err)
	}
	// kMin clamping.
	r, err = ChooseK([]float64{0.4, 0.6}, -3, 17)
	if err != nil || r.K < 1 {
		t.Errorf("clamped: %+v, %v", r, err)
	}
}

// Property: every assignment is a valid cluster index and every cluster
// is non-empty after canonicalization.
func TestQuickAssignmentsValid(t *testing.T) {
	f := func(seed int64, k8 uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(20) + 1
		k := int(k8)%n + 1
		values := make([]float64, n)
		for i := range values {
			values[i] = rng.Float64()
		}
		r, err := Cluster(values, k)
		if err != nil {
			return false
		}
		seen := make([]bool, r.K)
		for _, a := range r.Assignments {
			if a < 0 || a >= r.K {
				return false
			}
			seen[a] = true
		}
		for _, s := range seen {
			if !s {
				return false
			}
		}
		// Centroids ascending.
		for i := 1; i < r.K; i++ {
			if r.Centroids[i] < r.Centroids[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: clustering is deterministic.
func TestQuickDeterminism(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(15) + 2
		values := make([]float64, n)
		for i := range values {
			values[i] = rng.Float64()
		}
		a, err1 := Cluster(values, 3%n+1)
		b, err2 := Cluster(values, 3%n+1)
		if err1 != nil || err2 != nil {
			return false
		}
		if a.K != b.K {
			return false
		}
		for i := range a.Assignments {
			if a.Assignments[i] != b.Assignments[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: one Clusterer reused across random value sets returns what
// a fresh one returns, so no state leaks from one call into the next.
// Values are drawn from a few levels, so ties and equal centroids occur.
func TestClustererReuseMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var km Clusterer
	for trial := 0; trial < 2000; trial++ {
		n := rng.Intn(12) + 1
		levels := rng.Intn(6) + 1
		values := make([]float64, n)
		for i := range values {
			values[i] = float64(rng.Intn(levels)) / float64(levels) * rng.Float64()
		}
		kMin, kMax := rng.Intn(6)-1, rng.Intn(8)
		got, err1 := km.ChooseK(values, kMin, kMax)
		want, err2 := new(Clusterer).ChooseK(values, kMin, kMax)
		if (err1 == nil) != (err2 == nil) || !reflect.DeepEqual(got, want) {
			t.Fatalf("ChooseK(%v, %d, %d): reused %+v (%v), fresh %+v (%v)", values, kMin, kMax, got, err1, want, err2)
		}
		if err := consistent(values, got); err1 == nil && err != "" {
			t.Fatalf("ChooseK(%v, %d, %d) = %+v: %s", values, kMin, kMax, got, err)
		}
		if s, w := km.Silhouette(values, got.Assignments, got.K), Silhouette(values, want.Assignments, want.K); s != w {
			t.Fatalf("Silhouette(%v): reused %v, fresh %v", values, s, w)
		}
		k := rng.Intn(n+2) - 1
		got, err1 = km.Cluster(values, k)
		want, err2 = new(Clusterer).Cluster(values, k)
		if (err1 == nil) != (err2 == nil) || !reflect.DeepEqual(got, want) {
			t.Fatalf("Cluster(%v, %d): reused %+v (%v), fresh %+v (%v)", values, k, got, err1, want, err2)
		}
	}
}

// consistent checks a result against its own values: K clusters, each
// non-empty, with its centroid the mean of its values (Cluster's last
// step recomputes the centroids from the final assignment).
func consistent(values []float64, r Result) string {
	if len(r.Centroids) != r.K || len(r.Assignments) != len(values) {
		return "sizes disagree with K"
	}
	sums := make([]float64, r.K)
	counts := make([]int, r.K)
	for i, a := range r.Assignments {
		if a < 0 || a >= r.K {
			return "assignment out of range"
		}
		sums[a] += values[i]
		counts[a]++
	}
	for c := range sums {
		if counts[c] == 0 || sums[c]/float64(counts[c]) != r.Centroids[c] {
			return "a centroid is not its cluster's mean"
		}
	}
	return ""
}

// TestChooseKSteadyStateAllocFree pins the reused session: once its
// buffers have grown, ChooseK allocates nothing.
func TestChooseKSteadyStateAllocFree(t *testing.T) {
	values := []float64{0.05, 0.4, 0.06, 0.9, 0.41, 0.88, 0.07, 0.5}
	var km Clusterer
	if _, err := km.ChooseK(values, 2, 4); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := km.ChooseK(values, 2, 4); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("warm ChooseK allocates %v times, want 0", allocs)
	}
}
