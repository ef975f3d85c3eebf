// Package kmeans provides 1-D k-means clustering with deterministic
// initialization and silhouette-based selection of k.
//
// It is the clustering engine of the Dunn baseline [24], which groups
// applications by their STALLS_L2_MISS stall fraction. Dunn is a
// user-level policy, so floating point is fine here (unlike in the LFOC
// core).
package kmeans

import (
	"fmt"
	"math"
	"slices"
	"sort"
)

// Result is one clustering outcome.
type Result struct {
	K           int
	Assignments []int     // cluster index per input value, clusters sorted by centroid ascending
	Centroids   []float64 // ascending
}

// Clusterer is a reusable clustering session: it owns the scratch that
// Cluster, Silhouette and ChooseK work in, so a caller that re-clusters
// at every partitioner activation allocates nothing once the buffers
// have grown to its value count. The zero value is ready to use.
//
// A Result a Clusterer returns aliases its buffers and is valid until
// the Clusterer's next call. A Clusterer is not safe for concurrent
// use. Its results equal the package-level functions': the arithmetic
// is the same, in the same order.
type Clusterer struct {
	sorted, centroids, sums []float64
	assign, counts, remap   []int
	kept                    []keptCluster
	bSums                   []float64
	bCounts                 []int
	// out holds two result buffers: ChooseK keeps its best result in
	// one while the next k clusters into out[cur].
	out [2]struct {
		assign    []int
		centroids []float64
	}
	cur int
}

type keptCluster struct {
	centroid float64
	oldIdx   int
}

// Cluster runs 1-D k-means with quantile initialization until
// convergence. Values need not be sorted. k must be in [1, len(values)].
func Cluster(values []float64, k int) (Result, error) {
	return new(Clusterer).Cluster(values, k)
}

// Cluster is the package-level Cluster on the session's buffers.
//
//lfoc:hotpath
func (km *Clusterer) Cluster(values []float64, k int) (Result, error) {
	n := len(values)
	if n == 0 || k < 1 || k > n {
		return Result{}, clusterError(n, k)
	}

	// Deterministic init: centroids at evenly spaced quantiles of the
	// sorted values.
	km.sorted = append(km.sorted[:0], values...)
	sort.Float64s(km.sorted)
	sorted := km.sorted
	centroids := slices.Grow(km.centroids[:0], k)[:k]
	km.centroids = centroids
	for i := 0; i < k; i++ {
		pos := float64(i*2+1) / float64(2*k) * float64(n-1)
		lo := int(pos)
		hi := lo + 1
		if hi >= n {
			hi = n - 1
		}
		frac := pos - float64(lo)
		centroids[i] = sorted[lo]*(1-frac) + sorted[hi]*frac
	}

	assign := slices.Grow(km.assign[:0], n)[:n]
	clear(assign)
	km.assign = assign
	sums := slices.Grow(km.sums[:0], k)[:k]
	km.sums = sums
	counts := slices.Grow(km.counts[:0], k)[:k]
	km.counts = counts
	for iter := 0; iter < 100; iter++ {
		changed := false
		for i, v := range values {
			best, bestD := 0, math.Abs(v-centroids[0])
			for c := 1; c < k; c++ {
				if d := math.Abs(v - centroids[c]); d < bestD {
					best, bestD = c, d
				}
			}
			if assign[i] != best {
				assign[i] = best
				changed = true
			}
		}
		// Recompute centroids; empty clusters keep their position.
		for c := 0; c < k; c++ {
			sums[c], counts[c] = 0, 0
		}
		for i, v := range values {
			sums[assign[i]] += v
			counts[assign[i]]++
		}
		for c := 0; c < k; c++ {
			if counts[c] > 0 {
				centroids[c] = sums[c] / float64(counts[c])
			}
		}
		if !changed && iter > 0 {
			break
		}
	}

	// Canonicalize: sort clusters by centroid, drop empties, remap.
	for c := 0; c < k; c++ {
		counts[c] = 0
	}
	for _, a := range assign {
		counts[a]++
	}
	km.kept = km.kept[:0]
	for c := 0; c < k; c++ {
		if counts[c] > 0 {
			km.kept = append(km.kept, keptCluster{centroids[c], c})
		}
	}
	// slices.SortFunc runs the same pdqsort as sort.Slice, so clusters
	// with equal centroids end in the same order, without sort.Slice's
	// reflection-built swapper.
	slices.SortFunc(km.kept, func(a, b keptCluster) int {
		if a.centroid < b.centroid {
			return -1
		}
		if b.centroid < a.centroid {
			return 1
		}
		return 0
	})
	remap := slices.Grow(km.remap[:0], k)[:k]
	km.remap = remap
	out := &km.out[km.cur]
	out.centroids = slices.Grow(out.centroids[:0], len(km.kept))[:len(km.kept)]
	for newIdx, c := range km.kept {
		remap[c.oldIdx] = newIdx
		out.centroids[newIdx] = c.centroid
	}
	out.assign = slices.Grow(out.assign[:0], n)[:n]
	for i, a := range assign {
		out.assign[i] = remap[a]
	}
	return Result{K: len(km.kept), Assignments: out.assign, Centroids: out.centroids}, nil
}

func clusterError(n, k int) error {
	if n == 0 {
		return fmt.Errorf("kmeans: no values")
	}
	return fmt.Errorf("kmeans: k=%d out of [1,%d]", k, n)
}

// Silhouette computes the mean silhouette coefficient of a clustering
// (−1..1, higher is better). Singleton clusters contribute 0. Returns 0
// when fewer than two clusters exist.
func Silhouette(values []float64, assign []int, k int) float64 {
	return new(Clusterer).Silhouette(values, assign, k)
}

// Silhouette is the package-level Silhouette on the session's buffers.
//
//lfoc:hotpath
func (km *Clusterer) Silhouette(values []float64, assign []int, k int) float64 {
	n := len(values)
	if k < 2 || n < 2 {
		return 0
	}
	total := 0.0
	// Per-cluster scratch shared across points (zeroed per point).
	bSums := slices.Grow(km.bSums[:0], k)[:k]
	km.bSums = bSums
	bCounts := slices.Grow(km.bCounts[:0], k)[:k]
	km.bCounts = bCounts
	for i := 0; i < n; i++ {
		// a = mean distance within own cluster; b = min mean distance to
		// another cluster.
		var aSum float64
		aCount := 0
		for c := 0; c < k; c++ {
			bSums[c], bCounts[c] = 0, 0
		}
		for j := 0; j < n; j++ {
			if j == i {
				continue
			}
			d := math.Abs(values[i] - values[j])
			if assign[j] == assign[i] {
				aSum += d
				aCount++
			} else {
				bSums[assign[j]] += d
				bCounts[assign[j]]++
			}
		}
		if aCount == 0 {
			continue // singleton contributes 0
		}
		a := aSum / float64(aCount)
		b := math.Inf(1)
		for c := 0; c < k; c++ {
			if bCounts[c] > 0 {
				if m := bSums[c] / float64(bCounts[c]); m < b {
					b = m
				}
			}
		}
		if math.IsInf(b, 1) {
			continue
		}
		den := math.Max(a, b)
		if den > 0 {
			total += (b - a) / den
		}
	}
	return total / float64(n)
}

// ChooseK clusters values for every k in [kMin, kMax] (clamped to the
// value count) and returns the result with the highest silhouette; ties
// favor smaller k. With fewer than 2 values it returns the k=1 result.
func ChooseK(values []float64, kMin, kMax int) (Result, error) {
	return new(Clusterer).ChooseK(values, kMin, kMax)
}

// ChooseK is the package-level ChooseK on the session's buffers.
//
//lfoc:hotpath
func (km *Clusterer) ChooseK(values []float64, kMin, kMax int) (Result, error) {
	n := len(values)
	if n == 0 {
		return Result{}, clusterError(n, kMin)
	}
	if kMin < 1 {
		kMin = 1
	}
	if kMax > n {
		kMax = n
	}
	if kMax < kMin {
		kMax = kMin
	}
	if n == 1 || kMax == 1 {
		return km.Cluster(values, 1)
	}
	var best Result
	bestScore := math.Inf(-1)
	for k := kMin; k <= kMax; k++ {
		r, err := km.Cluster(values, k)
		if err != nil {
			return Result{}, err
		}
		s := km.Silhouette(values, r.Assignments, r.K)
		if s > bestScore+1e-12 {
			best, bestScore = r, s
			// best aliases out[cur]; the next k clusters into the
			// other buffer.
			km.cur ^= 1
		}
	}
	if best.K == 0 {
		return km.Cluster(values, kMin)
	}
	return best, nil
}
