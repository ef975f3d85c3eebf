package policy

import (
	"slices"

	"github.com/faircache/lfoc/internal/kmeans"
	"github.com/faircache/lfoc/internal/plan"
)

// Dunn reimplements Selfa et al.'s fairness-oriented clustering policy
// [24]: applications are grouped with k-means on a single metric — the
// fraction of core stall cycles caused by L2 misses (STALLS_L2_MISS) —
// and each cluster receives a number of ways proportional to its centroid
// stall fraction ("the higher the value of this event, the higher the
// number of cache ways allotted"). Partitions are laid out overlapping
// from the low ways, as in the original proposal (§2.3.2 points out
// Dunn's partitions may overlap).
//
// The paper's §5.1 analysis shows why this under-performs: streaming
// aggressors such as GemsFDTD exhibit stall fractions as high as truly
// sensitive programs, so Dunn maps them to the same (or overlapping)
// large partitions. This implementation deliberately preserves that
// behaviour.
type Dunn struct {
	// KMin/KMax bound the k-means sweep (silhouette picks within); the
	// defaults 2..4 match the small cluster counts the original reports.
	KMin, KMax int
}

// Name implements Static.
func (Dunn) Name() string { return "Dunn" }

// Decide implements Static.
func (d Dunn) Decide(w *Workload) (plan.Plan, error) {
	if err := w.Validate(); err != nil {
		return plan.Plan{}, err
	}
	stalls := make([]float64, w.NumApps())
	for i, t := range w.Tables {
		stalls[i] = t.StallFrac[w.Plat.Ways]
	}
	return new(dunnPlanner).build(stalls, w.Plat.Ways, d.KMin, d.KMax)
}

// dunnPlanner builds Dunn's plans, shared by the static and dynamic
// variants. It keeps the k-means session and the clusters' app lists
// across calls, so the dynamic variant re-clusters at every activation
// without allocating. The zero value is ready to use.
type dunnPlanner struct {
	km       kmeans.Clusterer
	clusters []plan.Cluster
}

// build returns the overlapping proportional plan for per-app stall
// fractions, with apps given by their positions in stalls. The plan
// aliases the planner's buffers until its next call.
//
//lfoc:hotpath
func (dp *dunnPlanner) build(stalls []float64, totalWays, kMin, kMax int) (plan.Plan, error) {
	if kMin <= 0 {
		kMin = 2
	}
	if kMax <= 0 {
		kMax = 4
	}
	res, err := dp.km.ChooseK(stalls, kMin, kMax)
	if err != nil {
		return plan.Plan{}, err
	}
	clusters := slices.Grow(dp.clusters[:0], res.K)[:res.K]
	dp.clusters = clusters
	var sum float64
	for c := 0; c < res.K; c++ {
		clusters[c].Apps = clusters[c].Apps[:0]
		sum += res.Centroids[c]
	}
	for i, c := range res.Assignments {
		clusters[c].Apps = append(clusters[c].Apps, i)
	}
	for c := 0; c < res.K; c++ {
		ways := totalWays
		if sum > 0 {
			ways = int(float64(totalWays)*res.Centroids[c]/sum + 0.5)
		}
		if ways < 1 {
			ways = 1
		}
		if ways > totalWays {
			ways = totalWays
		}
		clusters[c].Ways = ways
	}
	return plan.Plan{Clusters: clusters, Overlapping: true}, nil
}
