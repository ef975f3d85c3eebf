// Package metrics implements the evaluation metrics of §2.1: per-program
// Slowdown (Eq. 1), workload Unfairness (Eq. 3) and System Throughput /
// STP, a.k.a. Weighted Speedup (Eq. 4), plus the geometric-mean helpers
// the methodology of §5 relies on.
package metrics

import (
	"fmt"
	"math"
)

// Slowdown computes CT_shared / CT_alone (Eq. 1). Both times must be
// positive.
func Slowdown(ctShared, ctAlone float64) (float64, error) {
	if ctShared <= 0 || ctAlone <= 0 {
		return 0, fmt.Errorf("metrics: completion times must be positive (shared=%v alone=%v)", ctShared, ctAlone)
	}
	return ctShared / ctAlone, nil
}

// Unfairness computes MAX(slowdowns)/MIN(slowdowns) (Eq. 3, lower is
// better).
func Unfairness(slowdowns []float64) (float64, error) {
	if len(slowdowns) == 0 {
		return 0, fmt.Errorf("metrics: unfairness of empty workload")
	}
	lo, hi := slowdowns[0], slowdowns[0]
	for _, s := range slowdowns {
		if s <= 0 {
			return 0, fmt.Errorf("metrics: non-positive slowdown %v", s)
		}
		if s < lo {
			lo = s
		}
		if s > hi {
			hi = s
		}
	}
	return hi / lo, nil
}

// STP computes Σ 1/slowdown_i (Eq. 4, higher is better; equals the
// workload size under perfect isolation).
func STP(slowdowns []float64) (float64, error) {
	if len(slowdowns) == 0 {
		return 0, fmt.Errorf("metrics: STP of empty workload")
	}
	sum := 0.0
	for _, s := range slowdowns {
		if s <= 0 {
			return 0, fmt.Errorf("metrics: non-positive slowdown %v", s)
		}
		sum += 1 / s
	}
	return sum, nil
}

// GeoMean returns the geometric mean of positive values — §5 reports
// per-program completion times as geometric means across repetitions.
func GeoMean(vs []float64) (float64, error) {
	if len(vs) == 0 {
		return 0, fmt.Errorf("metrics: geometric mean of no values")
	}
	logSum := 0.0
	for _, v := range vs {
		if v <= 0 {
			return 0, fmt.Errorf("metrics: non-positive value %v in geometric mean", v)
		}
		logSum += math.Log(v)
	}
	return math.Exp(logSum / float64(len(vs))), nil
}

// Summary bundles the two headline metrics for one workload under one
// policy.
type Summary struct {
	Unfairness float64
	STP        float64
}

// Summarize computes both metrics at once.
func Summarize(slowdowns []float64) (Summary, error) {
	u, err := Unfairness(slowdowns)
	if err != nil {
		return Summary{}, err
	}
	s, err := STP(slowdowns)
	if err != nil {
		return Summary{}, err
	}
	return Summary{Unfairness: u, STP: s}, nil
}
