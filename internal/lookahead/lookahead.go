// Package lookahead implements UCP's lookahead way-distribution algorithm
// (Qureshi & Patt, MICRO 2006), the greedy marginal-utility allocator
// both KPart and LFOC build on.
//
// Given per-candidate utility curves U[i][w] — the benefit candidate i
// derives from owning exactly w ways — the algorithm starts every
// candidate at one way and repeatedly awards a block of ways to the
// candidate with the highest marginal utility per way, looking ahead past
// plateaus (the "lookahead" in the name: a candidate whose curve is flat
// for two ways and then jumps still competes with its best utility/ways
// ratio over any block size).
//
// Utilities are int64 and all comparisons are exact (cross-multiplied),
// so the package is safe to call from the floating-point-free LFOC core:
// UCP uses misses-saved as utility; LFOC passes fixed-point
// slowdown-reduction curves (§4.1: "using as input the slowdown curve for
// each application"); KPart passes scaled miss-curve deltas.
package lookahead

import (
	"fmt"
	"slices"
)

// Allocate distributes totalWays among len(util) candidates, one curve
// per candidate, indexed by way count (index 0 is ignored; indices
// 1..totalWays must be present). Every candidate receives at least one
// way. Utility curves should be monotone nondecreasing; the allocation
// maximizes greedy marginal utility per way.
func Allocate(util [][]int64, totalWays int) ([]int, error) {
	return AllocateInto(nil, util, totalWays)
}

// AllocateInto is Allocate writing the allocation into dst's backing
// array, grown when it is too small. The result aliases dst.
func AllocateInto(dst []int, util [][]int64, totalWays int) ([]int, error) {
	n := len(util)
	if n == 0 {
		return nil, fmt.Errorf("lookahead: no candidates")
	}
	if totalWays < n {
		return nil, fmt.Errorf("lookahead: %d ways cannot give %d candidates one way each", totalWays, n)
	}
	for i, u := range util {
		if len(u) < totalWays+1 {
			return nil, fmt.Errorf("lookahead: candidate %d has a %d-entry curve, need %d", i, len(u), totalWays+1)
		}
	}

	alloc := slices.Grow(dst[:0], n)[:n]
	for i := range alloc {
		alloc[i] = 1
	}
	balance := totalWays - n

	for balance > 0 {
		winner, winBlock := -1, 0
		var winGain int64 // gain of winner over winBlock ways
		for i := 0; i < n; i++ {
			// Best marginal utility per way over any feasible block.
			base := util[i][alloc[i]]
			for d := 1; d <= balance; d++ {
				gain := util[i][alloc[i]+d] - base
				if gain < 0 {
					gain = 0
				}
				// Compare gain/d > winGain/winBlock exactly.
				if winner == -1 || gain*int64(winBlock) > winGain*int64(d) {
					winner, winBlock, winGain = i, d, gain
				}
			}
		}
		if winGain == 0 {
			// No candidate benefits from more ways: spread the remainder
			// round-robin so no way is left unassigned (unowned ways
			// would be wasted capacity under CAT).
			for i := 0; balance > 0; i = (i + 1) % n {
				alloc[i]++
				balance--
			}
			break
		}
		alloc[winner] += winBlock
		balance -= winBlock
	}
	return alloc, nil
}

// SlowdownUtility converts a slowdown curve (fixed-point or otherwise
// scaled integers, higher = slower, indexed by ways with index 0 unused)
// into the utility curve LFOC feeds to Allocate: the slowdown *reduction*
// relative to owning a single way. It is monotone nondecreasing when the
// slowdown curve is monotone nonincreasing.
func SlowdownUtility(slowdown []int64) []int64 {
	return SlowdownUtilityInto(nil, slowdown)
}

// SlowdownUtilityInto is SlowdownUtility writing the curve into dst's
// backing array, grown when it is too small. The result aliases dst;
// dst may be slowdown itself.
func SlowdownUtilityInto(dst, slowdown []int64) []int64 {
	out := slices.Grow(dst[:0], len(slowdown))[:len(slowdown)]
	if len(slowdown) < 2 {
		clear(out)
		return out
	}
	base := slowdown[1]
	out[0] = 0
	for w := 1; w < len(slowdown); w++ {
		d := base - slowdown[w]
		if d < 0 {
			d = 0
		}
		out[w] = d
	}
	return out
}

// MissesUtility converts a misses-per-kilo-instruction curve (scaled
// integers, indexed by ways) into UCP's utility: misses avoided relative
// to one way.
func MissesUtility(mpki []int64) []int64 {
	out := make([]int64, len(mpki))
	if len(mpki) < 2 {
		return out
	}
	base := mpki[1]
	for w := 1; w < len(mpki); w++ {
		d := base - mpki[w]
		if d < 0 {
			d = 0
		}
		out[w] = d
	}
	return out
}
