package cluster

import (
	"math"
	"testing"
)

// The counter-based MTBF victim draw stays in [0, n), spreads evenly
// over the up machines, and depends on the failure seed.
func TestVictimDrawUniform(t *testing.T) {
	const draws = 50000
	for _, n := range []int{1, 2, 7, 16} {
		counts := make([]int, n)
		for k := uint64(0); k < draws; k++ {
			i := victimDraw(7, k, n)
			if i < 0 || i >= n {
				t.Fatalf("draw %d over %d machines picked %d", k, n, i)
			}
			counts[i]++
		}
		want := float64(draws) / float64(n)
		for i, c := range counts {
			if math.Abs(float64(c)-want) > 0.1*want {
				t.Errorf("%d machines: machine %d drawn %d times in %d, want about %.0f", n, i, c, draws, want)
			}
		}
	}
	same := 0
	for k := uint64(0); k < 1000; k++ {
		if victimDraw(7, k, 16) == victimDraw(8, k, 16) {
			same++
		}
	}
	if same > 100 { // about 62 by chance
		t.Errorf("seeds 7 and 8 draw the same victim %d times in 1000", same)
	}
}
