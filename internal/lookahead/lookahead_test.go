package lookahead

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// curve builds a utility curve from explicit values for ways 1..n.
func curve(vals ...int64) []int64 {
	out := make([]int64, len(vals)+1)
	copy(out[1:], vals)
	return out
}

func TestAllocateErrors(t *testing.T) {
	if _, err := Allocate(nil, 4); err == nil {
		t.Error("no candidates accepted")
	}
	if _, err := Allocate([][]int64{curve(0, 0), curve(0, 0)}, 1); err == nil {
		t.Error("fewer ways than candidates accepted")
	}
	if _, err := Allocate([][]int64{curve(0, 0)}, 5); err == nil {
		t.Error("short curve accepted")
	}
}

func TestAllocateSum(t *testing.T) {
	util := [][]int64{
		curve(0, 10, 15, 18, 20, 21, 22, 23, 23, 23, 23),
		curve(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10),
		curve(0, 50, 60, 62, 63, 63, 63, 63, 63, 63, 63),
	}
	alloc, err := Allocate(util, 11)
	if err != nil {
		t.Fatal(err)
	}
	sum := 0
	for i, a := range alloc {
		if a < 1 {
			t.Errorf("candidate %d got %d ways", i, a)
		}
		sum += a
	}
	if sum != 11 {
		t.Errorf("allocated %d ways, want 11", sum)
	}
}

func TestGreedyFavorsSteepCurve(t *testing.T) {
	// Candidate 0 gains a lot from extra ways; candidate 1 gains nothing.
	util := [][]int64{
		curve(0, 100, 200, 300, 400, 500, 600, 700, 800, 900, 1000),
		curve(0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
	}
	alloc, err := Allocate(util, 11)
	if err != nil {
		t.Fatal(err)
	}
	if alloc[0] != 10 || alloc[1] != 1 {
		t.Errorf("alloc = %v, want [10 1]", alloc)
	}
}

func TestLookaheadSkipsPlateau(t *testing.T) {
	// Candidate 0: flat for 2 ways then a big jump at 4 ways — classic
	// lookahead case. Candidate 1: small steady gains.
	util := [][]int64{
		curve(0, 0, 0, 900, 900, 900, 900, 900, 900, 900, 900),
		curve(0, 10, 20, 30, 40, 50, 60, 70, 80, 90, 100),
	}
	alloc, err := Allocate(util, 11)
	if err != nil {
		t.Fatal(err)
	}
	// Candidate 0 must receive at least the 4 ways needed to reach its
	// utility cliff (900/3 ways beats 10/way).
	if alloc[0] < 4 {
		t.Errorf("lookahead failed to cross plateau: alloc = %v", alloc)
	}
}

func TestAllFlatSpreadsRemainder(t *testing.T) {
	util := [][]int64{
		curve(0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
		curve(0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
	}
	alloc, err := Allocate(util, 11)
	if err != nil {
		t.Fatal(err)
	}
	if alloc[0]+alloc[1] != 11 {
		t.Errorf("flat-curve allocation dropped ways: %v", alloc)
	}
	if alloc[0] < 5 || alloc[1] < 5 {
		t.Errorf("flat-curve allocation unbalanced: %v", alloc)
	}
}

func TestSingleCandidateGetsEverything(t *testing.T) {
	util := [][]int64{curve(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10)}
	alloc, err := Allocate(util, 11)
	if err != nil {
		t.Fatal(err)
	}
	if alloc[0] != 11 {
		t.Errorf("alloc = %v", alloc)
	}
}

func TestSlowdownUtility(t *testing.T) {
	// Slowdown (milli): 2000 at 1 way, 1500, 1100, 1000...
	sd := curve(2000, 1500, 1100, 1000, 1000, 1000, 1000, 1000, 1000, 1000, 1000)
	u := SlowdownUtility(sd)
	if u[1] != 0 || u[2] != 500 || u[3] != 900 || u[4] != 1000 || u[11] != 1000 {
		t.Errorf("utility = %v", u)
	}
	// Non-monotone slowdown is clamped to zero utility, never negative.
	weird := curve(1000, 1200, 900)
	uw := SlowdownUtility(weird)
	if uw[2] != 0 || uw[3] != 100 {
		t.Errorf("clamped utility = %v", uw)
	}
	if got := SlowdownUtility([]int64{5}); len(got) != 1 || got[0] != 0 {
		t.Error("degenerate slowdown curve mishandled")
	}
}

// The Into variants write into a reused buffer whatever it held before,
// in place for SlowdownUtilityInto, and return what the allocating
// functions return.
func TestIntoVariantsIgnoreBufferContents(t *testing.T) {
	sd := curve(2000, 1500, 1100, 1000, 1000, 1000, 1000, 1000, 1000, 1000, 1000)
	want := SlowdownUtility(sd)
	dirty := []int64{-7, -7, -7, -7, -7, -7, -7, -7, -7, -7, -7, -7, -7}
	if got := SlowdownUtilityInto(dirty, sd); !slices.Equal(got, want) {
		t.Errorf("SlowdownUtilityInto(dirty) = %v, want %v", got, want)
	}
	inPlace := slices.Clone(sd)
	inPlace[0] = -7
	if got := SlowdownUtilityInto(inPlace, inPlace); !slices.Equal(got, want) {
		t.Errorf("SlowdownUtilityInto in place = %v, want %v", got, want)
	}

	util := [][]int64{want, curve(0, 900, 950, 990, 1000, 1000, 1000, 1000, 1000, 1000, 1000)}
	wantAlloc, err := Allocate(util, 11)
	if err != nil {
		t.Fatal(err)
	}
	got, err := AllocateInto([]int{9, 9, 9, 9}, util, 11)
	if err != nil || !slices.Equal(got, wantAlloc) {
		t.Errorf("AllocateInto(dirty) = %v (%v), want %v", got, err, wantAlloc)
	}
}

func TestMissesUtility(t *testing.T) {
	mpki := curve(50, 30, 10, 5, 5, 5, 5, 5, 5, 5, 5)
	u := MissesUtility(mpki)
	if u[1] != 0 || u[2] != 20 || u[3] != 40 || u[4] != 45 {
		t.Errorf("utility = %v", u)
	}
	if got := MissesUtility(nil); len(got) != 0 {
		t.Error("nil curve mishandled")
	}
}

// The combination used by LFOC: two sensitive apps with different
// steepness; the steeper one must receive more ways.
func TestFairnessAllocationShape(t *testing.T) {
	steep := curve(2500, 1800, 1400, 1150, 1050, 1000, 1000, 1000, 1000, 1000, 1000)
	mild := curve(1200, 1100, 1050, 1000, 1000, 1000, 1000, 1000, 1000, 1000, 1000)
	util := [][]int64{SlowdownUtility(steep), SlowdownUtility(mild)}
	alloc, err := Allocate(util, 9)
	if err != nil {
		t.Fatal(err)
	}
	if alloc[0] <= alloc[1] {
		t.Errorf("steeper slowdown curve should earn more ways: %v", alloc)
	}
}

// Property: allocations always sum to totalWays with every candidate >= 1.
func TestQuickAllocationConservation(t *testing.T) {
	f := func(seed int64, n8, ways8 uint8) bool {
		n := int(n8%6) + 1
		ways := n + int(ways8%12)
		rng := rand.New(rand.NewSource(seed))
		util := make([][]int64, n)
		for i := range util {
			u := make([]int64, ways+1)
			var v int64
			for w := 1; w <= ways; w++ {
				v += int64(rng.Intn(100))
				u[w] = v
			}
			util[i] = u
		}
		alloc, err := Allocate(util, ways)
		if err != nil {
			return false
		}
		sum := 0
		for _, a := range alloc {
			if a < 1 {
				return false
			}
			sum += a
		}
		return sum == ways
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: for two candidates, giving one a uniformly dominating curve
// never earns it fewer ways than the dominated candidate.
func TestQuickDominanceRespected(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const ways = 11
		weak := make([]int64, ways+1)
		strong := make([]int64, ways+1)
		var v int64
		for w := 1; w <= ways; w++ {
			v += int64(rng.Intn(20))
			weak[w] = v
			strong[w] = v * 3 // strictly steeper everywhere
		}
		alloc, err := Allocate([][]int64{strong, weak}, ways)
		if err != nil {
			return false
		}
		return alloc[0] >= alloc[1]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
