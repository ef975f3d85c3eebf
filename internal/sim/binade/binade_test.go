package binade

import (
	"math"
	"testing"
	"testing/quick"
)

// TestCarryBatchMatchesFloatTicks is the focused exactness pin for the
// integer carry advancement (CarryGrid/carryRun/CarryBatch): for random
// steps across magnitudes — including sub-1 steps and binade edges that
// must take the float fallback — and random starting carries, a batched
// advance must reproduce the per-tick float loop bit for bit: same total
// output, same final carry.
func TestCarryBatchMatchesFloatTicks(t *testing.T) {
	f := func(stepBits uint32, fracBits uint16, ticksRaw uint16, scale uint8) bool {
		// Steps spread over magnitudes 2^-8 .. 2^24-ish.
		step := float64(stepBits) / 256 * math.Pow(2, float64(scale%16))
		frac := float64(fracBits) / 65536 // [0,1)
		ticks := int(ticksRaw)%2000 + 1

		// Reference: the per-tick float loop.
		refFrac := frac
		var refSum uint64
		for i := 0; i < ticks; i++ {
			refFrac += step
			v := uint64(refFrac)
			refFrac -= float64(v)
			refSum += v
		}

		g := CarryGrid(step)
		gotFrac := frac
		gotSum := CarryBatch(&gotFrac, step, &g, ticks)
		return gotSum == refSum && math.Float64bits(gotFrac) == math.Float64bits(refFrac)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestCarryGridEdges pins the fallback decisions: sub-1 steps, binade
// edges and huge steps must refuse the integer path rather than risk a
// rounding divergence.
func TestCarryGridEdges(t *testing.T) {
	for _, step := range []float64{0, 0.25, 0.999999, 1 << 52, math.Inf(1), math.NaN()} {
		if g := CarryGrid(step); g.OK {
			t.Errorf("step %v must take the float path", step)
		}
	}
	// ⌊step⌋+2 crossing the binade: step+1 could round past 2^17.
	if g := CarryGrid(131071.5); g.OK {
		t.Error("binade-edge step must take the float path")
	}
	if g := CarryGrid(80000.25); !g.OK || g.Base != 80000 {
		t.Errorf("well-formed step rejected: %+v", g)
	}
}

// perTickClock is the per-tick clock loop AdvanceClock must reproduce:
// one float add per tick until n ticks, stop or maxTime.
func perTickClock(t, dt float64, n int, stop, maxTime float64) (float64, int) {
	ticks := 0
	for {
		t += dt
		ticks++
		if ticks >= n || t >= stop || t > maxTime {
			return t, ticks
		}
	}
}

// FuzzAdvanceClock pins the clock's binade-exact sum (AdvanceClock over
// gridOf, ulpsOf and fromGrid) bit for bit against perTickClock. From a
// clock acc, a tick dt x, a tick count and threshold selectors, it sets
// stop and maxTime on the exact time of the ticks chosen by at's low and
// high halves, one ulp below it, one ulp above it or absent (edge bits
// 0–1 and 2–3), and requires the same final bits and the same breaking
// tick. The float-add count must stay within the ticks advanced.
//
// The seeds cover a zero clock, clocks just below a power of two, ties
// (x is 1.5 or 2.5 ulps of acc), ticks below half an ulp (d = 0), ticks
// larger than the clock, a subnormal tick, a dyadic tick and binade
// crossings inside one call. The alone-clock's sum is pinned through
// the kernel by internal/sim's FuzzBinadeSum.
func FuzzAdvanceClock(f *testing.F) {
	seeds := []struct {
		acc, x float64
		ticks  uint16
		at     uint32
		edge   uint8
	}{
		{0, 0.01 / 250, 3000, 0x07d00bb8, 0x0},
		{math.Nextafter(1, 0), 0.01 / 617, 4000, 0x00020003, 0x5},
		{math.Nextafter(1024, 0), 1.0 / 1024, 2000, 0x03e801f4, 0xa},
		{1, 3 * 0x1p-53, 512, 0x01000100, 0x0},       // tie: x/u = 1.5
		{1, 5 * 0x1p-53, 512, 0x01000100, 0xf},       // tie: x/u = 2.5
		{1, 0x1p-54, 700, 0x00100200, 0x9},           // d = 0: x/u = 1/4
		{0x1p60, 0.01 / 250, 900, 0x0300012c, 0x6},   // d = 0 on a huge clock
		{1e-9, 0.01 / 250, 1500, 0x000a0005, 0xf},    // tick ≫ clock
		{0.5, 0x1p-10, 4095, 0x0c000400, 0x0},        // dyadic: every add exact
		{0.5, 0x1p-10, 4095, 0x0c010401, 0x6},        // dyadic, stop one ulp above a tick
		{3.7, 0.01 / 617, 3000, 0x0bb80064, 0x1},     // stop one ulp below a tick
		{12.25, 0.01 / 50, 2500, 0x09c40032, 0xe},    // maxTime absent
		{0.01, 0.01 / 250, 1024, 0x00400400, 0x1},    // binade crossings
		{2.5, 0.01 / 250, 800, 0x00c80190, 0x0},      // stop on a tick's exact time
		{0x1p-1000, 0x1p-1060, 300, 0x00100020, 0x5}, // subnormal tick
		{1, 1e-3, 4000, 0x0fa00fa0, 0xf},             // several binade crossings, no stop
	}
	for _, s := range seeds {
		f.Add(s.acc, s.x, s.ticks, s.at, s.edge)
	}
	f.Fuzz(func(t *testing.T, acc, x float64, ticks uint16, at uint32, edge uint8) {
		acc, x = math.Abs(acc), math.Abs(x)
		n := int(ticks)%4096 + 1
		near := func(v float64, sel uint8) float64 {
			switch sel % 4 {
			case 1:
				return math.Nextafter(v, math.Inf(-1))
			case 2:
				return math.Nextafter(v, math.Inf(1))
			case 3:
				return math.Inf(1)
			}
			return v
		}
		tStop, _ := perTickClock(acc, x, int(at)%n+1, math.Inf(1), math.Inf(1))
		tMax, _ := perTickClock(acc, x, int(at>>16)%n+1, math.Inf(1), math.Inf(1))
		stop, maxTime := near(tStop, edge), near(tMax, edge>>2)
		wantT, wantTicks := perTickClock(acc, x, n, stop, maxTime)
		gotT, gotTicks, floatTicks := AdvanceClock(acc, x, n, stop, maxTime)
		if gotTicks != wantTicks || math.Float64bits(gotT) != math.Float64bits(wantT) {
			t.Fatalf("clock from %v by %v over %d ticks (stop %v, maxTime %v): got %v after %d ticks, want %v after %d",
				acc, x, n, stop, maxTime, gotT, gotTicks, wantT, wantTicks)
		}
		if floatTicks > uint64(gotTicks) {
			t.Fatalf("clock from %v by %v: %d float adds over %d ticks", acc, x, floatTicks, gotTicks)
		}
	})
}
