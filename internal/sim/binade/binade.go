// Package binade holds the exact float arithmetic behind the simulation
// kernel's event-horizon advancement: closed forms that reproduce a
// per-tick float loop bit for bit over any number of ticks. A binade is
// the set of floats that share one exponent; inside one, the floats are
// evenly spaced, which is what turns runs of rounding float adds into
// integer arithmetic.
//
// Two loops are replaced. A carry chain (`f += step; i = ⌊f⌋; f -= i`)
// performs no rounding at all once the carry sits on step's grid
// (CarryGrid), so it advances in closed form (CarryBatch, TicksToReach).
// A float sum (`t += dt`) whose adds do round advances a binade at a
// time as integer steps on the sum's significand (AdvanceClock,
// AloneRun). Each function states its exactness argument; the tests pin
// every closed form against the per-tick loop it replaces.
//
// floatpin (cmd/lfoc-vet) checks every multiply-add in this file for an
// explicit float64(...) rounding pin. See docs/static-analysis.md.
//
//lfoc:floatstrict
package binade

import (
	"math"
	"math/bits"
)

// CarryParams is the integer decomposition of one per-tick carry step
// (see CarryGrid): the step is Base + Sfrac/2^Sh, Mask is 2^Sh − 1, and
// a carry f ∈ [0,1) on the step's grid is the integer f·2^Sh. OK is
// false when the step needs the float path.
type CarryParams struct {
	Base  uint64
	Sfrac uint64
	Mask  uint64
	Sh    uint
	OK    bool
}

// CarryGrid decomposes a per-tick carry step for the exact integer
// advancement of a fractional accumulator.
//
// Exactness argument. Let g = ulp(step) = 2^(e−52) with e = ⌊log2
// step⌋, and suppose (a) 1 ≤ step < 2^52, and (b) ⌊step⌋+2 ≤ 2^(e+1).
// step is by definition a multiple of g, and so are ⌊step⌋ (an integer;
// 1/g = 2^(52−e) is an integer) and sfrac = step−⌊step⌋. If the carry
// f ∈ [0,1) is also a multiple of g, the true sum f+step is a multiple
// of g inside [2^e, 2^(e+1)] by (b) — exactly representable, so the
// float add `f += step` performs NO rounding, and the floor/subtract
// pair is always exact (Sterbenz). The whole per-tick sequence
// therefore equals integer arithmetic on multiples of g: F += S;
// carry-out = F ≫ (52−e); F &= 2^(52−e)−1 — and the chain can even be
// advanced m ticks in closed form (carryRun). The carry IS a multiple
// of g after one float tick under the current step (the add rounds the
// sum onto the grid, floor and subtract are exact), which is why batch
// chains run tick 1 in the per-tick float shape first.
//
// The decomposition itself is pure bit arithmetic: step = mant·g with
// mant = 2^52 | mantissa-bits, so base = mant ≫ (52−e) and sfrac =
// mant & (2^(52−e)−1), with no float operation that could round.
//
// OK is false for steps outside (a)/(b) — less than one unit per tick,
// at a binade edge, or absurdly large — which fall back to per-tick
// float adds.
//
//lfoc:hotpath
func CarryGrid(step float64) CarryParams {
	if !(step >= 1) || step >= 1<<52 {
		return CarryParams{}
	}
	b := math.Float64bits(step)
	e := int(b>>52) - 1023      // exponent, 0..51 given the range check
	mant := b&(1<<52-1) | 1<<52 // step/ulp(step), exact
	sh := uint(52 - e)
	mask := uint64(1)<<sh - 1
	base := mant >> sh
	if base+2 > 2<<uint(e) { // binade margin: ⌊step⌋+2 ≤ 2^(e+1)
		return CarryParams{}
	}
	return CarryParams{Base: base, Sfrac: mant & mask, Mask: mask, Sh: sh, OK: true}
}

// carryRun advances one carry chain m ticks in closed form: the chain's
// total output is m·base plus the number of fractional wrap-arounds,
// (F₀ + m·sfrac) div 2^sh, with the final carry the matching mod —
// exact in 128-bit integer arithmetic (CarryGrid's grid argument). ok
// is false only when the wrap count would overflow the shift; the
// caller then runs per-tick float adds.
//
//lfoc:hotpath
func carryRun(frac *float64, g *CarryParams, m int) (sum uint64, ok bool) {
	hi, lo := bits.Mul64(g.Sfrac, uint64(m))
	var c uint64
	lo, c = bits.Add64(lo, uint64(*frac*float64(g.Mask+1)), 0)
	hi += c
	if hi>>g.Sh != 0 {
		return 0, false
	}
	*frac = float64(lo&g.Mask) / float64(g.Mask+1)
	return uint64(m)*g.Base + (hi<<(64-g.Sh) | lo>>g.Sh), true
}

// CarryBatch advances one side-effect-free carry chain, whose step
// decomposes to g, by ticks ticks and returns its total output: tick 1
// in the per-tick float shape (grid alignment, see CarryGrid), the
// remaining ticks in closed form when the step allows it and tick by
// tick otherwise. A zero step is skipped outright: adding +0.0 to a
// non-negative carry and flooring is a bitwise no-op.
//
//lfoc:hotpath
func CarryBatch(frac *float64, step float64, g *CarryParams, ticks int) uint64 {
	if step == 0 {
		return 0
	}
	f := *frac + step
	sum := uint64(f)
	f -= float64(sum)
	*frac = f
	if m := ticks - 1; m > 0 {
		if g.OK {
			if s, ok := carryRun(frac, g, m); ok {
				return sum + s
			}
		}
		for i := 0; i < m; i++ {
			f += step
			v := uint64(f)
			f -= float64(v)
			sum += v
		}
		*frac = f
	}
	return sum
}

// TicksToReach returns the first tick j ≥ 1 at which a grid-exact carry
// chain (CarryGrid) starting from carry f, in units of ulp(step), has
// retired at least need ≥ 1 units. Its output after j ticks is ⌊(f +
// j·mant)/2^sh⌋ with mant = base·2^sh + sfrac = step/ulp(step)
// (carryRun), so j = ⌈(need·2^sh − f)/mant⌉, exact in 128-bit integers
// (the quotient fits: need·2^sh < 2^64·mant).
//
//lfoc:hotpath
func TicksToReach(need, f uint64, g *CarryParams) uint64 {
	hi, lo := need>>(64-g.Sh), need<<g.Sh
	lo, borrow := bits.Sub64(lo, f, 0)
	hi -= borrow
	j, rem := bits.Div64(hi, lo, g.Base<<g.Sh|g.Sfrac)
	if rem != 0 {
		j++
	}
	return j
}

// gridOf returns the integer significand K ∈ [2^52, 2^53) and the biased
// exponent e of a positive normal float: x = K·u with u = 2^(e−1075),
// the spacing of the floats in x's binade [2^(e−1023), 2^(e−1022)). ok
// is false for zero, subnormals, negatives, ±Inf and NaN.
//
// Exactness argument (binade-exact sums). Adding x ≥ 0 to K·u rounds
// the exact sum K·u + x to the nearest multiple of u while the sum stays
// inside the binade, so the float add yields exactly (K + d)·u with d =
// round(x/u) — provided (a) x/u is not a half-integer, where
// ties-to-even would make the step depend on K's parity (ulpsOf refuses
// those), and (b) K + d ≤ 2^53 − 1, which keeps the exact sum below the
// binade's top (x/u < d + 1/2). A run of float adds of addends with
// known d inside one binade is therefore integer addition on K, in any
// grouping: K += Σd, and fromGrid converts back by bit assembly. A sum
// leaving the binade, a tie or a zero accumulator takes one float add.
//
//lfoc:hotpath
func gridOf(x float64) (K, e uint64, ok bool) {
	b := math.Float64bits(x)
	e = b >> 52
	if e == 0 || e >= 0x7ff { // zero or subnormal; Inf, NaN or the sign bit
		return 0, 0, false
	}
	return b&(1<<52-1) | 1<<52, e, true
}

// fromGrid is gridOf's inverse: the float K·2^(e−1075) for K ∈ [2^52,
// 2^53), assembled from its bits.
//
//lfoc:hotpath
func fromGrid(K, e uint64) float64 {
	return math.Float64frombits(e<<52 | K&(1<<52-1))
}

// ulpsOf returns d = round(x/u) for the spacing u = 2^(e−1075) of the
// binade with biased exponent e (see gridOf), from x's significand bits
// alone. ok is false when the dropped bits are exactly one half (a tie,
// condition (a)) and when x is not below the binade's bottom 2^(e−1023)
// — negative, ±Inf, NaN, or too large for any add to stay in the binade
// (d ≥ 2^52 breaks condition (b) for every K).
//
//lfoc:hotpath
func ulpsOf(x float64, e uint64) (d uint64, ok bool) {
	b := math.Float64bits(x)
	ex := b >> 52
	mant := b & (1<<52 - 1)
	if ex == 0 {
		ex = 1 // zero or subnormal: no implicit bit
	} else {
		mant |= 1 << 52
	}
	if ex >= e {
		return 0, false
	}
	s := e - ex // x/u = mant/2^s
	if s > 53 {
		return 0, true // mant < 2^53 ≤ 2^(s−1): below half an ulp
	}
	half := uint64(1) << (s - 1)
	d, rem := mant>>s, mant&(half<<1-1)
	if rem == half {
		return 0, false
	}
	if rem > half {
		d++
	}
	return d, true
}

// AdvanceClock advances the clock t by whole ticks of dt, stopping at
// the first tick that reaches n ticks, reaches stop or passes maxTime
// (at least one tick). It returns the new clock, the ticks advanced and
// how many of them took the per-tick float add. It is bit-identical to
// the per-tick loop `t += dt` under the same break test: runs of ticks
// inside one binade are one integer step (clockRun), and only a zero
// clock, a tie and the ticks crossing a binade edge take the float add.
//
//lfoc:hotpath
func AdvanceClock(t, dt float64, n int, stop, maxTime float64) (float64, int, uint64) {
	ticks := 0
	var floatTicks uint64
	for {
		var j int
		t, j = clockRun(t, dt, n-ticks, stop, maxTime)
		if j == 0 {
			t += dt
			floatTicks++
			j = 1
		}
		ticks += j
		if ticks >= n || t >= stop || t > maxTime {
			return t, ticks, floatTicks
		}
	}
}

// clockRun advances the clock t in closed form by up to limit ticks of
// dt inside its binade (gridOf): with d = ulpsOf(dt), the time after j
// ticks is exactly fromGrid(K + j·d) while K + j·d ≤ 2^53 − 1. It stops
// at the first tick whose time reaches stop or passes maxTime, found by
// bisection over those exact times (they never decrease, so the test is
// monotone in j). It returns the new clock and the ticks advanced; 0
// ticks when none can be taken in closed form.
//
//lfoc:hotpath
func clockRun(t, dt float64, limit int, stop, maxTime float64) (float64, int) {
	K, e, ok := gridOf(t)
	if !ok || limit <= 0 {
		return t, 0
	}
	d, ok := ulpsOf(dt, e)
	if !ok {
		return t, 0
	}
	room := uint64(limit)
	if hi, lo := bits.Mul64(room, d); hi != 0 || lo > 1<<53-1-K {
		room = (1<<53 - 1 - K) / d
	}
	if room == 0 {
		return t, 0
	}
	// Invariant: the first stopping tick, or room if none, is in [lo, hi].
	lo, hi := uint64(1), room
	if tj := fromGrid(K+room*d, e); !(tj >= stop || tj > maxTime) {
		lo = room
	}
	for lo < hi {
		mid := lo + (hi-lo)/2
		if tj := fromGrid(K+mid*d, e); tj >= stop || tj > maxTime {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return fromGrid(K+lo*d, e), int(lo)
}

// AloneRun advances an alone-clock over n ticks of an instruction
// chain's integer carry f (on grid g): each tick adds inc0, or inc1 when
// the carry wraps. It returns the clock, the final carry, the wrap count
// and how many ticks took the per-tick float add. Inside the clock's
// binade (gridOf) the adds are integer steps d0 ≤ d1 on its significand
// (inc0 < inc1), so a chunk of ticks that cannot leave the binade even
// at d1 per tick advances at once: its wraps n1 follow from carryRun's
// formula and K += (chunk − n1)·d0 + n1·d1. A zero clock, a tie or a
// tick at the binade's top runs one tick of the per-tick loop body
// instead.
//
//lfoc:hotpath
func AloneRun(aloneT float64, f uint64, g *CarryParams, inc0, inc1 float64, n uint64) (float64, uint64, uint64, uint64) {
	var wraps, floatTicks uint64
	for n > 0 {
		var chunk uint64
		K, e, ok := gridOf(aloneT)
		d0, ok0 := ulpsOf(inc0, e) // e = 0 when !ok: ulpsOf refuses
		d1, ok1 := ulpsOf(inc1, e)
		if ok && ok0 && ok1 {
			chunk = n
			if hi, lo := bits.Mul64(chunk, d1); hi != 0 || lo > 1<<53-1-K {
				chunk = (1<<53 - 1 - K) / d1
			}
		}
		if chunk == 0 {
			f += g.Sfrac
			extra := f >> g.Sh
			f &= g.Mask
			inc := inc0
			if extra != 0 {
				inc = inc1
			}
			aloneT += inc
			wraps += extra
			n--
			floatTicks++
			continue
		}
		hi, lo := bits.Mul64(g.Sfrac, chunk)
		lo, c := bits.Add64(lo, f, 0)
		hi += c
		n1 := hi<<(64-g.Sh) | lo>>g.Sh
		f = lo & g.Mask
		aloneT = fromGrid(K+(chunk-n1)*d0+n1*d1, e)
		wraps += n1
		n -= chunk
	}
	return aloneT, f, wraps, floatTicks
}
