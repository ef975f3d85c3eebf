package sim

// The per-tick reference path: one fixed tick per runUntil iteration,
// with every event check inline, in the historical operation order the
// goldens were recorded under. The event-horizon path must reproduce it
// bit for bit; the differential tests and the kernel benchmarks switch
// runUntil to it with perTick.

import "github.com/faircache/lfoc/internal/pmc"

// perTick makes runUntil advance one tick per iteration (advanceTick)
// until the returned function restores the event-horizon path:
//
//	defer perTick()()
func perTick() func() {
	advance = (*kernel).advanceTick
	return func() { advance = (*kernel).advanceHorizon }
}

// advanceTick advances the clock one tick and integrates every active
// app over it, then runs each app's event checks. It has advanceHorizon's
// signature but needs neither bound: runUntil tests the pause point and
// MaxSimTime between ticks. The rate products carry refreshSteps'
// float64 rounding pins, so the two paths agree on every architecture.
// It leaves tick and every app's synced and due alone (no app ever
// lags), so nextEventTime means nothing while it drives a kernel.
func (k *kernel) advanceTick(_, _ float64) (bool, error) {
	k.simTime += k.dt
	anyChange := false
	for _, a := range k.actives {
		if !a.active {
			continue
		}
		// Progress.
		ips := a.rate.IPC * k.freq
		a.fracInsns += float64(ips * k.dt)
		insns := uint64(a.fracInsns)
		a.fracInsns -= float64(insns)
		if insns > 0 {
			// Alone-clock: charge the retired instructions at the
			// solo rate of the phase they retired under (phase
			// boundaries inside one tick are charged to the phase
			// the tick started in — a sub-tick approximation).
			ph := a.inst.Phase()
			if ph != a.alonePhase {
				a.alonePhase = ph
				a.aloneIPS = k.alonePhaseIPS(ph)
			}
			a.aloneT += float64(insns) / a.aloneIPS
			if a.inst.Advance(insns) {
				k.perfDirty = true
			}
		}
		// Counters.
		a.fracCycles += float64(k.freq * k.dt)
		cycles := uint64(a.fracCycles)
		a.fracCycles -= float64(cycles)
		a.fracMiss += float64(a.rate.MPKC / 1000 * k.freq * k.dt)
		miss := uint64(a.fracMiss)
		a.fracMiss -= float64(miss)
		a.fracStall += float64(a.rate.StallFrac * k.freq * k.dt)
		stall := uint64(a.fracStall)
		a.fracStall -= float64(stall)
		a.counter.Add(pmc.Sample{
			Instructions:   insns,
			Cycles:         cycles,
			LLCMisses:      miss,
			LLCAccesses:    miss * 2,
			StallsL2Miss:   stall,
			OccupancyBytes: a.rate.Share,
		})
		a.runInsns += insns
		changed, err := k.appEvents(a)
		if err != nil {
			return false, err
		}
		anyChange = anyChange || changed
	}
	return anyChange, nil
}
