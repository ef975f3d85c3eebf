package core

import fp "github.com/faircache/lfoc/internal/fixedpoint"

// SamplingState drives one application's sampling episode (§4.2).
//
// Unlike KPart's full downward sweep, LFOC sweeps the sampling partition
// *upward* from one way and stops early as soon as growing it further
// provides no information to the clustering algorithm: (a) when the miss
// rate falls below the low threshold, performance barely improves with
// more space, so the remaining IPC values are extrapolated from the last
// sample; (b) streaming applications show flat IPC with persistently high
// LLCMPKC, so a run of flat steps also terminates the sweep.
type SamplingState struct {
	params    *Params
	ways      int
	samples   []ProfileSample
	flatSteps int
	done      bool
}

// NewSampling starts a sweep at a 1-way sampling partition.
func NewSampling(params *Params) *SamplingState {
	s := new(SamplingState)
	s.restart(params)
	return s
}

// restart is NewSampling in place: it starts a new sweep on s, keeping
// the storage of its samples, which the first restart sizes for the
// longest sweep.
//
//lfoc:hotpath
func (s *SamplingState) restart(params *Params) {
	s.params, s.ways = params, 1
	s.samples = emptied(s.samples, params.NrWays-1)
	s.flatSteps, s.done = 0, false
}

// emptied returns buf with length 0 and room for n samples: a sweep
// records at most NrWays−1 of them.
func emptied(buf []ProfileSample, n int) []ProfileSample {
	if cap(buf) < n {
		return make([]ProfileSample, 0, n)
	}
	return buf[:0]
}

// CurrentWays returns the size of the sampling partition being measured.
func (s *SamplingState) CurrentWays() int { return s.ways }

// Done reports whether the sweep has terminated.
func (s *SamplingState) Done() bool { return s.done }

// Record consumes the metrics measured with the sampling partition at
// CurrentWays ways and either advances the sweep or terminates it.
// It returns true when the sweep is complete.
//
//lfoc:hotpath
func (s *SamplingState) Record(ipc, mpkc fp.Value) bool {
	if s.done {
		return true
	}
	prevIPC := fp.Value(0)
	if n := len(s.samples); n > 0 {
		prevIPC = s.samples[n-1].IPC
	}
	s.samples = append(s.samples, ProfileSample{Ways: s.ways, IPC: ipc, MPKC: mpkc})

	// Early stop (a): the application's cache needs are met.
	if mpkc < s.params.LowThresholdMPKC {
		s.done = true
		return true
	}
	// Early stop (b): flat IPC at high miss rate — streaming behaviour.
	if prevIPC > 0 && mpkc >= s.params.HighThresholdMPKC {
		gain := fp.Div(ipc, prevIPC) - fp.One
		if gain <= s.params.IPCFlatTolerance {
			s.flatSteps++
			if s.flatSteps >= s.params.FlatStepsToStop {
				s.done = true
				return true
			}
		} else {
			s.flatSteps = 0
		}
	}
	// The complementary partition needs at least one way.
	if s.ways >= s.params.NrWays-1 {
		s.done = true
		return true
	}
	s.ways++
	return false
}

// Steps returns how many way counts were actually measured.
func (s *SamplingState) Steps() int { return len(s.samples) }

// Finish converts the sweep into a profile (with extrapolation for
// unmeasured way counts).
func (s *SamplingState) Finish() *Profile {
	return NewProfile(s.params.NrWays, s.samples)
}
