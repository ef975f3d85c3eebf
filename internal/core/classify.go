package core

import fp "github.com/faircache/lfoc/internal/fixedpoint"

// ProfileSample is one point of an online profile: the metrics LFOC
// gathered with the sampling partition sized at Ways ways.
type ProfileSample struct {
	Ways int
	IPC  fp.Value
	MPKC fp.Value
}

// Profile is the table the sampling mode builds: per-way-count IPC and
// MPKC, with extrapolation for way counts beyond the last measured one
// (§4.2: "LFOC uses the last IPC sample gathered to approximate the
// performance with higher way counts").
type Profile struct {
	nrWays int
	ipc    []fp.Value // index 1..nrWays
	mpkc   []fp.Value
	maxW   int // highest measured way count
}

// NewProfile builds a profile from sweep samples (at least one, ways
// strictly increasing, 1-based). Missing higher way counts are filled
// with the last sample's values.
func NewProfile(nrWays int, samples []ProfileSample) *Profile {
	p := new(Profile)
	p.rebuild(nrWays, samples)
	return p
}

// rebuild is NewProfile in place: it refills p's tables from the sweep
// samples, reusing their storage once it has grown to nrWays+1 entries.
// Every entry, index 0 and maxW included, is rewritten, so nothing of
// the previous table survives.
//
//lfoc:hotpath
func (p *Profile) rebuild(nrWays int, samples []ProfileSample) {
	p.nrWays = nrWays
	p.ipc = resized(p.ipc, nrWays+1)
	p.mpkc = resized(p.mpkc, nrWays+1)
	p.ipc[0], p.mpkc[0] = 0, 0
	p.maxW = 0
	last := ProfileSample{Ways: 0, IPC: fp.One, MPKC: 0}
	for w := 1; w <= nrWays; w++ {
		for _, s := range samples {
			if s.Ways == w {
				last = s
				if w > p.maxW {
					p.maxW = w
				}
			}
		}
		// Hold the most recent (or extrapolated) value. Gaps inside the
		// sweep inherit the previous measurement too.
		p.ipc[w] = last.IPC
		p.mpkc[w] = last.MPKC
	}
	if p.maxW == 0 {
		p.maxW = 1
	}
}

// resized returns buf with n entries of unspecified content, allocating
// only when its capacity is short.
func resized(buf []fp.Value, n int) []fp.Value {
	if cap(buf) < n {
		return make([]fp.Value, n)
	}
	return buf[:n]
}

// IPCAt returns the (possibly extrapolated) IPC at w ways.
func (p *Profile) IPCAt(w int) fp.Value { return p.ipc[clampWays(w, p.nrWays)] }

// MPKCAt returns the (possibly extrapolated) MPKC at w ways.
func (p *Profile) MPKCAt(w int) fp.Value { return p.mpkc[clampWays(w, p.nrWays)] }

// MeasuredWays returns the highest way count actually measured.
func (p *Profile) MeasuredWays() int { return p.maxW }

// Slowdown returns the slowdown at w ways relative to the full LLC, in
// fixed point (Eq. 2 with the extrapolated full-size IPC as baseline).
func (p *Profile) Slowdown(w int) fp.Value {
	full := p.ipc[p.nrWays]
	at := p.ipc[clampWays(w, p.nrWays)]
	if at <= 0 || full <= 0 {
		return fp.One
	}
	sd := fp.Div(full, at)
	if sd < fp.One {
		sd = fp.One
	}
	return sd
}

// SlowdownTable returns the whole fixed-point slowdown curve as int64
// raw values suitable for lookahead.SlowdownUtility (index 0 unused).
func (p *Profile) SlowdownTable() []int64 {
	out := make([]int64, p.nrWays+1)
	for w := 1; w <= p.nrWays; w++ {
		out[w] = int64(p.Slowdown(w))
	}
	return out
}

// CriticalWays returns the smallest way count whose slowdown is below
// 1 + threshold — the §4.2 "critical size" in ways.
//
//lfoc:hotpath
func (p *Profile) CriticalWays(threshold fp.Value) int {
	limit := fp.One + threshold
	for w := 1; w <= p.nrWays; w++ {
		if p.Slowdown(w) < limit {
			return w
		}
	}
	return p.nrWays
}

// Classify applies the Table 1 criteria to the profile.
//
//lfoc:hotpath
func Classify(p *Profile, params *Params) Class {
	streamingWitness := false
	allBelow := true
	for w := 1; w <= p.nrWays; w++ {
		sd := p.Slowdown(w)
		if sd <= params.StreamingMaxSlowdown && p.MPKCAt(w) >= params.HighThresholdMPKC {
			streamingWitness = true
		}
		if sd >= params.StreamingAllMaxSlowdown {
			allBelow = false
		}
	}
	if streamingWitness && allBelow {
		return ClassStreaming
	}
	for w := 2; w <= p.nrWays; w++ {
		if p.Slowdown(w) >= params.SensitiveMinSlowdown {
			return ClassSensitive
		}
	}
	return ClassLight
}

func clampWays(w, nrWays int) int {
	if w < 1 {
		return 1
	}
	if w > nrWays {
		return nrWays
	}
	return w
}
