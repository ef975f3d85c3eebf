package core

import (
	"testing"

	fp "github.com/faircache/lfoc/internal/fixedpoint"
)

// mkProfile builds a profile from float-ish milli tables for tests.
func mkProfile(nrWays int, ipcMilli, mpkcMilli []int64) *Profile {
	samples := make([]ProfileSample, 0, len(ipcMilli))
	for i := range ipcMilli {
		samples = append(samples, ProfileSample{
			Ways: i + 1,
			IPC:  fp.FromMilli(ipcMilli[i]),
			MPKC: fp.FromMilli(mpkcMilli[i]),
		})
	}
	return NewProfile(nrWays, samples)
}

func params11() Params { return DefaultParams(11) }

func TestProfileExtrapolation(t *testing.T) {
	// Only ways 1..3 measured on an 11-way LLC.
	p := NewProfile(11, []ProfileSample{
		{Ways: 1, IPC: fp.FromMilli(500), MPKC: fp.FromInt(20)},
		{Ways: 2, IPC: fp.FromMilli(700), MPKC: fp.FromInt(12)},
		{Ways: 3, IPC: fp.FromMilli(900), MPKC: fp.FromInt(2)},
	})
	if p.MeasuredWays() != 3 {
		t.Errorf("MeasuredWays = %d", p.MeasuredWays())
	}
	if p.IPCAt(3) != p.IPCAt(11) {
		t.Error("extrapolation should hold the last IPC")
	}
	if p.MPKCAt(7) != fp.FromInt(2) {
		t.Error("extrapolation should hold the last MPKC")
	}
	// Slowdown relative to the extrapolated full-size IPC.
	want := fp.Div(fp.FromMilli(900), fp.FromMilli(500))
	if got := p.Slowdown(1); max(got-want, want-got) > fp.FromMilli(2) {
		t.Errorf("Slowdown(1) = %v, want %v", got, want)
	}
	if p.Slowdown(11) != fp.One {
		t.Error("Slowdown at full LLC should be 1")
	}
	// Out-of-range ways clamp.
	if p.Slowdown(0) != p.Slowdown(1) || p.IPCAt(99) != p.IPCAt(11) {
		t.Error("clamping wrong")
	}
}

func TestProfileDegenerate(t *testing.T) {
	p := NewProfile(11, nil)
	if p.Slowdown(1) != fp.One {
		t.Error("empty profile slowdown should be 1")
	}
	if p.MeasuredWays() != 1 {
		t.Error("empty profile MeasuredWays should be 1")
	}
}

func TestClassifyStreaming(t *testing.T) {
	// Flat IPC, high MPKC everywhere.
	ipc := []int64{520, 520, 525, 525, 525, 528, 528, 528, 528, 528, 530}
	mpkc := []int64{26000, 26000, 25500, 25500, 25000, 25000, 25000, 25000, 25000, 25000, 25000}
	p := mkProfile(11, ipc, mpkc)
	prm := params11()
	if got := Classify(p, &prm); got != ClassStreaming {
		t.Errorf("class = %v, want streaming", got)
	}
}

func TestClassifySensitive(t *testing.T) {
	// Strong IPC growth with ways; MPKC moderate.
	ipc := []int64{480, 570, 660, 740, 810, 870, 920, 950, 975, 990, 1000}
	mpkc := []int64{9500, 8000, 6500, 5200, 4000, 3000, 2200, 1600, 1200, 1000, 900}
	p := mkProfile(11, ipc, mpkc)
	prm := params11()
	if got := Classify(p, &prm); got != ClassSensitive {
		t.Errorf("class = %v, want sensitive", got)
	}
}

func TestClassifyLight(t *testing.T) {
	// Tiny slowdown only at 1 way, low MPKC.
	ipc := []int64{1900, 1990, 2000, 2000, 2000, 2000, 2000, 2000, 2000, 2000, 2000}
	mpkc := []int64{900, 300, 100, 100, 100, 100, 100, 100, 100, 100, 100}
	p := mkProfile(11, ipc, mpkc)
	prm := params11()
	if got := Classify(p, &prm); got != ClassLight {
		t.Errorf("class = %v, want light", got)
	}
}

func TestClassifyHighMPKCButSensitiveIsNotStreaming(t *testing.T) {
	// High MPKC at small allocations *and* a steep slowdown curve: the
	// all-assignments condition must exclude streaming.
	ipc := []int64{500, 650, 800, 900, 960, 990, 1000, 1000, 1000, 1000, 1000}
	mpkc := []int64{15000, 12000, 9000, 6000, 4000, 2000, 1500, 1500, 1500, 1500, 1500}
	p := mkProfile(11, ipc, mpkc)
	prm := params11()
	if got := Classify(p, &prm); got != ClassSensitive {
		t.Errorf("class = %v, want sensitive", got)
	}
}

func TestCriticalWays(t *testing.T) {
	ipc := []int64{480, 570, 660, 740, 810, 870, 920, 950, 975, 990, 1000}
	mpkc := make([]int64, 11)
	p := mkProfile(11, ipc, mpkc)
	prm := params11()
	cw := p.CriticalWays(prm.CriticalSlowdown)
	// slowdown(w) < 1.05 requires ipc > 1000/1.05 = 952.4 → ways >= 9.
	if cw != 9 {
		t.Errorf("critical ways = %d, want 9", cw)
	}
}

func TestSlowdownTable(t *testing.T) {
	ipc := []int64{500, 750, 1000, 1000, 1000, 1000, 1000, 1000, 1000, 1000, 1000}
	p := mkProfile(11, ipc, make([]int64, 11))
	tbl := p.SlowdownTable()
	if len(tbl) != 12 {
		t.Fatalf("len = %d", len(tbl))
	}
	if tbl[0] != 0 {
		t.Error("index 0 should be unused/zero")
	}
	if fp.Value(tbl[1]).Milli() != 2000 {
		t.Errorf("slowdown(1) = %v milli", fp.Value(tbl[1]).Milli())
	}
	if fp.Value(tbl[11]) != fp.One {
		t.Error("slowdown(11) != 1")
	}
}
