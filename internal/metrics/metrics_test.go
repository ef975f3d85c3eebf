package metrics

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSlowdown(t *testing.T) {
	if s, err := Slowdown(20, 10); err != nil || s != 2 {
		t.Errorf("Slowdown = %v, %v", s, err)
	}
	if _, err := Slowdown(0, 10); err == nil {
		t.Error("zero shared time accepted")
	}
	if _, err := Slowdown(10, 0); err == nil {
		t.Error("zero alone time accepted")
	}
}

func TestUnfairness(t *testing.T) {
	u, err := Unfairness([]float64{1.0, 2.0, 1.5})
	if err != nil || u != 2.0 {
		t.Errorf("Unfairness = %v, %v", u, err)
	}
	// Perfect fairness.
	u, _ = Unfairness([]float64{1.3, 1.3, 1.3})
	if u != 1 {
		t.Errorf("uniform unfairness = %v, want 1", u)
	}
	if _, err := Unfairness(nil); err == nil {
		t.Error("empty workload accepted")
	}
	if _, err := Unfairness([]float64{1, -1}); err == nil {
		t.Error("negative slowdown accepted")
	}
}

func TestSTP(t *testing.T) {
	s, err := STP([]float64{1, 2, 4})
	if err != nil || math.Abs(s-1.75) > 1e-12 {
		t.Errorf("STP = %v, %v", s, err)
	}
	// Perfect isolation: STP = n.
	s, _ = STP([]float64{1, 1, 1})
	if s != 3 {
		t.Errorf("ideal STP = %v", s)
	}
	if _, err := STP(nil); err == nil {
		t.Error("empty workload accepted")
	}
	if _, err := STP([]float64{0}); err == nil {
		t.Error("zero slowdown accepted")
	}
}

func TestGeoMean(t *testing.T) {
	g, err := GeoMean([]float64{1, 4})
	if err != nil || math.Abs(g-2) > 1e-12 {
		t.Errorf("GeoMean = %v, %v", g, err)
	}
	g, _ = GeoMean([]float64{7})
	if g != 7 {
		t.Errorf("singleton GeoMean = %v", g)
	}
	if _, err := GeoMean(nil); err == nil {
		t.Error("empty accepted")
	}
	if _, err := GeoMean([]float64{1, 0}); err == nil {
		t.Error("zero accepted")
	}
}

func TestSummarize(t *testing.T) {
	s, err := Summarize([]float64{1, 2})
	if err != nil || s.Unfairness != 2 || math.Abs(s.STP-1.5) > 1e-12 {
		t.Errorf("Summarize = %+v, %v", s, err)
	}
	if _, err := Summarize(nil); err != nil {
		// expected error
	} else {
		t.Error("empty accepted")
	}
	if _, err := Summarize([]float64{-1, 1}); err == nil {
		t.Error("negative slowdown accepted")
	}
}

// Property: unfairness >= 1 always, and == 1 iff all slowdowns are equal.
func TestQuickUnfairnessAtLeastOne(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		sd := make([]float64, len(raw))
		for i, r := range raw {
			sd[i] = 1 + float64(r)/1000
		}
		u, err := Unfairness(sd)
		return err == nil && u >= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: STP is bounded by the workload size and positive.
func TestQuickSTPBounds(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		sd := make([]float64, len(raw))
		for i, r := range raw {
			sd[i] = 1 + float64(r)/1000
		}
		s, err := STP(sd)
		return err == nil && s > 0 && s <= float64(len(sd))+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: GeoMean lies between min and max.
func TestQuickGeoMeanBounds(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		vs := make([]float64, len(raw))
		lo, hi := math.Inf(1), math.Inf(-1)
		for i, r := range raw {
			vs[i] = float64(r) + 1
			lo = math.Min(lo, vs[i])
			hi = math.Max(hi, vs[i])
		}
		g, err := GeoMean(vs)
		return err == nil && g >= lo-1e-9 && g <= hi+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
