package scenario

import (
	"math"
	"testing"

	"github.com/faircache/lfoc/internal/appmodel"
	"github.com/faircache/lfoc/internal/profiles"
)

func pool(t *testing.T) []*appmodel.Spec {
	t.Helper()
	return []*appmodel.Spec{profiles.MustGet("povray06"), profiles.MustGet("lbm06")}
}

func TestClosedSemantics(t *testing.T) {
	c := NewClosed(pool(t), 0)
	if c.RunsTarget != 3 {
		t.Errorf("default RunsTarget = %d", c.RunsTarget)
	}
	if len(c.Specs) != 2 {
		t.Error("closed scenario misreports its population")
	}
}

func TestPoissonDeterminismAndShape(t *testing.T) {
	p := pool(t)
	a, err := NewPoisson("", p, 5, 10, 42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewPoisson("", p, 5, 10, 42)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Arrivals()) != len(b.Arrivals()) {
		t.Fatalf("same seed, different counts: %d vs %d", len(a.Arrivals()), len(b.Arrivals()))
	}
	for i := range a.Arrivals() {
		if a.Arrivals()[i] != b.Arrivals()[i] {
			t.Fatalf("same seed, arrival %d differs", i)
		}
	}
	// Expected count is rate*window = 50; a 5-sigma band is ~±35.
	if n := len(a.Arrivals()); n < 15 || n > 85 {
		t.Errorf("suspicious Poisson arrival count %d for rate 5 over 10s", n)
	}
	last := 0.0
	for i, arr := range a.Arrivals() {
		if arr.Time < last || arr.Time >= 10 {
			t.Fatalf("arrival %d at %v out of order or window", i, arr.Time)
		}
		last = arr.Time
		if arr.Spec == nil {
			t.Fatalf("arrival %d without spec", i)
		}
	}
	c, err := NewPoisson("", p, 5, 10, 43)
	if err != nil {
		t.Fatal(err)
	}
	same := len(c.Arrivals()) == len(a.Arrivals())
	if same {
		for i := range a.Arrivals() {
			if a.Arrivals()[i] != c.Arrivals()[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("different seeds produced the identical trace")
	}
}

func TestPoissonValidation(t *testing.T) {
	p := pool(t)
	if _, err := NewPoisson("", nil, 1, 1, 0); err == nil {
		t.Error("empty pool accepted")
	}
	if _, err := NewPoisson("", p, 0, 1, 0); err == nil {
		t.Error("zero rate accepted")
	}
	if _, err := NewPoisson("", p, 1, 0, 0); err == nil {
		t.Error("zero window accepted")
	}
	// strconv and flag parse "NaN" and "Inf": a NaN draws no arrivals,
	// and an infinite rate or window never ends the draw.
	for _, c := range []struct{ rate, window float64 }{
		{math.NaN(), 1}, {math.Inf(1), 1}, {1, math.NaN()}, {1, math.Inf(1)},
	} {
		if _, err := NewPoisson("", p, c.rate, c.window, 0); err == nil {
			t.Errorf("rate %v, window %v accepted", c.rate, c.window)
		}
	}
}

func TestTraceSortsAndValidates(t *testing.T) {
	p := pool(t)
	tr, err := NewTrace("", nil, []Arrival{{Time: 2, Spec: p[0]}, {Time: 1, Spec: p[1]}})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Arrivals()[0].Time != 1 || tr.Arrivals()[1].Time != 2 {
		t.Error("trace not sorted by time")
	}
	if _, err := NewTrace("", nil, []Arrival{{Time: -1, Spec: p[0]}}); err == nil {
		t.Error("negative arrival time accepted")
	}
	if _, err := NewTrace("", nil, []Arrival{{Time: 1}}); err == nil {
		t.Error("nil spec accepted")
	}
}

func TestOpenHorizon(t *testing.T) {
	p := pool(t)
	tr, err := NewTrace("", nil, []Arrival{{Time: 0.5, Spec: p[0]}})
	if err != nil {
		t.Fatal(err)
	}
	if tr.WithHorizon(2).Horizon() != 2 {
		t.Errorf("horizon = %v, want 2", tr.Horizon())
	}
}
