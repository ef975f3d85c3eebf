package workloads

import (
	"testing"

	"github.com/faircache/lfoc/internal/appmodel"
	"github.com/faircache/lfoc/internal/profiles"
)

func classCount(w Workload, c appmodel.Class) int {
	n := 0
	for _, b := range w.Benchmarks {
		if profiles.MustGet(b).Class == c {
			n++
		}
	}
	return n
}

func TestAllHas36(t *testing.T) {
	all := All()
	if len(all) != 36 {
		t.Fatalf("got %d workloads", len(all))
	}
	if all[0].Name != "S1" || all[20].Name != "S21" || all[21].Name != "P1" || all[35].Name != "P15" {
		t.Error("naming order wrong")
	}
}

func TestSizesFollowPaper(t *testing.T) {
	sizes := map[int]int{}
	for _, w := range All() {
		sizes[w.Size]++
		if len(w.Benchmarks) != w.Size {
			t.Errorf("%s: %d benchmarks for size %d", w.Name, len(w.Benchmarks), w.Size)
		}
	}
	if sizes[8] != 12 || sizes[12] != 12 || sizes[16] != 12 {
		t.Errorf("size distribution %v, want 12 each of 8/12/16", sizes)
	}
}

func TestInstanceCap(t *testing.T) {
	for _, w := range All() {
		counts := map[string]int{}
		for _, b := range w.Benchmarks {
			counts[b]++
			if counts[b] > 2 {
				t.Errorf("%s: benchmark %s appears %d times", w.Name, b, counts[b])
			}
		}
	}
}

func TestClassRepresentation(t *testing.T) {
	for _, w := range All() {
		if classCount(w, appmodel.ClassStreaming) < 1 {
			t.Errorf("%s has no streaming app", w.Name)
		}
		if classCount(w, appmodel.ClassSensitive) < 1 {
			t.Errorf("%s has no sensitive app", w.Name)
		}
	}
}

func TestSWorkloadsAreStable(t *testing.T) {
	for _, w := range SWorkloads() {
		for _, b := range w.Benchmarks {
			if profiles.MustGet(b).Phased() {
				t.Errorf("%s contains phased app %s", w.Name, b)
			}
		}
	}
}

func TestPWorkloadsHavePhasedApps(t *testing.T) {
	for _, w := range PWorkloads() {
		phased := 0
		for _, b := range w.Benchmarks {
			if profiles.MustGet(b).Phased() {
				phased++
			}
		}
		if phased < 2 {
			t.Errorf("%s has only %d phased apps", w.Name, phased)
		}
	}
}

func TestDeterminism(t *testing.T) {
	a, b := All(), All()
	for i := range a {
		if a[i].Name != b[i].Name {
			t.Fatal("name mismatch")
		}
		for j := range a[i].Benchmarks {
			if a[i].Benchmarks[j] != b[i].Benchmarks[j] {
				t.Fatalf("%s nondeterministic", a[i].Name)
			}
		}
	}
}

func TestGet(t *testing.T) {
	w, err := Get("P3")
	if err != nil || w.Name != "P3" || w.Kind != KindP {
		t.Errorf("Get(P3) = %+v, %v", w, err)
	}
	if _, err := Get("Z9"); err == nil {
		t.Error("unknown name accepted")
	}
}

func TestDynamicList(t *testing.T) {
	d := Dynamic()
	if len(d) != 24 {
		t.Fatalf("dynamic list has %d entries", len(d))
	}
	if d[0].Name != "P1" || d[5].Name != "S1" || d[23].Name != "S17" {
		t.Error("Fig. 7 x-axis order wrong")
	}
}

func TestSpecsResolve(t *testing.T) {
	w, _ := Get("S1")
	specs := w.Specs()
	if len(specs) != w.Size {
		t.Fatal("spec count wrong")
	}
	for i, s := range specs {
		if s.Name != w.Benchmarks[i] {
			t.Error("spec order mismatch")
		}
	}
}

func TestScaledSpecs(t *testing.T) {
	w, _ := Get("P1")
	orig := w.Specs()
	scaled := w.ScaledSpecs(50)
	for i := range orig {
		if len(orig[i].Phases) != len(scaled[i].Phases) {
			t.Fatal("phase count changed")
		}
		for p := range orig[i].Phases {
			od, sd := orig[i].Phases[p].DurationInsns, scaled[i].Phases[p].DurationInsns
			if od == 0 {
				if sd != 0 {
					t.Error("endless phase gained a duration")
				}
				continue
			}
			if sd != od/50 {
				t.Errorf("duration %d scaled to %d", od, sd)
			}
		}
		if err := scaled[i].Validate(); err != nil {
			t.Errorf("scaled spec invalid: %v", err)
		}
		// Original untouched.
		if orig[i] != profiles.MustGet(w.Benchmarks[i]) {
			t.Error("ScaledSpecs mutated the catalog")
		}
	}
	// Scale 1 returns catalog pointers directly.
	same := w.ScaledSpecs(1)
	for i := range same {
		if same[i] != orig[i] {
			t.Error("scale 1 should not copy")
		}
	}
}

func TestRandomMix(t *testing.T) {
	w := RandomMix(7, 10)
	if w.Size != 10 || len(w.Benchmarks) != 10 {
		t.Fatalf("mix = %+v", w)
	}
	if classCount(w, appmodel.ClassStreaming) < 1 || classCount(w, appmodel.ClassSensitive) < 1 {
		t.Error("random mix lacks class representation")
	}
	// Deterministic per seed.
	w2 := RandomMix(7, 10)
	for i := range w.Benchmarks {
		if w.Benchmarks[i] != w2.Benchmarks[i] {
			t.Fatal("RandomMix nondeterministic")
		}
	}
}

func TestOpenScenarioBuilder(t *testing.T) {
	w, err := Get("S1")
	if err != nil {
		t.Fatal(err)
	}
	a, err := w.OpenScenario(4, 10, 42, 50)
	if err != nil {
		t.Fatal(err)
	}
	b, err := w.OpenScenario(4, 10, 42, 50)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Arrivals()) != len(b.Arrivals()) {
		t.Fatal("same seed, different traces")
	}
	names := map[string]bool{}
	for _, n := range w.Benchmarks {
		names[n] = true
	}
	for i, arr := range a.Arrivals() {
		// ScaledSpecs copies specs per call, so compare by value.
		if arr.Time != b.Arrivals()[i].Time || arr.Spec.Name != b.Arrivals()[i].Spec.Name {
			t.Fatal("same seed, different traces")
		}
		if !names[arr.Spec.Name] {
			t.Errorf("arrival %d draws %q, not in the mix", i, arr.Spec.Name)
		}
	}
	// Scaled specs: every bounded phase shrank.
	for _, arr := range a.Arrivals() {
		for _, ph := range arr.Spec.Phases {
			full := profilePhaseDuration(t, arr.Spec.Name, ph.Name)
			if full > 0 && ph.DurationInsns >= full {
				t.Errorf("%s phase %q not scaled: %d", arr.Spec.Name, ph.Name, ph.DurationInsns)
			}
		}
	}
}

func profilePhaseDuration(t *testing.T, specName, phaseName string) uint64 {
	t.Helper()
	s := profiles.MustGet(specName)
	for _, ph := range s.Phases {
		if ph.Name == phaseName {
			return ph.DurationInsns
		}
	}
	t.Fatalf("%s has no phase %q", specName, phaseName)
	return 0
}

func TestUniformScenarioBuilder(t *testing.T) {
	w, err := Get("S1")
	if err != nil {
		t.Fatal(err)
	}
	scn, err := w.UniformScenario(0.5, 6, 50)
	if err != nil {
		t.Fatal(err)
	}
	arr := scn.Arrivals()
	if len(arr) != 6 {
		t.Fatalf("%d arrivals, want 6", len(arr))
	}
	for i := range arr {
		if arr[i].Time != 0.5*float64(i) {
			t.Errorf("arrival %d at %v, want %v", i, arr[i].Time, 0.5*float64(i))
		}
		if arr[i].Spec.Name != profiles.MustGet(w.Benchmarks[i%len(w.Benchmarks)]).Name {
			t.Errorf("arrival %d draws %q, want mix order", i, arr[i].Spec.Name)
		}
	}
	if _, err := w.UniformScenario(0, 6, 50); err == nil {
		t.Error("zero interval accepted")
	}
	if _, err := w.UniformScenario(0.5, 0, 50); err == nil {
		t.Error("zero count accepted")
	}
}

func TestSplitArrivals(t *testing.T) {
	w, err := Get("S1")
	if err != nil {
		t.Fatal(err)
	}
	scn, err := w.UniformScenario(0.5, 7, 50)
	if err != nil {
		t.Fatal(err)
	}
	arr := scn.Arrivals()

	split, err := SplitArrivals(arr, []int{0, 1, 2, 0, 1, 2, 0}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(split[0]) != 3 || len(split[1]) != 2 || len(split[2]) != 2 {
		t.Fatalf("split sizes %d/%d/%d, want 3/2/2", len(split[0]), len(split[1]), len(split[2]))
	}
	for m, sub := range split {
		for i := 1; i < len(sub); i++ {
			if sub[i].Time < sub[i-1].Time {
				t.Errorf("machine %d: sub-trace out of order", m)
			}
		}
	}

	if _, err := SplitArrivals(arr, []int{0}, 3); err == nil {
		t.Error("assignment length mismatch accepted")
	}
	if _, err := SplitArrivals(arr, []int{0, 1, 2, 0, 1, 2, 3}, 3); err == nil {
		t.Error("out-of-range machine accepted")
	}
	if _, err := SplitArrivals(arr, make([]int, len(arr)), 0); err == nil {
		t.Error("zero machines accepted")
	}
}
