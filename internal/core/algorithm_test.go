package core

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	fp "github.com/faircache/lfoc/internal/fixedpoint"
)

// sensitiveProfile builds a steep slowdown profile whose critical size is
// roughly critWays.
func sensitiveProfile(nrWays, critWays int) *Profile {
	samples := make([]ProfileSample, nrWays)
	for w := 1; w <= nrWays; w++ {
		// IPC ramps to 1.0 at critWays and stays flat.
		var ipcMilli int64
		if w >= critWays {
			ipcMilli = 1000
		} else {
			ipcMilli = 400 + int64(600*w/critWays)
		}
		samples[w-1] = ProfileSample{Ways: w, IPC: fp.FromMilli(ipcMilli), MPKC: fp.FromInt(5)}
	}
	return NewProfile(nrWays, samples)
}

func TestPartitionErrors(t *testing.T) {
	prm := params11()
	if _, err := Partition(nil, &prm); err == nil {
		t.Error("empty workload accepted")
	}
	bad := Params{NrWays: 0}
	if _, err := Partition([]AppInfo{{ID: 0, Class: ClassLight}}, &bad); err == nil {
		t.Error("zero ways accepted")
	}
	if _, err := Partition([]AppInfo{{ID: 0, Class: ClassSensitive, Profile: nil}}, &prm); err == nil {
		t.Error("sensitive app without profile accepted")
	}
}

func TestNoSensitiveSingleCluster(t *testing.T) {
	prm := params11()
	apps := []AppInfo{
		{ID: 0, Class: ClassStreaming},
		{ID: 1, Class: ClassLight},
		{ID: 2, Class: ClassStreaming},
		{ID: 3, Class: ClassUnknown},
	}
	p, err := Partition(apps, &prm)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Clusters) != 1 || p.Clusters[0].Ways != 11 || len(p.Clusters[0].Apps) != 4 {
		t.Errorf("plan = %s", p.Canonical())
	}
}

func TestStreamingConfinedToOneWay(t *testing.T) {
	prm := params11()
	apps := []AppInfo{
		{ID: 0, Class: ClassStreaming},
		{ID: 1, Class: ClassStreaming},
		{ID: 2, Class: ClassSensitive, Profile: sensitiveProfile(11, 8)},
		{ID: 3, Class: ClassSensitive, Profile: sensitiveProfile(11, 4)},
	}
	p, err := Partition(apps, &prm)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(4, 11); err != nil {
		t.Fatalf("%v (%s)", err, p.Canonical())
	}
	// Both streaming apps (|ST|=2 ≤ max_streaming_way) share one 1-way
	// cluster; 10 ways remain for the two sensitive apps.
	stCluster := p.ClusterOf(0)
	if stCluster != p.ClusterOf(1) {
		t.Errorf("streaming apps not co-located: %s", p.Canonical())
	}
	if p.Clusters[stCluster].Ways != 1 {
		t.Errorf("streaming cluster has %d ways: %s", p.Clusters[stCluster].Ways, p.Canonical())
	}
	// The steeper/hungrier sensitive app (critical size 8) must receive
	// more ways than the modest one (critical size 4).
	w2 := p.Clusters[p.ClusterOf(2)].Ways
	w3 := p.Clusters[p.ClusterOf(3)].Ways
	if w2 <= w3 {
		t.Errorf("lookahead gave hungry app %d ways, modest app %d: %s", w2, w3, p.Canonical())
	}
	if w2+w3 != 10 {
		t.Errorf("sensitive apps got %d ways, want 10: %s", w2+w3, p.Canonical())
	}
}

func TestManyStreamingGetTwoWays(t *testing.T) {
	prm := params11()
	var apps []AppInfo
	for i := 0; i < 6; i++ { // ceil(6/5) = 2 streaming ways
		apps = append(apps, AppInfo{ID: i, Class: ClassStreaming})
	}
	apps = append(apps, AppInfo{ID: 6, Class: ClassSensitive, Profile: sensitiveProfile(11, 6)})
	p, err := Partition(apps, &prm)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(7, 11); err != nil {
		t.Fatal(err)
	}
	streamingClusters := map[int]bool{}
	for i := 0; i < 6; i++ {
		ci := p.ClusterOf(i)
		streamingClusters[ci] = true
		if p.Clusters[ci].Ways != 1 {
			t.Errorf("streaming cluster with %d ways", p.Clusters[ci].Ways)
		}
	}
	if len(streamingClusters) != 2 {
		t.Errorf("streaming apps in %d clusters, want 2: %s", len(streamingClusters), p.Canonical())
	}
	// Sensitive app gets the remaining 9 ways.
	if w := p.Clusters[p.ClusterOf(6)].Ways; w != 9 {
		t.Errorf("sensitive app got %d ways", w)
	}
}

func TestLightFillStreamingGapsThenRoundRobin(t *testing.T) {
	prm := params11()
	apps := []AppInfo{
		{ID: 0, Class: ClassStreaming},
		{ID: 1, Class: ClassSensitive, Profile: sensitiveProfile(11, 5)},
		{ID: 2, Class: ClassSensitive, Profile: sensitiveProfile(11, 5)},
		{ID: 3, Class: ClassLight},
		{ID: 4, Class: ClassLight},
		{ID: 5, Class: ClassLight},
		{ID: 6, Class: ClassLight},
	}
	p, err := Partition(apps, &prm)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(7, 11); err != nil {
		t.Fatalf("%v (%s)", err, p.Canonical())
	}
	// |ST|=1 → ways_for_streaming=1, r=1. The streaming cluster has one
	// member, so gaps = r − |C|·gaps_per_streaming = 1−3 < 0: no light
	// app goes there; all four spread over the two sensitive clusters.
	st := p.ClusterOf(0)
	if len(p.Clusters[st].Apps) != 1 {
		t.Errorf("streaming cluster gained light apps: %s", p.Canonical())
	}
	n1 := len(p.Clusters[p.ClusterOf(1)].Apps)
	n2 := len(p.Clusters[p.ClusterOf(2)].Apps)
	if n1+n2 != 6 || absInt(n1-n2) > 1 {
		t.Errorf("light apps unbalanced (%d/%d): %s", n1, n2, p.Canonical())
	}
}

func TestLightGapsUsedWhenStreamingClusterHasRoom(t *testing.T) {
	prm := params11()
	// |ST|=5 → ways_for_streaming=1, r=5; streaming cluster holds 5 apps;
	// gaps = 5 − 5·3 < 0 → none. Use fewer: |ST|=4 → r=4, after mapping 4
	// streaming apps gaps = 4 − 4·3 < 0. The literal formula only admits
	// light apps when |C|·gaps_per_streaming < r, i.e. a nearly empty
	// streaming cluster. Force that with GapsPerStreaming=0.
	prm.GapsPerStreaming = 0
	apps := []AppInfo{
		{ID: 0, Class: ClassStreaming},
		{ID: 1, Class: ClassStreaming},
		{ID: 2, Class: ClassStreaming},
		{ID: 3, Class: ClassSensitive, Profile: sensitiveProfile(11, 5)},
		{ID: 4, Class: ClassLight},
		{ID: 5, Class: ClassLight},
	}
	p, err := Partition(apps, &prm)
	if err != nil {
		t.Fatal(err)
	}
	// gaps = r − 0 = 3: both light apps land in the streaming cluster.
	st := p.ClusterOf(0)
	if p.ClusterOf(4) != st || p.ClusterOf(5) != st {
		t.Errorf("light apps should fill streaming gaps: %s", p.Canonical())
	}
}

func TestSensitiveOverflowMerges(t *testing.T) {
	prm := DefaultParams(4)
	var apps []AppInfo
	for i := 0; i < 6; i++ {
		apps = append(apps, AppInfo{ID: i, Class: ClassSensitive, Profile: sensitiveProfile(4, 2+i%3)})
	}
	p, err := Partition(apps, &prm)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(6, 4); err != nil {
		t.Fatalf("%v (%s)", err, p.Canonical())
	}
	if len(p.Clusters) > 4 {
		t.Errorf("more clusters than ways: %s", p.Canonical())
	}
}

func TestDegenerateTinyLLC(t *testing.T) {
	prm := DefaultParams(1)
	apps := []AppInfo{
		{ID: 0, Class: ClassStreaming},
		{ID: 1, Class: ClassSensitive, Profile: sensitiveProfile(1, 1)},
	}
	p, err := Partition(apps, &prm)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Clusters) != 1 || p.Clusters[0].Ways != 1 {
		t.Errorf("tiny LLC should collapse to one cluster: %s", p.Canonical())
	}
}

func TestPartitionWaysSumToLLC(t *testing.T) {
	prm := params11()
	apps := []AppInfo{
		{ID: 0, Class: ClassStreaming},
		{ID: 1, Class: ClassStreaming},
		{ID: 2, Class: ClassStreaming},
		{ID: 3, Class: ClassSensitive, Profile: sensitiveProfile(11, 7)},
		{ID: 4, Class: ClassSensitive, Profile: sensitiveProfile(11, 3)},
		{ID: 5, Class: ClassLight},
		{ID: 6, Class: ClassLight},
	}
	p, err := Partition(apps, &prm)
	if err != nil {
		t.Fatal(err)
	}
	sum := 0
	for _, c := range p.Clusters {
		sum += c.Ways
	}
	if sum != 11 {
		t.Errorf("ways sum to %d, want 11: %s", sum, p.Canonical())
	}
}

func absInt(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// Property: Partition produces a valid plan for any random workload
// composition (classes, profiles, sizes).
func TestQuickPartitionAlwaysValid(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		prm := params11()
		n := rng.Intn(16) + 1
		apps := make([]AppInfo, n)
		for i := range apps {
			switch rng.Intn(4) {
			case 0:
				apps[i] = AppInfo{ID: i, Class: ClassStreaming}
			case 1:
				apps[i] = AppInfo{ID: i, Class: ClassLight}
			case 2:
				apps[i] = AppInfo{ID: i, Class: ClassUnknown}
			default:
				apps[i] = AppInfo{ID: i, Class: ClassSensitive,
					Profile: sensitiveProfile(11, rng.Intn(9)+2)}
			}
		}
		p, err := Partition(apps, &prm)
		if err != nil {
			return false
		}
		return p.Validate(n, prm.NrWays) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: the ways assigned to streaming clusters never exceed two,
// regardless of how many streaming apps the workload contains (§3/§4).
func TestQuickStreamingConfinement(t *testing.T) {
	f := func(nStream8 uint8) bool {
		prm := params11()
		n := int(nStream8%14) + 1
		apps := make([]AppInfo, 0, n+1)
		for i := 0; i < n; i++ {
			apps = append(apps, AppInfo{ID: i, Class: ClassStreaming})
		}
		apps = append(apps, AppInfo{ID: n, Class: ClassSensitive, Profile: sensitiveProfile(11, 6)})
		p, err := Partition(apps, &prm)
		if err != nil {
			return false
		}
		streamWays := 0
		for _, c := range p.Clusters {
			for _, a := range c.Apps {
				if a < n { // a streaming app
					streamWays += c.Ways
					break
				}
			}
		}
		return streamWays <= 2
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// fuzzProfile is a monotone profile from two fuzz bytes: IPC ramps from
// 0.1–0.865 at one way up to 1.0 at the critical size (1–nrWays ways)
// and stays flat.
func fuzzProfile(nrWays int, lo, crit byte) *Profile {
	c := 1 + int(crit)%nrWays
	base := 100 + 3*int64(lo)
	samples := make([]ProfileSample, nrWays)
	for w := 1; w <= nrWays; w++ {
		ipc := int64(1000)
		if w < c {
			ipc = base + (1000-base)*int64(w)/int64(c)
		}
		samples[w-1] = ProfileSample{Ways: w, IPC: fp.FromMilli(ipc), MPKC: fp.FromInt(5)}
	}
	return NewProfile(nrWays, samples)
}

// partitionInput encodes one FuzzPartitionerReuse input: the way count,
// MaxStreamingWay and GapsPerStreaming bytes, then each app as a class
// byte, an id byte and, for a profiled sensitive app, two profile bytes.
func partitionInput(ways, maxStreaming, gaps byte, apps ...[]byte) []byte {
	return append([]byte{ways - 2, maxStreaming, gaps, byte(len(apps))}, slices.Concat(apps...)...)
}

// Class bytes of partitionInput.
const (
	fzUnknown   = iota
	fzLight     // ClassLight
	fzStreaming // ClassStreaming
	fzSensitive // ClassSensitive with a profile
	fzNoProfile // ClassSensitive without one: Partition rejects it
	fzClasses
)

// FuzzPartitionerReuse decodes the fuzz bytes into a sequence of
// Partition inputs: 2–20 ways, MaxStreamingWay 0–5, GapsPerStreaming
// 0–3 and 0–12 apps of every class, sensitive apps with monotone
// profiles. One Partitioner reused across the sequence must return what
// a fresh Partition returns for every input, with the same error state,
// and neither may modify the input slice.
func FuzzPartitionerReuse(f *testing.F) {
	sens := func(id, lo, crit byte) []byte { return []byte{fzSensitive, id, lo, crit} }
	app := func(class, id byte) []byte { return []byte{class, id} }
	f.Add(slices.Concat(
		// Every class on 11 ways, then a smaller input that reuses
		// longer buffers, then a larger one again.
		partitionInput(11, 5, 3, app(fzStreaming, 0), sens(1, 40, 6), app(fzLight, 2), sens(3, 200, 3),
			app(fzUnknown, 4), app(fzStreaming, 5), app(fzLight, 6), sens(7, 0, 9)),
		partitionInput(7, 1, 0, sens(9, 10, 2), app(fzLight, 1), app(fzStreaming, 2)),
		partitionInput(20, 2, 1, app(fzStreaming, 0), app(fzStreaming, 1), app(fzStreaming, 2), sens(3, 5, 15),
			sens(4, 90, 4), app(fzLight, 5), app(fzLight, 6), app(fzLight, 7), app(fzLight, 8), sens(9, 1, 19)),
	))
	f.Add(slices.Concat(
		// A flat and a steep sensitive app, then a steep and a
		// medium one: no curve may keep values from the last call.
		partitionInput(11, 5, 3, sens(0, 250, 1), sens(1, 0, 10)),
		partitionInput(11, 5, 3, sens(0, 0, 10), sens(1, 150, 4)),
	))
	f.Add(slices.Concat(
		// More sensitive apps than ways: the merge path.
		partitionInput(4, 5, 3, sens(0, 10, 1), sens(1, 60, 2), sens(2, 120, 3), sens(3, 30, 3), sens(4, 250, 1),
			sens(5, 70, 2), app(fzStreaming, 6)),
		partitionInput(3, 5, 3, sens(0, 10, 1), sens(1, 60, 2)),
	))
	f.Add(slices.Concat(
		// Errors, then valid inputs on the same session: no apps, a
		// sensitive app without a profile, the degenerate 2-way LLC
		// with two streaming clusters, and no sensitive app.
		partitionInput(11, 5, 3),
		partitionInput(9, 5, 3, app(fzLight, 0), app(fzNoProfile, 1)),
		partitionInput(2, 1, 3, app(fzStreaming, 0), app(fzStreaming, 1), sens(2, 50, 1)),
		partitionInput(11, 5, 3, app(fzStreaming, 3), app(fzLight, 1), app(fzUnknown, 0)),
	))
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		var reused Partitioner
		for step := 0; len(data) > 0; step++ {
			prm := DefaultParams(2 + int(next())%19)
			prm.MaxStreamingWay = int(next()) % 6
			prm.GapsPerStreaming = int(next()) % 4
			apps := make([]AppInfo, int(next())%13)
			for i := range apps {
				class, id := next()%fzClasses, int(next())
				switch class {
				case fzUnknown:
					apps[i] = AppInfo{ID: id, Class: ClassUnknown}
				case fzLight:
					apps[i] = AppInfo{ID: id, Class: ClassLight}
				case fzStreaming:
					apps[i] = AppInfo{ID: id, Class: ClassStreaming}
				case fzSensitive:
					apps[i] = AppInfo{ID: id, Class: ClassSensitive, Profile: fuzzProfile(prm.NrWays, next(), next())}
				case fzNoProfile:
					apps[i] = AppInfo{ID: id, Class: ClassSensitive}
				}
			}
			in := slices.Clone(apps)
			got, err1 := reused.Partition(apps, &prm)
			want, err2 := Partition(apps, &prm)
			if (err1 == nil) != (err2 == nil) || !reflect.DeepEqual(got, want) {
				t.Fatalf("step %d: reused Partitioner = %s (%v), fresh Partition = %s (%v)",
					step, got.Canonical(), err1, want.Canonical(), err2)
			}
			if !reflect.DeepEqual(apps, in) {
				t.Fatalf("step %d: Partition modified its input: %+v, was %+v", step, apps, in)
			}
		}
	})
}
