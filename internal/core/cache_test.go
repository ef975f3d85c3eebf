package core

import (
	"bytes"
	"maps"
	"reflect"
	"slices"
	"testing"

	"github.com/faircache/lfoc/internal/pmc"
)

// Operations of FuzzControllerCaches. Each is one byte (taken modulo
// cacheOps); the bytes after it are its arguments.
const (
	opAdd      = iota // AddApp(next fresh id)
	opRemove          // RemoveApp(id byte)
	opWindow          // OnWindow(id, ipc, mpkc, stall, occupancy bytes)
	opReconfig        // Reconfigure
	opAssign          // Assignment (also checked after every operation)
	opSnapshot        // PolicySnapshot, then PolicyRestore into a fresh controller
	cacheOps
)

// fuzzWindow fabricates a counter window from four fuzz bytes: IPC
// 0.1–5.2, LLCMPKC 0–51 (the thresholds are 3 and 10), a stall fraction
// up to 1 and a CMT occupancy of 0–ways ways.
func fuzzWindow(insns uint64, ipc, mpkc, stall, occ byte, ways int) pmc.Sample {
	cycles := insns * 1000 / (100 + 20*uint64(ipc))
	return pmc.Sample{
		Instructions:   insns,
		Cycles:         cycles,
		LLCMisses:      200 * uint64(mpkc) * cycles / 1_000_000,
		StallsL2Miss:   min(4*uint64(stall), 1000) * cycles / 1000,
		OccupancyBytes: uint64(int(occ)%(ways+1)) * testWayBytes,
	}
}

func windowOp(id, ipc, mpkc, stall, occ byte) []byte {
	return []byte{opWindow, id, ipc, mpkc, stall, occ}
}

// repeatOps concatenates n copies of ops.
func repeatOps(n int, ops ...[]byte) []byte {
	var out []byte
	for i := 0; i < n; i++ {
		for _, o := range ops {
			out = append(out, o...)
		}
	}
	return out
}

// restoreFresh restores a snapshot the way sim.RestoreMachine does: into
// a fresh controller that has already been activated and asked for its
// (empty) assignment.
func restoreFresh(t *testing.T, params Params, snap []byte) *Controller {
	t.Helper()
	c, err := NewController(params, testWayBytes)
	if err != nil {
		t.Fatal(err)
	}
	c.Reconfigure()
	if _, err := c.Assignment(); err != nil {
		t.Fatal(err)
	}
	if err := c.PolicyRestore(snap); err != nil {
		t.Fatal(err)
	}
	return c
}

// FuzzControllerCaches decodes the fuzz bytes into a sequence of
// controller operations and applies it to two controllers with the same
// Params. The reference marks its plan stale before every call, so it
// reruns Algorithm 1 at every activation. It also reuses no storage: it
// recycles no removed app's state, and each of its episodes starts from
// a fresh sample slice and builds its profile in new tables, so a
// reused buffer that leaks stale content shows up as a difference.
// After every operation the two must agree on the operation's result,
// on Assignment, SamplingActive and every WindowInsns; a snapshot also
// compares the checkpoint bytes.
//
// The first byte picks the way count (2–12). The seeds cover a full
// classification of streaming, sensitive and light apps, an AddApp
// during an active sampling episode, a snapshot taken while a new app
// still waits for its first activation, removal of the sampled app, a
// restore in the middle of an episode, an app resampled twice under an
// unchanged app set (its later episodes reuse the first one's samples
// and profile tables), an AddApp and a RemoveApp between episodes of one
// app (the next sampling layout must follow each), and an app that
// arrives after the sampled app left mid-episode and so inherits its
// state.
func FuzzControllerCaches(f *testing.F) {
	streaming := windowOp(0, 21, 130, 175, 11)
	light := func(id byte) []byte { return windowOp(id, 85, 2, 12, 1) }
	warm := func(id byte) []byte { return repeatOps(3, windowOp(id, 40, 40, 100, 4)) }
	// A sensitive sweep: IPC grows with every sampling window while the
	// miss rate stays high, until it falls under the low threshold.
	var sensitive []byte
	for i := byte(0); i < 8; i++ {
		sensitive = append(sensitive, windowOp(1, 15+10*i, 60-7*i, 125, i)...)
	}
	// A three-way sampling sweep of app 0, and a memory-intensive phase
	// at full occupancy that triggers its resampling.
	episode := slices.Concat(windowOp(0, 30, 60, 100, 1), windowOp(0, 60, 40, 100, 2), windowOp(0, 90, 2, 100, 3))
	phase := repeatOps(5, windowOp(0, 30, 120, 200, 11))
	short := func(id byte) []byte { return slices.Concat(windowOp(id, 30, 60, 100, 1), windowOp(id, 60, 2, 100, 2)) }
	seeds := [][]byte{
		// AddApp while app 0 is being sampled: the sampling layout
		// must cover the new app at once.
		slices.Concat([]byte{9, opAdd, opAdd}, warm(0), []byte{opAdd}, windowOp(0, 30, 60, 100, 2),
			[]byte{opReconfig}, windowOp(0, 40, 60, 100, 3)),
		// A snapshot while the new app 1 waits for its first
		// activation: the restored plan must still be rerun.
		{9, opAdd, opReconfig, opAdd, opSnapshot, opReconfig, opAssign},
		// Streaming, sensitive and light apps classified in turn, a
		// phase change of the light app, then the sensitive app leaves.
		slices.Concat([]byte{9, opAdd, opAdd, opAdd}, warm(0), repeatOps(4, streaming), []byte{opReconfig},
			warm(1), sensitive, []byte{opReconfig}, warm(2), repeatOps(2, light(2)), []byte{opReconfig},
			repeatOps(10, windowOp(2, 30, 120, 200, 1)),
			[]byte{opReconfig, opSnapshot, opRemove, 1, opReconfig, opAssign}),
		// The sampled app leaves mid-episode; the activation starts the
		// next episode, a restore lands inside it, and an app arrives
		// before it ends.
		slices.Concat([]byte{4, opAdd, opAdd}, warm(0), warm(1), windowOp(0, 20, 80, 100, 1),
			[]byte{opRemove, 0, opAssign, opReconfig}, windowOp(1, 30, 80, 100, 1), []byte{opSnapshot},
			windowOp(1, 50, 40, 100, 2), []byte{opReconfig, opAdd, opReconfig}, windowOp(1, 70, 20, 100, 3)),
		// App 0 is resampled twice while the app set stays the same.
		slices.Concat([]byte{9, opAdd, opAdd}, warm(0), episode, []byte{opReconfig}, phase, episode,
			[]byte{opReconfig}, phase, episode, []byte{opReconfig, opAssign}),
		// An app arrives between two episodes of app 0, and another
		// leaves between the next two.
		slices.Concat([]byte{9, opAdd, opAdd}, warm(0), episode, []byte{opReconfig, opAdd}, phase, episode,
			[]byte{opReconfig, opRemove, 1}, phase, episode, []byte{opReconfig, opAssign}),
		// App 0's resampling stops at two ways, where its first sweep
		// went to three. It leaves in the middle of its next one, and
		// app 2 takes over its state, with its samples and profile
		// tables, for a first episode that also stops at two ways. App 2
		// leaves in the middle of its resampling too, and a snapshot
		// follows the arrival of app 3 in its place.
		slices.Concat([]byte{9, opAdd, opAdd}, warm(0), episode, []byte{opReconfig}, phase, short(0),
			[]byte{opReconfig, opSnapshot}, phase, windowOp(0, 30, 60, 100, 1), []byte{opRemove, 0, opAdd},
			warm(2), short(2), []byte{opReconfig}, repeatOps(5, windowOp(2, 30, 120, 200, 11)),
			windowOp(2, 30, 60, 100, 1), []byte{opRemove, 2, opAdd, opSnapshot, opAssign}),
		// Two ways: the smallest LLC a controller accepts.
		slices.Concat([]byte{0, opAdd, opAdd, opAdd}, warm(0), warm(1), warm(2),
			repeatOps(3, windowOp(0, 20, 90, 200, 1), windowOp(1, 90, 1, 10, 1), windowOp(2, 50, 30, 90, 2)),
			[]byte{opReconfig, opRemove, 2, opReconfig}),
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		params := DefaultParams(2 + int(data[0])%11)
		data = data[1:]
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		got, err := NewController(params, testWayBytes)
		if err != nil {
			t.Fatal(err)
		}
		ref, _ := NewController(params, testWayBytes)
		drop := func() {
			ref.stale = true
			ref.free = nil
			for _, st := range ref.apps {
				if st.sampling == nil {
					st.ownSampling = SamplingState{}
				}
				// The profile moves out of the app's own storage, so the
				// next episode builds its table in new slices.
				if st.profile == &st.ownProfile {
					held := st.ownProfile
					st.profile, st.ownProfile = &held, Profile{}
				}
			}
		}
		ids := 0 // ids handed out so far; removed ones stay valid arguments
		for step := 0; len(data) > 0; step++ {
			op := next() % cacheOps
			switch op {
			case opAdd:
				drop()
				if e1, e2 := got.AddApp(ids), ref.AddApp(ids); (e1 == nil) != (e2 == nil) {
					t.Fatalf("step %d: AddApp(%d): %v, reference %v", step, ids, e1, e2)
				}
				ids++
			case opRemove:
				id := int(next()) % (ids + 1)
				drop()
				got.RemoveApp(id)
				ref.RemoveApp(id)
			case opWindow:
				id := int(next()) % (ids + 1)
				w := fuzzWindow(ref.WindowInsns(id), next(), next(), next(), next(), params.NrWays)
				drop()
				if a, b := got.OnWindow(id, w), ref.OnWindow(id, w); a != b {
					t.Fatalf("step %d: OnWindow(%d) = %v, reference %v", step, id, a, b)
				}
			case opReconfig:
				drop()
				if a, b := got.Reconfigure(), ref.Reconfigure(); !reflect.DeepEqual(a, b) {
					t.Fatalf("step %d: Reconfigure = %s, reference %s", step, a.Canonical(), b.Canonical())
				}
			case opSnapshot:
				a, err := got.PolicySnapshot()
				if err != nil {
					t.Fatal(err)
				}
				b, err := ref.PolicySnapshot()
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(a, b) {
					t.Fatalf("step %d: snapshot\n%s\nreference\n%s", step, a, b)
				}
				got, ref = restoreFresh(t, params, a), restoreFresh(t, params, b)
			}
			drop()
			a, e1 := got.Assignment()
			b, e2 := ref.Assignment()
			if (e1 == nil) != (e2 == nil) || !maps.Equal(a, b) {
				t.Fatalf("step %d (op %d): Assignment = %v (%v), reference %v (%v)", step, op, a, e1, b, e2)
			}
			if a, b := got.SamplingActive(), ref.SamplingActive(); a != b {
				t.Fatalf("step %d (op %d): SamplingActive = %d, reference %d", step, op, a, b)
			}
			for id := 0; id <= ids; id++ {
				if a, b := got.WindowInsns(id), ref.WindowInsns(id); a != b {
					t.Fatalf("step %d (op %d): WindowInsns(%d) = %d, reference %d", step, op, id, a, b)
				}
			}
		}
	})
}

// classifiedController drives a streaming, a sensitive and a light app
// until every one is classified and no episode is pending.
func classifiedController(t *testing.T) *Controller {
	t.Helper()
	c := newTestController(t, 3)
	drive(t, c, map[int]*fakeApp{0: streamingFake(), 1: sensitiveFake(), 2: lightFake()}, 60)
	if c.SamplingActive() != -1 {
		t.Fatal("sampling still active after a long drive")
	}
	for id := 0; id < 3; id++ {
		if c.ClassOf(id) == ClassUnknown {
			t.Fatalf("app %d unclassified", id)
		}
	}
	return c
}

// TestControllerSteadyStateAllocFree pins the memoized activation: with
// no input changed, Reconfigure reruns nothing and Assignment rewrites
// its map in place, so the pair allocates nothing.
func TestControllerSteadyStateAllocFree(t *testing.T) {
	empty, err := NewController(DefaultParams(11), testWayBytes)
	if err != nil {
		t.Fatal(err)
	}
	for name, c := range map[string]*Controller{"empty": empty, "classified": classifiedController(t)} {
		c.Reconfigure() // warm the caches
		if _, err := c.Assignment(); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(50, func() {
			c.Reconfigure()
			if _, err := c.Assignment(); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: steady-state Reconfigure+Assignment allocates %v times, want 0", name, allocs)
		}
	}
}

// TestControllerEpisodeAllocFree pins the episode storage an app owns:
// under an unchanged app set, an app's resample cycle allocates nothing
// once its first episode has grown the buffers. A cycle is the phase
// and episode ops of FuzzControllerCaches: five memory-intensive
// windows, which trigger the resampling, a three-step sweep and an
// activation, each followed by Assignment.
func TestControllerEpisodeAllocFree(t *testing.T) {
	params := DefaultParams(11)
	c, err := NewController(params, testWayBytes)
	if err != nil {
		t.Fatal(err)
	}
	assign := func() {
		if _, err := c.Assignment(); err != nil {
			t.Fatal(err)
		}
	}
	window := func(ipc, mpkc, stall, occ byte) {
		c.OnWindow(0, fuzzWindow(c.WindowInsns(0), ipc, mpkc, stall, occ, params.NrWays))
		assign()
	}
	episode := func() {
		window(30, 60, 100, 1)
		window(60, 40, 100, 2)
		window(90, 2, 100, 3)
		c.Reconfigure()
		assign()
	}
	for id := 0; id < 2; id++ {
		if err := c.AddApp(id); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		window(40, 40, 100, 4) // warm-up
	}
	episode()
	if c.ClassOf(0) == ClassUnknown || c.SamplingActive() != -1 {
		t.Fatalf("first episode left app 0 %v with app %d sampled", c.ClassOf(0), c.SamplingActive())
	}
	const runs = 20
	allocs := testing.AllocsPerRun(runs, func() {
		for i := 0; i < 5; i++ {
			window(30, 120, 200, 11)
		}
		if c.SamplingActive() != 0 {
			t.Fatal("the memory-intensive phase did not start a resampling")
		}
		episode()
	})
	if got := c.Resamples(0); got != runs+1 {
		t.Errorf("%d resamples, want %d", got, runs+1)
	}
	if allocs != 0 {
		t.Errorf("a resample cycle allocates %v times, want 0", allocs)
	}
}
