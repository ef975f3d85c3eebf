package equil

import (
	"bufio"
	"fmt"
	"os"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// key builds a key of one application per phase index, in slots from
// slot on.
func key(slot int, phases ...int) []uint32 {
	var k []uint32
	for i, ph := range phases {
		k = AppendKey(k, slot+i, ph, 0x7f)
	}
	return k
}

// rateOf is the fixed point the tests memoize under a key: each
// application's rate repeats its key words, so a rate returned for the
// wrong key or a torn record shows.
func rateOf(key []uint32) []Rate {
	r := make([]Rate, len(key)/keyWords)
	for i := range r {
		w := key[i*keyWords:]
		r[i] = Rate{IPC: float64(w[0]), MPKC: float64(w[1]), StallFrac: float64(w[2]), Share: uint64(len(key))}
	}
	return r
}

// get looks key up and, on a miss, stores rateOf(key). It reports the
// lookup's hit and fails when a hit returns other rates.
func get(t testing.TB, m *Memo, key []uint32) bool {
	t.Helper()
	want := rateOf(key)
	if got, ok := m.Lookup(key); ok {
		if !slices.Equal(got, want) {
			t.Fatalf("key %v: rates %v, want %v", key, got, want)
		}
		return true
	}
	if st := m.Store(key); st != nil {
		copy(st, want)
	}
	return false
}

// collide makes hash map every key to one of n values, by its first
// slot, until the test ends.
func collide(t testing.TB, n uint32) {
	hash = func(k []uint32) uint64 { return uint64(k[0] % n) }
	t.Cleanup(func() { hash = hashWords })
}

func TestChainedCollisions(t *testing.T) {
	// The chains hold keys of different lengths, some a prefix of
	// another.
	keys := [][]uint32{key(0, 1), key(0, 1, 2), key(0, 2), key(1, 1), key(0, 1, 2, 3), key(0, 2, 1)}
	for _, n := range []uint32{1, 2} {
		collide(t, n)
		m := New(Records)
		for _, k := range keys {
			if get(t, &m, k) {
				t.Fatalf("hash %d: %v hit before it was stored", n, k)
			}
		}
		for _, k := range keys {
			if !get(t, &m, k) {
				t.Errorf("hash %d: %v missed after it was stored", n, k)
			}
		}
		if _, ok := m.Lookup(key(0, 3)); ok {
			t.Errorf("hash %d: a key never stored hit", n)
		}
		if hits, misses := m.Counts(); hits != uint64(len(keys)) || misses != uint64(len(keys))+1 {
			t.Errorf("hash %d: %d hits and %d misses, want %d and %d", n, hits, misses, len(keys), len(keys)+1)
		}
	}
}

func TestRotation(t *testing.T) {
	a, b, c, d := key(0, 1), key(0, 2, 5), key(0, 3), key(1, 4, 4, 4)
	// A step looks a key up and says whether the lookup must hit.
	type step struct {
		k   []uint32
		hit bool
	}
	for _, tc := range []struct {
		records int
		steps   []step
	}{
		// Without capacity nothing is stored.
		{0, []step{{a, false}, {a, false}, {b, false}, {a, false}}},
		// One record: a store rotates the last one into the cold
		// generation, and a cold hit is promoted back, rotating again.
		{1, []step{{a, false}, {a, true}, {b, false}, {a, true}, {b, true}, {a, true}, {c, false}, {b, false}, {a, false}, {c, false}}},
		// Two records: the rotation keeps the record touched since the
		// last one, and drops the one untouched for a whole generation.
		{2, []step{{a, false}, {b, false}, {a, true}, {c, false}, {a, true}, {d, false}, {a, true}, {c, true}, {b, false}, {d, true}}},
	} {
		m := New(tc.records)
		var hits, misses uint64
		for i, s := range tc.steps {
			if got := get(t, &m, s.k); got != s.hit {
				t.Errorf("%d records, step %d (%v): hit %v, want %v", tc.records, i, s.k, got, s.hit)
			}
			if s.hit {
				hits++
			} else {
				misses++
			}
		}
		if h, ms := m.Counts(); h != hits || ms != misses {
			t.Errorf("%d records: %d hits and %d misses, want %d and %d", tc.records, h, ms, hits, misses)
		}
	}
}

// readKeys reads a lookup stream: one key per line, its words in
// decimal.
func readKeys(t *testing.T, path string) [][]uint32 {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var keys [][]uint32
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var k []uint32
		for _, w := range strings.Fields(sc.Text()) {
			v, err := strconv.ParseUint(w, 10, 32)
			if err != nil {
				t.Fatal(err)
			}
			k = append(k, uint32(v))
		}
		keys = append(keys, k)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return keys
}

// clearMemo is the eviction that the rotation replaced, kept as a
// reference: a full memo empties wholesale before its next store.
type clearMemo struct {
	records int
	keys    map[string]bool
}

// get reports whether key hit, storing it on a miss.
func (c *clearMemo) get(key []uint32) bool {
	s := fmt.Sprint(key)
	if c.keys[s] {
		return true
	}
	if len(c.keys) >= c.records {
		clear(c.keys)
	}
	c.keys[s] = true
	return false
}

// TestRotationKeepsWorkingSet replays the memo lookups of an open LFOC
// churn run (testdata/churn.txt, recorded and kept current by the sim
// package's TestEquilChurnLookups): one lookup per change of the
// equilibrium's inputs, most of them for configurations never seen
// before. However small a generation, the rotation returns the right
// rates, and it keeps the working set: at 8 records it hits within
// 0.01 of an unbounded memo, and at 8 and at 2 records it hits more
// often than the wholesale clear it replaced, which dumps the live
// configurations with the stale ones.
func TestRotationKeepsWorkingSet(t *testing.T) {
	keys := readKeys(t, "testdata/churn.txt")
	rates := map[int][2]float64{}
	for _, records := range []int{1 << 30, 16, 8, 2} {
		m := New(records)
		ref := clearMemo{records: records, keys: map[string]bool{}}
		var refHits int
		for _, k := range keys {
			get(t, &m, k)
			if ref.get(k) {
				refHits++
			}
		}
		hits, misses := m.Counts()
		rates[records] = [2]float64{float64(hits) / float64(hits+misses), float64(refHits) / float64(len(keys))}
		t.Logf("%d records: hit rate %.3f, wholesale clear %.3f", records, rates[records][0], rates[records][1])
	}
	if got, unbounded := rates[8][0], rates[1<<30][0]; got < unbounded-0.01 {
		t.Errorf("8 records: hit rate %.3f, more than 0.01 below unbounded %.3f", got, unbounded)
	}
	for _, records := range []int{8, 2} {
		if r := rates[records]; r[0] <= r[1] {
			t.Errorf("%d records: rotation hit rate %.3f, not above the wholesale clear's %.3f", records, r[0], r[1])
		}
	}
}

// refMemo is the rotation on Go maps: the model that FuzzMemo checks
// Memo against.
type refMemo struct {
	records      int
	hot, cold    map[string][]Rate
	hits, misses uint64
}

func (r *refMemo) lookup(key []uint32) ([]Rate, bool) {
	s := fmt.Sprint(key)
	if v, ok := r.hot[s]; ok {
		r.hits++
		return v, true
	}
	if v, ok := r.cold[s]; ok {
		r.hits++
		r.store(key, v)
		return v, true
	}
	r.misses++
	return nil, false
}

func (r *refMemo) store(key []uint32, v []Rate) {
	if len(r.hot) >= r.records {
		r.hot, r.cold = map[string][]Rate{}, r.hot
	}
	r.hot[fmt.Sprint(key)] = v
}

// FuzzMemo runs random lookup sequences over a small key space against
// refMemo. The first byte picks the capacity, 1 to 4, and whether every
// key hashes to one of two values; each further byte looks up one of
// twelve keys of one to four applications and, unless its top bit is
// set, stores a missed key under rates that name the step. Every lookup
// must return the model's rates, and the counts must match.
func FuzzMemo(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 0, 1, 2, 0})
	f.Add([]byte{1, 0, 1, 2, 3, 0, 129, 1, 4, 5, 0, 2, 6, 7, 3})
	f.Add([]byte{6, 3, 7, 3, 11, 7, 4, 0, 3, 140, 3, 9, 10, 11, 0, 1, 2})
	f.Add([]byte{7, 2, 5, 8, 11, 2, 5, 8, 11, 1, 4, 7, 10, 0, 3, 6, 9, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		records := 1 + int(data[0]%4)
		if data[0]&4 != 0 {
			collide(t, 2)
		}
		var space [12][]uint32
		for i := range space {
			phases := make([]int, 1+i%4)
			for j := range phases {
				phases[j] = i / 4
			}
			space[i] = key(i%3, phases...)
		}
		m := New(records)
		ref := refMemo{records: records, hot: map[string][]Rate{}, cold: map[string][]Rate{}}
		for step, b := range data[1:] {
			k := space[int(b&0x7f)%len(space)]
			got, ok := m.Lookup(k)
			want, wantOK := ref.lookup(k)
			if ok != wantOK || !slices.Equal(got, want) {
				t.Fatalf("step %d, key %v: %v %v, want %v %v", step, k, got, ok, want, wantOK)
			}
			if ok || b&0x80 != 0 {
				continue
			}
			v := make([]Rate, len(k)/keyWords)
			for i := range v {
				v[i] = Rate{IPC: float64(step), MPKC: float64(i), StallFrac: float64(b), Share: uint64(step * i)}
			}
			copy(m.Store(k), v)
			ref.store(k, v)
		}
		if h, ms := m.Counts(); h != ref.hits || ms != ref.misses {
			t.Fatalf("%d hits and %d misses, want %d and %d", h, ms, ref.hits, ref.misses)
		}
	})
}

// missThenStore looks up a key never seen before and stores it, as the
// kernel does on a miss; it advances the key.
func missThenStore(tb testing.TB, m *Memo, k []uint32) {
	k[1]++
	if _, ok := m.Lookup(k); ok {
		tb.Fatalf("key %v hit before it was stored", k)
	}
	m.Store(k)[0].Share = uint64(k[1])
}

func TestMemoSteadyStateAllocFree(t *testing.T) {
	m := New(Records)
	k := key(0, 0, 1, 2, 3)
	// Warm up: fill both generations, so each owns its chunks and index.
	for i := 0; i < 2*Records+1; i++ {
		missThenStore(t, &m, k)
	}
	if n := testing.AllocsPerRun(3*Records, func() { missThenStore(t, &m, k) }); n != 0 {
		t.Errorf("a miss and its store allocate %.2f times after warm-up", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		if _, ok := m.Lookup(k); !ok {
			t.Fatal("the last key stored missed")
		}
	}); n != 0 {
		t.Errorf("a hit allocates %.2f times", n)
	}
}

// BenchmarkMemo times a hit on a four-application key and a miss
// followed by its store, after a warm-up that fills both generations.
func BenchmarkMemo(b *testing.B) {
	b.Run("hit", func(b *testing.B) {
		m := New(Records)
		k := key(0, 0, 1, 2, 3)
		missThenStore(b, &m, k)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, ok := m.Lookup(k); !ok {
				b.Fatal("miss")
			}
		}
	})
	b.Run("miss", func(b *testing.B) {
		m := New(Records)
		k := key(0, 0, 1, 2, 3)
		for i := 0; i < 2*Records+1; i++ {
			missThenStore(b, &m, k)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			missThenStore(b, &m, k)
		}
	})
}
