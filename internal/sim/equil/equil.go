// Package equil memoizes the simulation kernel's contention-model fixed
// points. A fixed point is a pure function of the active applications'
// slots, phases and way masks, and restarted applications and a policy
// cycling through a few plans revisit the same configurations, so most
// re-evaluations become lookups here.
//
// A key is three words per active application, in slot order
// (AppendKey); a value is one Rate per application, in the same order.
// Both live in chunks that the memo owns and never moves or copies: once
// a generation's chunks exist, a miss allocates nothing and a hit builds
// nothing. An index from a deterministic 64-bit hash of the key to the
// newest record with that hash finds a record; colliding records chain
// and are told apart word by word.
//
// Eviction is a two-generation rotation. A lookup tries the hot
// generation, then the cold one, whose hits are promoted (copied) into
// the hot one. A store into a full hot generation first rotates: the hot
// generation becomes the cold one, and the old cold one is reset in
// place to become the new hot one. Only records untouched for a whole
// generation fall off, so unlike a wholesale clear, eviction never dumps
// the working set.
package equil

import (
	"fmt"
	"slices"
)

// Rate is one application's part of a memoized fixed point: the model
// outputs that the kernel's advancement reads, and the application's LLC
// share in bytes.
type Rate struct {
	IPC       float64
	MPKC      float64
	StallFrac float64
	Share     uint64
}

// Records is the capacity of one generation of the kernel's memo.
const Records = 4096

// keyWords is the number of key words per active application.
const keyWords = 3

// AppendKey appends one active application's part of a key to key: its
// slot, phase index and way mask. A key lists the active applications in
// slot order; the slot stands in for the application's spec, which never
// changes for a slot.
func AppendKey(key []uint32, slot, phase int, mask uint32) []uint32 {
	return append(key, uint32(slot), uint32(phase), mask)
}

// Memo is a two-generation fixed-point memo. The zero Memo stores
// nothing.
type Memo struct {
	records      int
	hot, cold    gen
	hits, misses uint64
}

// New returns a memo whose generations hold records fixed points each.
// With records 0 it stores nothing, and every lookup misses.
func New(records int) Memo {
	return Memo{records: records}
}

// Counts returns the number of lookups that hit and that missed.
func (m *Memo) Counts() (hits, misses uint64) {
	return m.hits, m.misses
}

// Lookup returns the rates memoized under key and counts a hit or a
// miss. A hit in the cold generation is promoted into the hot one. The
// rates belong to the memo and stay valid until its next Lookup or
// Store.
//
//lfoc:hotpath
func (m *Memo) Lookup(key []uint32) ([]Rate, bool) {
	h := hash(key)
	if r, ok := m.hot.find(h, key); ok {
		m.hits++
		return r, true
	}
	if r, ok := m.cold.find(h, key); ok {
		m.hits++
		return m.promote(h, key, r), true
	}
	m.misses++
	return nil, false
}

// Store memoizes a fixed point under key, which has just missed. It
// returns the new record's rates, one per application in key order, for
// the caller to fill in before the memo's next Lookup or Store. A memo
// without capacity stores nothing and returns nil.
//
//lfoc:hotpath
func (m *Memo) Store(key []uint32) []Rate {
	if m.records <= 0 {
		return nil
	}
	return m.put(hash(key), key)
}

// promote copies a cold record's rates into a new hot record. If put
// rotates, the rates lie in the generation it has just reset; the new
// record starts at the beginning of a chunk, at or before them in
// memory, and copy moves overlapping slices correctly.
//
//lfoc:hotpath
func (m *Memo) promote(h uint64, key []uint32, rates []Rate) []Rate {
	dst := m.put(h, key)
	copy(dst, rates)
	return dst
}

// put appends a record for key to the hot generation, rotating first
// when the hot generation is full, and returns the record's rates.
//
//lfoc:hotpath
func (m *Memo) put(h uint64, key []uint32) []Rate {
	if m.hot.n >= m.records {
		m.hot, m.cold = m.cold, m.hot
		m.hot.reset()
	}
	return m.hot.add(h, key)
}

// hash is the index hash. Tests swap in colliding ones; nothing else
// assigns it.
var hash = hashWords

// hashWords is 64-bit FNV-1a over whole words. It is deterministic,
// unlike hash/maphash, whose seed changes per process, so the chains a
// run builds are the same in every process.
func hashWords(key []uint32) uint64 {
	h := uint64(14695981039346656037)
	for _, w := range key {
		h ^= uint64(w)
		h *= 1099511628211
	}
	return h
}

// gen is one generation: records laid out in chunks, and an index from
// key hash to the newest record with that hash.
type gen struct {
	index  map[uint64]ref
	chunks []chunk
	cur    int // the chunk that records are appended to
	n      int // records since the last reset
}

// chunk holds whole records. For each record, words holds a header of
// hdrWords words (the application count, the next record in the hash
// chain and the offset of the record's rates) followed by the key, and
// rates holds one Rate per application.
type chunk struct {
	words []uint32
	rates []Rate
}

// ref locates a record: its chunk in the top bits, the offset of its
// header in the chunk's words in the low offBits bits.
type ref uint32

const (
	hdrWords = 3
	offBits  = 24
	offMask  = 1<<offBits - 1
	// noRef ends a hash chain. It names chunk maxChunks, which never
	// exists.
	noRef     = ^ref(0)
	maxChunks = int(noRef >> offBits)
	// firstRecords is how many records of the first stored record's
	// size the first chunk holds; every later chunk doubles.
	firstRecords = 8
)

// find returns the rates of the record stored under key, if any.
//
//lfoc:hotpath
func (g *gen) find(h uint64, key []uint32) ([]Rate, bool) {
	r, ok := g.index[h]
	for ok {
		c := &g.chunks[r>>offBits]
		w := c.words[r&offMask:]
		if n := int(w[0]); n*keyWords == len(key) && slices.Equal(w[hdrWords:hdrWords+len(key)], key) {
			at := int(w[2])
			return c.rates[at : at+n : at+n], true
		}
		r = ref(w[1])
		ok = r != noRef
	}
	return nil, false
}

// add appends a record for key and returns its rates.
//
//lfoc:hotpath
func (g *gen) add(h uint64, key []uint32) []Rate {
	n := len(key) / keyWords
	c := g.room(hdrWords+len(key), n)
	next, ok := g.index[h]
	if !ok {
		next = noRef
	}
	at := len(c.rates)
	g.index[h] = ref(g.cur<<offBits | len(c.words))
	c.words = append(c.words, uint32(n), uint32(next), uint32(at))
	c.words = append(c.words, key...)
	c.rates = c.rates[:at+n]
	g.n++
	return c.rates[at : at+n : at+n]
}

// room returns the chunk that a record of the given size goes to: the
// current chunk or a later one with space for it, or a new one.
//
//lfoc:hotpath
func (g *gen) room(words, rates int) *chunk {
	for ; g.cur < len(g.chunks); g.cur++ {
		c := &g.chunks[g.cur]
		if len(c.words)+words <= cap(c.words) && len(c.rates)+rates <= cap(c.rates) {
			return c
		}
	}
	g.grow(words, rates)
	return &g.chunks[g.cur]
}

// grow appends an empty chunk with space for at least one record of the
// given size, creating the index on the generation's first record. Its
// allocations and the index's growth on insert are the memo's only
// ones, and both stop once a generation has held as many records as it
// will: the first chunk holds firstRecords records of the first
// record's size, and each later chunk doubles its predecessor, up to
// the largest offset a ref holds.
func (g *gen) grow(words, rates int) {
	if words > offMask+1 || len(g.chunks) == maxChunks {
		panic(fmt.Sprintf("equil: no chunk for a %d-word record after %d chunks", words, len(g.chunks)))
	}
	if g.index == nil {
		g.index = make(map[uint64]ref)
	}
	nw, nr := firstRecords*words, firstRecords*rates
	if k := len(g.chunks); k > 0 {
		nw = max(2*cap(g.chunks[k-1].words), words)
		nr = max(2*cap(g.chunks[k-1].rates), rates)
	}
	g.chunks = append(g.chunks, chunk{
		words: make([]uint32, 0, min(nw, offMask+1)),
		rates: make([]Rate, 0, nr),
	})
}

// reset empties the generation in place: its chunks and its index keep
// their storage for the records that follow.
func (g *gen) reset() {
	clear(g.index)
	for i := range g.chunks {
		g.chunks[i].words = g.chunks[i].words[:0]
		g.chunks[i].rates = g.chunks[i].rates[:0]
	}
	g.cur, g.n = 0, 0
}
