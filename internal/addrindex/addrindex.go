// Package addrindex provides the execution logger's O(1) address
// resolution structure: a line-indexed object table in the style of
// tcmalloc's pagemap and the Go runtime's span index.
//
// The logger resolves two addresses per observed pointer store (the
// written slot and the stored value), so address resolution dominates
// the per-event hot path. The treap behind intervals.Map answers the
// same queries in O(log n) pointer-chasing steps through GC-scanned
// nodes; this table answers them with a couple of array indexes:
//
//	addr ──▶ chunk directory ──▶ line ref list ──▶ object record
//	         (hash, cached)      (array index)     (arena slot)
//
// Layout. The address space is cut into 128-byte lines (the pagemap's
// "pages"; PageShift = 7) and lines are grouped into 512-line (64 KiB)
// chunks. A chunk holds, per line, the list of object records whose
// [base, base+size) range intersects that line, sorted by base. The
// line is small on purpose: heap objects are mostly 16–48 bytes, and a
// 4 KiB page's list held over a hundred of them, so every uncached
// stab paid a long binary search and every insert or remove a long
// copy; a 128-byte line's list holds a handful. Object records
// themselves live in a flat arena slice with freelist recycling, so
// steady-state alloc/free traffic performs no heap allocation at all.
// Two small caches make the common cases pure array work: a last-hit
// cache (store bursts into one object resolve with one comparison) and
// a last-chunk cache (locality across objects skips the chunk
// directory hash).
//
// Objects spanning more than maxSpanPages lines (8 MiB) would make
// per-line registration arbitrarily expensive (a malformed trace can
// claim a 2^63-byte allocation), so such ranges go to a small linear
// side list instead — semantics are identical, and well-formed
// workloads never hit it.
//
// The table also remembers which bases were freed: Remove sets a
// base's bit in a per-chunk bitmap (one bit per 8-byte-aligned base)
// and Insert clears it, so Freed tells a double free (a base that was
// live and is not again) from a wild free (a base that never was). A
// small map holds the bits of unaligned bases, which only damaged
// traces and odd allocators produce. Keying by base alone makes a
// realloc, a Remove followed by an Insert, leave exactly the old base
// freed when the block moved and nothing freed when it stayed.
//
// A table is reusable: Reset empties it but keeps its arena, chunk
// directory and ref-list capacity (up to a cap), so a logger replaying
// trace after trace stops re-growing them from zero.
//
// Semantics match intervals.Map exactly (the treap remains the test
// oracle): ranges are half-open, interior addresses resolve to their
// containing range, a stab at base+size misses, and zero-size ranges
// are Get/Remove-able but transparent to Stab.
package addrindex

import "sort"

const (
	// PageShift selects the 128-byte line granularity of the index.
	PageShift = 7
	pageSize  = 1 << PageShift

	// chunkShift groups 512 lines (64 KiB of address space) per chunk.
	chunkShift = 9
	chunkPages = 1 << chunkShift

	// chunkBases is the number of 8-byte-aligned bases in one chunk,
	// each with one bit of the chunk's freed bitmap.
	chunkBases = chunkPages * pageSize / 8

	// maxSpanPages bounds per-line registration work for one object;
	// larger ranges are kept in the linear huge list.
	maxSpanPages = 1 << 16 // 8 MiB

	// Reset keeps at most this many chunks (12 KiB of ref-list headers
	// and a 1 KiB freed bitmap each, 16 MiB of address space in all)
	// and this many arena entries; a table that grew past either
	// bound — a damaged trace scattering wild addresses, an outsized
	// heap — drops that storage instead of pinning it for the next
	// user. The bundled programs' heaps fit in two chunks and 2,000
	// entries.
	maxRetainedChunks = 1 << 8
	maxRetainedArena  = 1 << 15

	noEntry = int32(-1)
)

// entry is one object record in the arena.
type entry[V any] struct {
	base  uint64
	size  uint64
	value V
	live  bool
}

// chunk holds the per-line object ref lists for one 64 KiB address
// range. refs[i] lists arena indices of every live object whose range
// intersects line i, sorted by base. A line holds a handful of objects
// at most, so the lists stay in the small-slice regime. freed holds
// one bit per 8-byte-aligned base in the range (see Freed).
type chunk struct {
	refs  [chunkPages][]int32
	freed [chunkBases / 64]uint64
}

// Table maps disjoint [base, base+size) ranges to values of type V
// with O(1) expected stabbing queries. The zero Table is not ready to
// use; call New. A Table is single-goroutine, like the logger that
// owns it.
type Table[V any] struct {
	chunks map[uint64]*chunk
	arena  []entry[V]
	free   []int32
	huge   []int32 // arena indices of ranges wider than maxSpanPages
	n      int

	// oddFreed holds the freed bases that are not 8-byte aligned and
	// so have no bit in a chunk's bitmap; nil until one is freed.
	oddFreed map[uint64]struct{}

	// lastHits caches the arena indices of recent successful Stabs
	// (noEntry when empty), most recent first. Two entries, because
	// the logger stabs two addresses per store — the written slot and
	// the stored value — and a single entry would thrash between them.
	lastHits  [2]int32
	lastChunk *chunk // chunk of the last directory lookup
	lastKey   uint64
}

// New returns an empty table.
func New[V any]() *Table[V] {
	return &Table[V]{chunks: make(map[uint64]*chunk), lastHits: [2]int32{noEntry, noEntry}}
}

// Reset empties the table. A reset table behaves exactly like a new
// one (arena indices are handed out from zero again) but keeps its
// arena, freelist, chunk directory and ref-list capacity for reuse,
// unless it grew past maxRetainedChunks or maxRetainedArena.
func (t *Table[V]) Reset() {
	if len(t.chunks) > maxRetainedChunks {
		t.chunks = make(map[uint64]*chunk)
	} else {
		for _, c := range t.chunks {
			for i := range c.refs {
				c.refs[i] = c.refs[i][:0]
			}
			c.freed = [chunkBases / 64]uint64{}
		}
	}
	t.oddFreed = nil // rare enough not to pool
	if cap(t.arena) > maxRetainedArena {
		t.arena, t.free = nil, nil
	} else {
		clear(t.arena) // release the values' references
		t.arena, t.free = t.arena[:0], t.free[:0]
	}
	t.huge = t.huge[:0]
	t.n = 0
	t.lastHits = [2]int32{noEntry, noEntry}
	t.lastChunk, t.lastKey = nil, 0
}

// Len returns the number of live ranges.
func (t *Table[V]) Len() int { return t.n }

// chunkFor returns the chunk covering line page, creating it if needed.
func (t *Table[V]) chunkFor(page uint64) *chunk {
	key := page >> chunkShift
	if t.lastChunk != nil && t.lastKey == key {
		return t.lastChunk
	}
	c := t.chunks[key]
	if c == nil {
		c = new(chunk)
		t.chunks[key] = c
	}
	t.lastKey, t.lastChunk = key, c
	return c
}

// lookupChunk returns the chunk covering line page without creating it.
func (t *Table[V]) lookupChunk(page uint64) *chunk {
	key := page >> chunkShift
	if t.lastChunk != nil && t.lastKey == key {
		return t.lastChunk
	}
	c := t.chunks[key]
	if c != nil {
		t.lastKey, t.lastChunk = key, c
	}
	return c
}

// pageRange returns the inclusive line span of [base, base+size),
// clamping the degenerate and wrapping cases: a zero-size range
// occupies only its base line (for Get/Remove reachability), and a
// range whose end wraps past the top of the address space is clamped
// to the last line.
func pageRange(base, size uint64) (first, last uint64) {
	first = base >> PageShift
	if size == 0 {
		return first, first
	}
	end := base + size - 1
	if end < base { // wrapped
		end = ^uint64(0)
	}
	return first, end >> PageShift
}

// isHuge reports whether a range spanning lines first..last of the
// given size belongs on the huge list.
func isHuge(first, last, size uint64) bool {
	return size > 0 && last-first+1 > maxSpanPages
}

// insertRef adds arena index i into the sorted ref list of one line.
func (t *Table[V]) insertRef(refs []int32, i int32, base uint64) []int32 {
	pos := t.searchBase(refs, base)
	refs = append(refs, 0)
	copy(refs[pos+1:], refs[pos:])
	refs[pos] = i
	return refs
}

// removeRef deletes arena index i from one line's ref list.
func removeRef(refs []int32, i int32) []int32 {
	for k, r := range refs {
		if r == i {
			copy(refs[k:], refs[k+1:])
			return refs[:len(refs)-1]
		}
	}
	return refs
}

// freedBit returns the word and mask of aligned base's bit in its
// chunk's freed bitmap.
func freedBit(base uint64) (word int, mask uint64) {
	i := (base >> 3) & (chunkBases - 1)
	return int(i >> 6), 1 << (i & 63)
}

// setFreed records base as freed. An aligned base's chunk is created
// if need be: a huge range registers no line, so its base chunk may
// not exist yet.
func (t *Table[V]) setFreed(base uint64) {
	if base&7 != 0 {
		if t.oddFreed == nil {
			t.oddFreed = make(map[uint64]struct{})
		}
		t.oddFreed[base] = struct{}{}
		return
	}
	w, m := freedBit(base)
	t.chunkFor(base >> PageShift).freed[w] |= m
}

// clearFreed forgets that base was freed.
func (t *Table[V]) clearFreed(base uint64) {
	if base&7 != 0 {
		delete(t.oddFreed, base)
		return
	}
	if c := t.lookupChunk(base >> PageShift); c != nil {
		w, m := freedBit(base)
		c.freed[w] &^= m
	}
}

// Freed reports whether a range based at base was removed and no range
// has been inserted at base since (nor has the table been Reset).
func (t *Table[V]) Freed(base uint64) bool {
	if base&7 != 0 {
		_, ok := t.oddFreed[base]
		return ok
	}
	c := t.lookupChunk(base >> PageShift)
	if c == nil {
		return false
	}
	w, m := freedBit(base)
	return c.freed[w]&m != 0
}

// Insert adds the range [base, base+size) with the given value and
// clears base's freed mark. The caller must guarantee the range does
// not overlap an existing one; allocators never hand out overlapping
// live ranges. The returned pointer refers to the stored value and
// remains valid until the next Insert or Remove on the table.
func (t *Table[V]) Insert(base, size uint64, value V) *V {
	var i int32
	if k := len(t.free); k > 0 {
		i = t.free[k-1]
		t.free = t.free[:k-1]
		t.arena[i] = entry[V]{base: base, size: size, value: value, live: true}
	} else {
		i = int32(len(t.arena))
		t.arena = append(t.arena, entry[V]{base: base, size: size, value: value, live: true})
	}
	t.clearFreed(base)
	first, last := pageRange(base, size)
	if isHuge(first, last, size) {
		t.huge = append(t.huge, i)
	} else {
		for p := first; ; p++ {
			c := t.chunkFor(p)
			pi := p & (chunkPages - 1)
			c.refs[pi] = t.insertRef(c.refs[pi], i, base)
			if p == last {
				break
			}
		}
	}
	t.n++
	return &t.arena[i].value
}

// searchBase returns the position of the first entry of a sorted ref
// list whose base is >= base. The binary search is hand rolled: a
// sort.Search closure is measurable on the event hot path.
func (t *Table[V]) searchBase(refs []int32, base uint64) int {
	lo, hi := 0, len(refs)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if t.arena[refs[mid]].base >= base {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// findExact returns the arena index of the range based exactly at
// base, or noEntry.
func (t *Table[V]) findExact(base uint64) int32 {
	c := t.lookupChunk(base >> PageShift)
	if c != nil {
		refs := c.refs[(base>>PageShift)&(chunkPages-1)]
		lo := t.searchBase(refs, base)
		if lo < len(refs) && t.arena[refs[lo]].base == base {
			return refs[lo]
		}
	}
	for _, i := range t.huge {
		if t.arena[i].base == base {
			return i
		}
	}
	return noEntry
}

// Get returns a pointer to the value of the range based exactly at
// base, or nil. The pointer remains valid until the next Insert or
// Remove.
func (t *Table[V]) Get(base uint64) *V {
	i := t.findExact(base)
	if i == noEntry {
		return nil
	}
	return &t.arena[i].value
}

// Remove deletes the range based exactly at base and marks base freed,
// returning its value and whether an entry was removed. A miss changes
// nothing.
func (t *Table[V]) Remove(base uint64) (V, bool) {
	i := t.findExact(base)
	if i == noEntry {
		var zero V
		return zero, false
	}
	t.setFreed(base)
	e := &t.arena[i]
	first, last := pageRange(e.base, e.size)
	if isHuge(first, last, e.size) {
		t.huge = removeRef(t.huge, i)
	} else {
		for p := first; ; p++ {
			c := t.lookupChunk(p)
			if c != nil {
				pi := p & (chunkPages - 1)
				c.refs[pi] = removeRef(c.refs[pi], i)
			}
			if p == last {
				break
			}
		}
	}
	v := e.value
	var zero V
	e.value = zero // release references held by the recycled slot
	e.live = false
	e.size = 0
	t.free = append(t.free, i)
	t.n--
	if t.lastHits[0] == i {
		t.lastHits[0] = noEntry
	}
	if t.lastHits[1] == i {
		t.lastHits[1] = noEntry
	}
	return v, true
}

// remember records arena index i as the most recent Stab hit.
func (t *Table[V]) remember(i int32) {
	if t.lastHits[0] != i {
		t.lastHits[1] = t.lastHits[0]
		t.lastHits[0] = i
	}
}

// Stab returns the base, size and value of the range containing addr.
// Interior addresses resolve to their containing range. The semantics
// are identical to intervals.Map.Stab: half-open ranges, zero-size
// ranges transparent. The value pointer remains valid until the next
// Insert or Remove.
func (t *Table[V]) Stab(addr uint64) (base, size uint64, value *V, ok bool) {
	// Last-hit cache: consecutive stores into one object resolve with
	// a single comparison. addr-e.base underflows to a huge value when
	// addr < base, so one unsigned comparison checks both bounds.
	for k, i := range t.lastHits {
		if i == noEntry {
			continue
		}
		e := &t.arena[i]
		if addr-e.base < e.size {
			if k != 0 {
				t.remember(i)
			}
			return e.base, e.size, &e.value, true
		}
	}
	c := t.lookupChunk(addr >> PageShift)
	if c != nil {
		refs := c.refs[(addr>>PageShift)&(chunkPages-1)]
		// The candidate is the entry with the largest base <= addr.
		// Walking back over non-containing predecessors (instead of
		// testing only the immediate one) makes zero-size entries
		// transparent — they are registered on their base line for
		// Get/Remove but always fail the containment check — and keeps
		// the search robust when a damaged trace registers
		// overlapping ranges. The binary search (first base > addr) is
		// hand rolled: this is the hottest loop in the logger, and the
		// sort.Search closure calls are measurable here.
		lo, hi := 0, len(refs)
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if t.arena[refs[mid]].base > addr {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		for pos := lo - 1; pos >= 0; pos-- {
			e := &t.arena[refs[pos]]
			if addr-e.base < e.size {
				t.remember(refs[pos])
				return e.base, e.size, &e.value, true
			}
		}
	}
	for _, i := range t.huge {
		e := &t.arena[i]
		if addr-e.base < e.size {
			t.remember(i)
			return e.base, e.size, &e.value, true
		}
	}
	return 0, 0, nil, false
}

// Walk visits every live range in ascending base order; iteration
// stops if fn returns false. fn must not mutate the table. Walk sorts
// an index of the arena per call — it exists for tests and
// diagnostics, not the hot path.
func (t *Table[V]) Walk(fn func(base, size uint64, value *V) bool) {
	idx := make([]int32, 0, t.n)
	for i := range t.arena {
		if t.arena[i].live {
			idx = append(idx, int32(i))
		}
	}
	sort.Slice(idx, func(a, b int) bool {
		return t.arena[idx[a]].base < t.arena[idx[b]].base
	})
	for _, i := range idx {
		e := &t.arena[i]
		if !fn(e.base, e.size, &e.value) {
			return
		}
	}
}
