package intervals

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestInsertGetRemove(t *testing.T) {
	m := New[string]()
	m.Insert(100, 24, "a")
	m.Insert(200, 8, "b")
	if m.Len() != 2 {
		t.Fatalf("Len = %d, want 2", m.Len())
	}
	if v, ok := m.Get(100); !ok || v != "a" {
		t.Errorf("Get(100) = (%q,%v)", v, ok)
	}
	if _, ok := m.Get(101); ok {
		t.Error("Get of interior address should fail")
	}
	if !m.Remove(100) {
		t.Error("Remove(100) failed")
	}
	if m.Remove(100) {
		t.Error("second Remove(100) should fail")
	}
	if m.Len() != 1 {
		t.Errorf("Len = %d, want 1", m.Len())
	}
}

func TestStab(t *testing.T) {
	m := New[int]()
	m.Insert(100, 24, 1)
	m.Insert(200, 8, 2)

	base, size, v, ok := m.Stab(116)
	if !ok || base != 100 || size != 24 || v != 1 {
		t.Errorf("Stab(116) = (%d,%d,%d,%v)", base, size, v, ok)
	}
	if _, _, _, ok := m.Stab(124); ok {
		t.Error("Stab one-past-end should miss")
	}
	if _, _, _, ok := m.Stab(50); ok {
		t.Error("Stab below all ranges should miss")
	}
	if _, _, _, ok := m.Stab(150); ok {
		t.Error("Stab in gap should miss")
	}
	if base, _, v, ok := m.Stab(200); !ok || base != 200 || v != 2 {
		t.Error("Stab at exact base should hit")
	}
}

func TestStabEmpty(t *testing.T) {
	m := New[int]()
	if _, _, _, ok := m.Stab(0); ok {
		t.Error("Stab on empty map should miss")
	}
}

func TestWalkOrderedAndEarlyStop(t *testing.T) {
	m := New[int]()
	rng := rand.New(rand.NewSource(7))
	want := map[uint64]bool{}
	for i := 0; i < 500; i++ {
		k := uint64(rng.Intn(100000)) * 8
		if !want[k] {
			m.Insert(k, 8, i)
			want[k] = true
		}
	}
	var got []uint64
	m.Walk(func(base, size uint64, _ int) bool {
		got = append(got, base)
		return true
	})
	if len(got) != len(want) {
		t.Fatalf("walk visited %d, want %d", len(got), len(want))
	}
	if !sort.SliceIsSorted(got, func(a, b int) bool { return got[a] < got[b] }) {
		t.Error("walk order not ascending")
	}
	n := 0
	m.Walk(func(uint64, uint64, int) bool { n++; return n < 3 })
	if n != 3 {
		t.Errorf("early-stop walk visited %d, want 3", n)
	}
}

func checkBST[V any](n *node[V], lo, hi uint64) bool {
	if n == nil {
		return true
	}
	if n.base < lo || n.base > hi {
		return false
	}
	return checkBST(n.left, lo, n.base-1) && checkBST(n.right, n.base+1, hi)
}

func checkHeap[V any](n *node[V]) bool {
	if n == nil {
		return true
	}
	if n.left != nil && n.left.priority > n.priority {
		return false
	}
	if n.right != nil && n.right.priority > n.priority {
		return false
	}
	return checkHeap(n.left) && checkHeap(n.right)
}

// TestTreapInvariants drives randomized inserts and removals, checking
// the BST key order and the max-heap priority order after every
// mutation. Regression: an argument swap in merge once broke the BST
// invariant only under particular removal sequences.
func TestTreapInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	m := New[int]()
	present := map[uint64]bool{}
	const maxKey = ^uint64(0)
	for i := 0; i < 3000; i++ {
		if rng.Intn(2) == 0 || len(present) == 0 {
			k := uint64(rng.Intn(400)) * 8
			if present[k] {
				continue
			}
			m.Insert(k, 8, i)
			present[k] = true
		} else {
			keys := make([]uint64, 0, len(present))
			for k := range present {
				keys = append(keys, k)
			}
			sort.Slice(keys, func(a, b int) bool { return keys[a] < keys[b] })
			k := keys[rng.Intn(len(keys))]
			if !m.Remove(k) {
				t.Fatalf("iter %d: Remove(%d) failed", i, k)
			}
			delete(present, k)
		}
		if !checkBST(m.root, 0, maxKey) {
			t.Fatalf("iter %d: BST invariant broken", i)
		}
		if !checkHeap(m.root) {
			t.Fatalf("iter %d: heap invariant broken", i)
		}
		if m.Len() != len(present) {
			t.Fatalf("iter %d: Len %d, want %d", i, m.Len(), len(present))
		}
	}
}

// TestStabMatchesBruteForce cross-checks stabbing queries against a
// linear scan on randomized disjoint ranges.
func TestStabMatchesBruteForce(t *testing.T) {
	f := func(sizes []uint8, probes []uint16) bool {
		m := New[int]()
		type rng struct{ base, size uint64 }
		var ranges []rng
		next := uint64(0)
		for i, sz := range sizes {
			size := uint64(sz%64) + 8
			gap := uint64(sz % 3 * 8) // leave occasional gaps
			base := next + gap
			next = base + size
			m.Insert(base, size, i)
			ranges = append(ranges, rng{base, size})
		}
		for _, p := range probes {
			addr := uint64(p) * 4
			base, _, _, ok := m.Stab(addr)
			var wantBase uint64
			var wantOK bool
			for _, r := range ranges {
				if addr >= r.base && addr < r.base+r.size {
					wantBase, wantOK = r.base, true
					break
				}
			}
			if ok != wantOK || (ok && base != wantBase) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestStabEdgeCases is the table that locks the half-open interval
// semantics both this treap and the addrindex pagemap must implement:
// a stab at exactly base+size misses, zero-size ranges can never be
// stabbed, and a zero-size range based inside another range does not
// shadow the enclosing range. Any replacement address-resolution
// structure is oracle-tested against this exact behaviour.
func TestStabEdgeCases(t *testing.T) {
	type rng struct {
		base, size uint64
		val        int
	}
	type probe struct {
		addr     uint64
		wantBase uint64
		wantOK   bool
	}
	cases := []struct {
		name   string
		ranges []rng
		probes []probe
	}{
		{
			name:   "half-open end",
			ranges: []rng{{base: 100, size: 24, val: 1}},
			probes: []probe{
				{addr: 100, wantBase: 100, wantOK: true}, // first byte
				{addr: 123, wantBase: 100, wantOK: true}, // last byte
				{addr: 124, wantOK: false},               // exactly base+size
				{addr: 125, wantOK: false},               // past the end
				{addr: 99, wantOK: false},                // just below base
			},
		},
		{
			name:   "adjacent ranges share no address",
			ranges: []rng{{base: 64, size: 32, val: 1}, {base: 96, size: 32, val: 2}},
			probes: []probe{
				{addr: 95, wantBase: 64, wantOK: true},
				{addr: 96, wantBase: 96, wantOK: true}, // base+size of the first IS the second's base
				{addr: 127, wantBase: 96, wantOK: true},
				{addr: 128, wantOK: false},
			},
		},
		{
			name:   "zero-size range is never stabbed",
			ranges: []rng{{base: 200, size: 0, val: 1}},
			probes: []probe{
				{addr: 200, wantOK: false},
				{addr: 199, wantOK: false},
				{addr: 201, wantOK: false},
			},
		},
		{
			name: "zero-size range does not shadow its container",
			// [100,164) contains a degenerate [128,128). Stabs at and
			// after 128 must still resolve to the container.
			ranges: []rng{{base: 100, size: 64, val: 1}, {base: 128, size: 0, val: 2}},
			probes: []probe{
				{addr: 127, wantBase: 100, wantOK: true},
				{addr: 128, wantBase: 100, wantOK: true}, // the shadowing case
				{addr: 163, wantBase: 100, wantOK: true},
				{addr: 164, wantOK: false},
			},
		},
		{
			name: "zero-size range between neighbours",
			ranges: []rng{
				{base: 0, size: 16, val: 1},
				{base: 16, size: 0, val: 2},
				{base: 32, size: 16, val: 3},
			},
			probes: []probe{
				{addr: 15, wantBase: 0, wantOK: true},
				{addr: 16, wantOK: false}, // past range 1, inside nothing
				{addr: 31, wantOK: false},
				{addr: 32, wantBase: 32, wantOK: true},
			},
		},
		{
			name:   "range ending at the top of the address space",
			ranges: []rng{{base: ^uint64(0) - 15, size: 16, val: 1}},
			probes: []probe{
				{addr: ^uint64(0) - 16, wantOK: false},
				{addr: ^uint64(0) - 15, wantBase: ^uint64(0) - 15, wantOK: true},
				{addr: ^uint64(0), wantBase: ^uint64(0) - 15, wantOK: true},
				{addr: 0, wantOK: false}, // base+size wraps to 0; no false hit
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := New[int]()
			for _, r := range tc.ranges {
				m.Insert(r.base, r.size, r.val)
			}
			for _, p := range tc.probes {
				base, _, _, ok := m.Stab(p.addr)
				if ok != p.wantOK || (ok && base != p.wantBase) {
					t.Errorf("Stab(%#x) = (base=%#x, ok=%v), want (base=%#x, ok=%v)",
						p.addr, base, ok, p.wantBase, p.wantOK)
				}
			}
			// Zero-size entries stay reachable by exact-base Get/Remove.
			for _, r := range tc.ranges {
				if v, ok := m.Get(r.base); !ok || v != r.val {
					t.Errorf("Get(%#x) = (%d,%v), want (%d,true)", r.base, v, ok, r.val)
				}
			}
		})
	}
}

func BenchmarkInsertRemove(b *testing.B) {
	m := New[int]()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := uint64(i%10000) * 64
		m.Insert(k, 64, i)
		m.Remove(k)
	}
}

func BenchmarkStab(b *testing.B) {
	m := New[int]()
	for i := 0; i < 100000; i++ {
		m.Insert(uint64(i)*64, 48, i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Stab(uint64(i%100000)*64 + 16)
	}
}
