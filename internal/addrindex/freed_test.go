package addrindex

import (
	"math/rand"
	"testing"
)

// TestFreedMatchesMap drives a table through random Inserts, Removes
// (hits and misses) and Resets and checks Freed on every tracked base
// against a map-based model after each step: Remove marks a base freed,
// Insert unmarks it, a missed Remove changes nothing, and Reset forgets
// everything. The bases straddle chunk boundaries (so bits sit in the
// first and last words of a chunk's bitmap), include unaligned bases
// (the side map) and huge ranges whose base chunk holds no line refs.
func TestFreedMatchesMap(t *testing.T) {
	const chunkBytes = chunkPages * pageSize
	type slot struct{ base, size uint64 }
	var slots []slot
	for k := uint64(1); k <= 3; k++ {
		edge := k * chunkBytes
		for _, d := range []int64{-16, -8, 0, 8, 16} { // aligned, 8 bytes apart
			slots = append(slots, slot{uint64(int64(edge) + d), uint64(k%2) * 8})
		}
		for j := uint64(0); j < 4; j++ {
			// An unaligned base and an aligned one in the same 8-byte
			// word: their freed marks must stay apart.
			w := edge + 1024 + 32*j
			slots = append(slots, slot{w, 3}, slot{w + 3, 16})
		}
	}
	for j := uint64(0); j < 3; j++ { // huge: each base in a chunk of its own
		slots = append(slots, slot{1<<40 + j*(32<<20), (maxSpanPages + 1) * pageSize})
	}

	rng := rand.New(rand.NewSource(3))
	tb := New[int]()
	live := make(map[uint64]bool)
	freed := make(map[uint64]struct{})
	check := func(step int, what string) {
		t.Helper()
		for _, s := range slots {
			_, want := freed[s.base]
			if got := tb.Freed(s.base); got != want {
				t.Fatalf("step %d (%s): Freed(%#x) = %v, want %v", step, what, s.base, got, want)
			}
		}
		if tb.Freed(5*chunkBytes) || tb.Freed(5*chunkBytes+3) {
			t.Fatalf("step %d (%s): untouched base reported freed", step, what)
		}
	}
	resets := 0
	for step := 0; step < 20000; step++ {
		s := slots[rng.Intn(len(slots))]
		what := ""
		switch r := rng.Intn(100); {
		case r < 45:
			if live[s.base] {
				continue
			}
			what = "insert"
			tb.Insert(s.base, s.size, step)
			live[s.base] = true
			delete(freed, s.base)
		case r < 99:
			what = "remove"
			_, ok := tb.Remove(s.base)
			if ok != live[s.base] {
				t.Fatalf("step %d: Remove(%#x) = %v, want %v", step, s.base, ok, live[s.base])
			}
			if ok {
				delete(live, s.base)
				freed[s.base] = struct{}{}
			}
		default:
			what = "reset"
			tb.Reset()
			clear(live)
			clear(freed)
			resets++
		}
		check(step, what)
	}
	if resets == 0 {
		t.Fatal("no Reset exercised")
	}
}
