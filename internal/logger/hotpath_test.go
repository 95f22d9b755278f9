package logger

import (
	"testing"

	"heapmd/internal/event"
)

// TestStoreHotPathAllocs is the allocation budget for the per-event
// hot path, enforced in CI: a steady-state batch of one free, one
// re-allocation at the same address and six pointer stores must
// average at most two heap allocations — and with the arena-backed
// address table, inline slot tables and inline adjacency it actually
// averages zero. A regression here means some per-event structure
// went back to allocating (a map, a spilled slot table, a treap
// node), which is exactly what this PR removed.
func TestStoreHotPathAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates on the hot path")
	}
	const n = 4096
	l := New(Options{Frequency: 1 << 62})
	addrs := make([]uint64, n)
	for i := range addrs {
		addr := uint64(0x100_0000_0000) + uint64(i)*64
		addrs[i] = addr
		l.Emit(event.Event{Type: event.Alloc, Addr: addr, Size: 64, Fn: 1})
	}
	// Warm up: visit every object once so one-time growth (spill maps,
	// page ref lists, arena capacity) happens before measurement.
	for i := 0; i < n*8; i++ {
		src := addrs[i&(n-1)]
		dst := addrs[(i*31+7)&(n-1)]
		l.Emit(event.Event{Type: event.Store, Addr: src + 8, Value: dst})
	}
	iter := 0
	avg := testing.AllocsPerRun(2000, func() {
		i := iter
		iter++
		k := (i * 17) & (n - 1)
		l.Emit(event.Event{Type: event.Free, Addr: addrs[k]})
		l.Emit(event.Event{Type: event.Alloc, Addr: addrs[k], Size: 64, Fn: 1})
		for j := 0; j < 6; j++ {
			src := addrs[(i*8+j)&(n-1)]
			dst := addrs[((i*8+j)*31+7)&(n-1)]
			l.Emit(event.Event{Type: event.Store, Addr: src + 8, Value: dst})
		}
	})
	if avg > 2 {
		t.Fatalf("store hot path allocates %.1f times per 8-event batch; budget is 2", avg)
	}
}

// storeBatches builds a settled object population followed by 63
// batches of pointer stores between its objects: the steady-state
// shape of the batched fast path.
func storeBatches(n int) [][]event.Event {
	addrs := make([]uint64, n)
	allocs := make([]event.Event, n)
	for i := range addrs {
		addrs[i] = uint64(0x100_0000_0000) + uint64(i)*1024
		allocs[i] = event.Event{Type: event.Alloc, Addr: addrs[i], Size: 512, Fn: 1}
	}
	batches := make([][]event.Event, 0, 64)
	batches = append(batches, allocs)
	for b := 0; b < 63; b++ {
		batch := make([]event.Event, DefaultBatchSize)
		for j := range batch {
			i := b*DefaultBatchSize + j
			src := addrs[(i*17)%n]
			dst := addrs[(i*31+7)%n]
			batch[j] = event.Event{Type: event.Store, Addr: src + uint64(i%64)*8, Value: dst}
		}
		batches = append(batches, batch)
	}
	return batches
}

// BenchmarkEmitBatch measures the batched fast path (settled
// population, pointer stores).
func BenchmarkEmitBatch(b *testing.B) {
	l := New(Options{Frequency: 1 << 62})
	batches := storeBatches(4096)
	l.EmitBatch(batches[0]) // population
	steady := batches[1:]
	perBatch := len(steady[0])
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.EmitBatch(steady[i%len(steady)])
	}
	b.SetBytes(int64(perBatch))
}

// allocFreeWorkload builds a settled population of n objects at the
// given granularity and returns it with a step function that emits
// one round of steady-state alloc/free traffic: a free and re-alloc at
// the same (recycled) base, a free and alloc at a fresh base, and
// every fourth round a double free and a wild free. A round is 4 or 6
// events; step reports how many it emitted.
func allocFreeWorkload(n int, gran Granularity) (*Logger, func(round int) int) {
	const size = 48
	l := New(Options{Frequency: 1 << 62, Granularity: gran})
	addrs := make([]uint64, n)
	next := uint64(0x100_0000_0000)
	fresh := func() uint64 {
		a := next
		next += 64
		return a
	}
	for i := range addrs {
		addrs[i] = fresh()
		l.Emit(event.Event{Type: event.Alloc, Addr: addrs[i], Size: size, Fn: 1})
	}
	// A bounded ring of fresh bases: "fresh" means not the base just
	// freed, while the address range (and so the table's chunks) stays
	// fixed once warmed.
	const ring = 1 << 14
	spare := make([]uint64, 0, ring)
	for len(spare) < ring {
		spare = append(spare, fresh())
	}
	step := func(round int) int {
		k := (round * 17) & (n - 1)
		l.Emit(event.Event{Type: event.Free, Addr: addrs[k]})
		l.Emit(event.Event{Type: event.Alloc, Addr: addrs[k], Size: size, Fn: 1})
		j := (round*31 + 7) & (n - 1)
		old := addrs[j]
		l.Emit(event.Event{Type: event.Free, Addr: old})
		addrs[j] = spare[round&(ring-1)]
		spare[round&(ring-1)] = old
		l.Emit(event.Event{Type: event.Alloc, Addr: addrs[j], Size: size, Fn: 1})
		if round%4 != 0 {
			return 4
		}
		l.Emit(event.Event{Type: event.Free, Addr: old})                               // double free
		l.Emit(event.Event{Type: event.Free, Addr: 0x300_0000_0000 + uint64(round)*8}) // wild free
		return 6
	}
	return l, step
}

// TestAllocFreeHotPathAllocs is the allocation budget for the alloc
// and free apply path, enforced in CI: once warmed, steady-state
// alloc/free traffic with double and wild frees must average at most
// 0.1 heap allocations per event at both granularities. A regression
// means a per-object structure (info record, word-vertex slice, freed
// set, vertex slot) went back to allocating per event.
func TestAllocFreeHotPathAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates on the hot path")
	}
	for _, gran := range []Granularity{ObjectGranularity, FieldGranularity} {
		t.Run(gran.String(), func(t *testing.T) {
			l, step := allocFreeWorkload(4096, gran)
			defer l.Release()
			round, events := 0, 0
			for ; round < 1<<15; round++ { // warm-up: every base recycled
				step(round)
			}
			const runs = 4000
			avg := testing.AllocsPerRun(runs, func() {
				events += step(round)
				round++
			})
			// AllocsPerRun calls f once more, unmeasured, to warm up.
			perEvent := avg / (float64(events) / (runs + 1))
			if perEvent > 0.1 {
				t.Fatalf("alloc/free hot path allocates %.3f times per event; budget is 0.1", perEvent)
			}
		})
	}
}

// BenchmarkAllocFree measures the steady-state alloc/free apply path;
// ns/op is per event.
func BenchmarkAllocFree(b *testing.B) {
	for _, gran := range []Granularity{ObjectGranularity, FieldGranularity} {
		b.Run(gran.String(), func(b *testing.B) {
			l, step := allocFreeWorkload(4096, gran)
			defer l.Release()
			round := 0
			for ; round < 1<<15; round++ {
				step(round)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for events := 0; events < b.N; round++ {
				events += step(round)
			}
		})
	}
}
