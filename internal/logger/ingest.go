// Pipeline-parallel ingestion: speculative address pre-resolution.
//
// After the decode pipeline (trace readers) and the MPSC Pipeline
// (live producers), the logger's own event loop is the last serial
// stage: every event funnels through one goroutine at ~170–190
// ns/event, and roughly 40% of a store's cost is the two pagemap
// stabs that resolve its source and target addresses. Those stabs are
// pure reads — so while the strictly serial, strictly in-order
// mutator applies batch k, a pool of pre-resolver workers can perform
// the address resolution for batches k+1, k+2, … against the address
// table's shared read view (addrindex/shared.go) and attach the
// results to the batch:
//
//	producer ──▶ work ──▶ resolvers (SharedStab ×2 per store, stamped)
//	     │                    │ ready
//	     └─────▶ pending ─────▼──────▶ mutator (in order, validates
//	            (FIFO, bounded)         stamps, applies every event)
//
// Correctness is by generation stamping, not locking. Each
// speculative resolution records the (even, unchanged-across-the-
// lookup-pair) addrindex generation it read under; the mutator — the
// only goroutine that ever mutates the table — accepts it only while
// that stamp still equals the current generation and the table has
// never held overlapping ranges. Under those conditions the shared
// view and the serial table are element-for-element identical, so the
// pre-resolved answer (including a miss: a wild store is a valid
// resolution) is exactly what the serial stabs would have returned at
// apply time. Any intervening alloc/free/realloc bumps the generation
// and the affected events silently fall back to the serial lookup.
// Mutation order is untouched in every case, so reports, findings and
// health counters are byte-identical to the serial path by
// construction — only the ingest stall/fallback counters (surfaced
// via trace.Stats, never via health) depend on the configuration.
package logger

import (
	"sync"
	"sync/atomic"

	"heapmd/internal/addrindex"
	"heapmd/internal/event"
)

// resolution is one event's speculative pre-resolution. Only Store
// events are resolved; src/tgt hold arena indices from SharedStab
// (addrindex.NoEntry on miss), valid while stamp equals the table's
// current generation.
type resolution struct {
	stamp uint64
	src   int32
	tgt   int32
	state uint8
}

const (
	resNone uint8 = iota // not attempted, or abandoned mid-generation
	resDone              // resolved under a settled generation
)

// ResolvedBatch is an owned batch of events travelling through the
// ingest pipeline with its per-event speculative resolutions. Batches
// are pooled; the ready channel (capacity 1) carries the resolver's
// completion token to the mutator, so a recycled batch reuses it.
type ResolvedBatch struct {
	events []event.Event
	res    []resolution
	ready  chan struct{}
}

// IngestStats are the pipeline's configuration-dependent counters.
// They are surfaced through trace.Stats and the replay CLI — never
// through health.Counters, which travel inside Reports and must stay
// byte-identical across worker settings.
type IngestStats struct {
	// Workers is the resolved total worker count (1 mutator + N-1
	// pre-resolvers).
	Workers int
	// SpeculationHits counts stores applied from an accepted
	// pre-resolution.
	SpeculationHits uint64
	// SpeculationFallbacks counts stores applied through the serial
	// lookup despite the pipeline — the resolution was abandoned, or
	// its generation stamp was invalidated by an intervening
	// alloc/free/realloc, or the table is in sticky-overlap mode.
	SpeculationFallbacks uint64
	// PreResolveStalls counts stores a resolver abandoned because the
	// generation was odd (mutation in flight) or moved between the two
	// lookups of the pair.
	PreResolveStalls uint64
	// MutatorStalls counts batches whose resolution the in-order
	// mutator had to wait for.
	MutatorStalls uint64
}

// IngestOptions configures an Ingest pipeline.
type IngestOptions struct {
	// Workers is the total ingest worker count: 1 mutator plus
	// Workers-1 pre-resolvers. Values below 2 are clamped to 2 — a
	// caller wanting the serial path should not construct an Ingest
	// at all (sched.ParseIngestWorkers encodes that policy).
	Workers int
	// BatchSize is the events per pipeline batch; 0 means
	// DefaultBatchSize.
	BatchSize int
	// QueueDepth bounds the batches in flight between the producer,
	// the resolvers and the mutator; 0 means DefaultQueueDepth.
	QueueDepth int
}

func (o IngestOptions) withDefaults() IngestOptions {
	if o.Workers < 2 {
		o.Workers = 2
	}
	if o.BatchSize <= 0 {
		o.BatchSize = DefaultBatchSize
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = DefaultQueueDepth
	}
	return o
}

// Ingest is the pipeline-parallel ingestion front end to one Logger.
// It implements event.Sink and event.BatchSink for a single producing
// goroutine (trace replay, or the Pipeline's consumer); events are
// copied into pooled owned batches, speculatively pre-resolved by the
// worker pool, and applied strictly in order by a dedicated mutator
// goroutine. Close flushes, drains, and stops every goroutine; after
// Close returns the Logger is exclusively the caller's again.
type Ingest struct {
	log  *Logger
	opts IngestOptions

	buf       *ResolvedBatch      // producer-side batch being filled
	work      chan *ResolvedBatch // producer -> resolvers
	pending   chan *ResolvedBatch // producer -> mutator, order-defining
	pool      sync.Pool
	done      chan struct{}
	closeOnce sync.Once

	preResolveStalls atomic.Uint64 // resolvers (shared)
	hits             uint64        // mutator-only
	fallbacks        uint64        // mutator-only
	mutatorStalls    uint64        // mutator-only
}

// NewIngest starts an ingest pipeline feeding l. It enables the
// address table's shared read view and spawns opts.Workers-1 resolver
// goroutines plus the mutator. The Logger must not be used directly
// by any goroutine until Close returns.
func NewIngest(l *Logger, opts IngestOptions) *Ingest {
	opts = opts.withDefaults()
	ing := &Ingest{
		log:     l,
		opts:    opts,
		work:    make(chan *ResolvedBatch, opts.QueueDepth),
		pending: make(chan *ResolvedBatch, opts.QueueDepth),
		done:    make(chan struct{}),
	}
	ing.pool.New = func() any {
		return &ResolvedBatch{
			events: make([]event.Event, 0, opts.BatchSize),
			res:    make([]resolution, 0, opts.BatchSize),
			ready:  make(chan struct{}, 1),
		}
	}
	ing.buf = ing.getBatch()
	l.objects.EnableSharedReads()
	for i := 0; i < opts.Workers-1; i++ {
		go ing.resolver()
	}
	go ing.mutate()
	return ing
}

func (ing *Ingest) getBatch() *ResolvedBatch {
	b := ing.pool.Get().(*ResolvedBatch)
	b.events = b.events[:0]
	return b
}

// Emit implements event.Sink for the single producer.
func (ing *Ingest) Emit(e event.Event) {
	ing.buf.events = append(ing.buf.events, e)
	if len(ing.buf.events) >= ing.opts.BatchSize {
		ing.flush()
	}
}

// EmitBatch implements event.BatchSink: the borrowed slice is copied
// into owned pipeline batches before return.
func (ing *Ingest) EmitBatch(batch []event.Event) {
	for len(batch) > 0 {
		n := ing.opts.BatchSize - len(ing.buf.events)
		if n > len(batch) {
			n = len(batch)
		}
		ing.buf.events = append(ing.buf.events, batch[:n]...)
		batch = batch[n:]
		if len(ing.buf.events) >= ing.opts.BatchSize {
			ing.flush()
		}
	}
}

// Flush hands any partial batch to the pipeline without waiting for a
// full one.
func (ing *Ingest) Flush() {
	if len(ing.buf.events) > 0 {
		ing.flush()
	}
}

// flush dispatches the producer batch. The work send precedes the
// pending send so a batch visible to the mutator is always already
// visible to some resolver — pending is the bounded, order-defining
// queue; when it fills, the producer stalls (Block semantics, every
// event lands).
func (ing *Ingest) flush() {
	b := ing.buf
	ing.buf = ing.getBatch()
	b.res = b.res[:len(b.events)]
	ing.work <- b
	ing.pending <- b
}

// resolver is one pre-resolution worker: it stamps and resolves the
// Store events of each batch against the shared read view, then posts
// the batch's ready token.
func (ing *Ingest) resolver() {
	tab := ing.log.objects
	var stalls uint64
	for b := range ing.work {
		for i := range b.events {
			e := &b.events[i]
			if e.Type != event.Store {
				b.res[i].state = resNone
				continue
			}
			g := tab.Gen()
			if g&1 != 0 {
				// Mutation in flight: no settled state to stamp.
				b.res[i].state = resNone
				stalls++
				continue
			}
			src, _ := tab.SharedStab(e.Addr)
			tgt, _ := tab.SharedStab(e.Value)
			if tab.Gen() != g {
				// The pair straddled a mutation; the two lookups may
				// disagree about which generation they saw.
				b.res[i].state = resNone
				stalls++
				continue
			}
			b.res[i] = resolution{stamp: g, src: src, tgt: tgt, state: resDone}
		}
		if stalls != 0 {
			ing.preResolveStalls.Add(stalls)
			stalls = 0
		}
		b.ready <- struct{}{}
	}
}

// mutate is the strictly serial, strictly in-order application loop.
// It consumes batches in production order, waits (counting stalls)
// for each batch's resolution, applies it, and recycles it.
func (ing *Ingest) mutate() {
	defer close(ing.done)
	for b := range ing.pending {
		select {
		case <-b.ready:
		default:
			ing.mutatorStalls++
			<-b.ready
		}
		h, f := ing.log.applyBatch(b.events, b.res)
		ing.hits += h
		ing.fallbacks += f
		ing.pool.Put(b)
	}
}

// Close flushes the producer's partial batch, drains the pipeline and
// stops every worker goroutine. After Close the Logger is exclusively
// the caller's again (Report is safe). Idempotent.
func (ing *Ingest) Close() error {
	ing.closeOnce.Do(func() {
		ing.Flush()
		close(ing.work)
		close(ing.pending)
		<-ing.done
	})
	return nil
}

// Logger returns the consuming logger. Until Close has returned it is
// only safe from the mutator's own callbacks (observers).
func (ing *Ingest) Logger() *Logger { return ing.log }

// Stats returns the pipeline's counters. Call after Close; while the
// pipeline is running only Workers is stable.
func (ing *Ingest) Stats() IngestStats {
	return IngestStats{
		Workers:              ing.opts.Workers,
		SpeculationHits:      ing.hits,
		SpeculationFallbacks: ing.fallbacks,
		PreResolveStalls:     ing.preResolveStalls.Load(),
		MutatorStalls:        ing.mutatorStalls,
	}
}

// acceptResolution decides whether a speculative resolution may
// replace the serial stabs for the store (addr, value) at apply time.
// A stamp still equal to the current generation means the table has
// not mutated since the resolver looked, so the resolution — hits and
// misses alike — is exact. A stale stamp is the common case under
// deep pipelines (any alloc/free between resolution and apply bumps
// the generation), so stale double-hit resolutions are revalidated by
// containment: live ranges are disjoint, so if the resolved arena
// slots still contain their addresses *now*, they are exactly the
// entries serial stabs would return now (see addrindex.Contains).
// Stale misses can never be revalidated — a newer insert may have
// claimed the address — and any overlap makes stab answers depend on
// serial cache history, so both reject.
func (l *Logger) acceptResolution(r *resolution, addr, value uint64) bool {
	if r.state != resDone || l.objects.Overlapped() {
		return false
	}
	if r.stamp == l.objects.Gen() {
		return true
	}
	if r.src == addrindex.NoEntry || !l.objects.Contains(r.src, addr) {
		return false
	}
	return r.tgt != addrindex.NoEntry && l.objects.Contains(r.tgt, value)
}

// onStoreResolved applies one store from an accepted pre-resolution.
// The caller has already validated the resolution (generation stamp or
// containment revalidation, plus the overlap flag), so srcIdx/tgtIdx
// describe exactly the entries (or misses) the serial stabs in onStore
// would find; only the graph and slot mutations remain. Remember calls replicate the serial path's
// last-hit cache evolution so interleaved fallback lookups keep their
// locality.
func (l *Logger) onStoreResolved(addr, value uint64, srcIdx, tgtIdx int32) {
	if srcIdx == addrindex.NoEntry {
		l.health.WildStores++
		return
	}
	base, _, info := l.objects.At(srcIdx)
	l.objects.Remember(srcIdx)
	off := addr - base
	src, srcOK := sourceVertex(info, off)
	if !srcOK {
		l.health.WildStores++
		return
	}
	if oldTarget, had := info.slots.get(off); had {
		l.graph.RemoveEdge(src, oldTarget)
		info.slots.del(off)
	}
	if tgtIdx == addrindex.NoEntry {
		return
	}
	tbase, _, tinfo := l.objects.At(tgtIdx)
	l.objects.Remember(tgtIdx)
	var target = tinfo.vertex
	if tinfo.wordVertices != nil {
		i := (value - tbase) / 8
		if i >= uint64(len(tinfo.wordVertices)) {
			return // past the last whole word: not a pointer target
		}
		target = tinfo.wordVertices[i]
	}
	l.graph.AddEdge(src, target)
	info.slots.set(off, target, info.size)
}
