// Package heapgraph maintains the heap-graph image at the core of
// HeapMD (paper Section 2.1): a directed multigraph whose vertices are
// heap-allocated objects and whose edges are pointer values stored in
// one object that refer to another.
//
// The execution logger mutates this graph on every allocation, free and
// pointer write, and samples degree-based metrics at metric computation
// points. To keep sampling O(1) — the paper samples every 100,000th
// function entry in programs with hundreds of megabytes of heap — the
// graph maintains incremental degree histograms: for every mutation it
// updates the population counts of each in/out-degree and the count of
// vertices with indegree == outdegree, so metric evaluation never walks
// the graph.
//
// Edges are multi-edges: two fields of object A pointing at object B
// contribute 2 to B's indegree, matching the "number of pointers"
// reading of degree used by the paper.
//
// Storage. Vertices live in a flat arena of parallel slices indexed by
// slot: ids, in/out degree (struct-of-arrays), and one adjacency set
// per direction. Freed slots are recycled through a freelist, so
// steady-state alloc/free traffic performs no heap allocation. The
// VertexID → slot index is a dense slice while IDs stay near the
// allocated frontier (the logger hands out sequential IDs, so in
// practice it always is) with a sparse map fallback for outliers.
// Adjacency sets inline up to four distinct neighbours per direction
// and spill to a map beyond that (see adjacency.go); the paper's heap
// graphs are dominated by degree 0–2 vertices, so the maps — and their
// allocation and GC-scan cost — all but disappear.
//
// Concurrency: the adjacency structure is single-writer — only one
// goroutine (the monitoring pipeline's consumer) may mutate the graph
// or walk adjacency. The aggregate counts (CountInDegree,
// CountOutDegree, CountInEqOut, NumVertices, NumEdges, Generation) are
// maintained in lock-striped atomic shards (see sharded.go) and may be
// read from any goroutine while mutation proceeds.
package heapgraph

import (
	"fmt"
	"sync/atomic"
)

// VertexID names a heap object in the graph. The execution logger
// assigns IDs from an allocation generation counter, so a recycled
// address maps to a fresh vertex.
type VertexID uint64

// maxTracked is the largest degree tracked with its own histogram
// bucket; larger degrees share an overflow bucket. The paper's metrics
// only inspect degrees 0..2, but we track a few more for extension
// metrics and diagnostics.
const maxTracked = 8

// denseSlack bounds how far past the current dense-index frontier an
// ID may land while still growing the dense slice (4 bytes per ID of
// headroom). IDs further out go to the sparse map instead, so one wild
// ID from a damaged trace cannot balloon the index.
const denseSlack = 1 << 16

// noSlot marks an absent vertex in slot lookups.
const noSlot = int32(-1)

// componentCache memoizes a components decomposition together with the
// mutation generation it was computed at.
type componentCache struct {
	gen   uint64
	stats ComponentStats
	valid bool
}

// Graph is the mutable heap-graph image. Mutation and adjacency walks
// are single-goroutine; the degree/size counters tolerate concurrent
// readers (see the package comment).
type Graph struct {
	// VertexID → slot+1 (0 = absent). dense covers IDs below its
	// length; sparse holds the stragglers and is nil until needed.
	dense  []int32
	sparse map[VertexID]int32

	// The vertex arena, all indexed by slot.
	ids    []VertexID
	inDeg  []int32 // total incoming multiplicity
	outDeg []int32 // total outgoing multiplicity
	outAdj []adjacency
	inAdj  []adjacency
	alive  []bool

	freeSlots []int32

	counts shardedCounts
	nVerts atomic.Int64
	edges  atomic.Int64 // total edge multiplicity
	// gen counts successful mutations. The verify-mode walks use it to
	// reuse cached whole-graph analyses.
	gen atomic.Uint64

	wccCache componentCache
	sccCache componentCache

	// Incremental weak-connectivity tracking (incremental.go). wcc is
	// nil until the first SetConnectivity or query; both fields are
	// writer-goroutine state.
	connMode ConnectivityMode
	wcc      *wccTracker

	// Incremental strong-connectivity tracking (incremental_scc.go),
	// the SCC sibling of the pair above. Same ownership rules.
	sccMode ConnectivityMode
	scc     *sccTracker
}

// New returns an empty heap-graph.
func New() *Graph {
	return &Graph{}
}

// maxRetainedSlots bounds the vertex arena (~300 bytes a slot), and
// maxRetainedIDs the dense ID index (4 bytes an ID), that Reset keeps
// for reuse; a graph that grew past either drops that storage instead
// of pinning it. The bundled programs peak below 3,000 slots.
const (
	maxRetainedSlots = 1 << 14
	maxRetainedIDs   = 1 << 20
)

// Reset empties the graph. A reset graph behaves exactly like a new
// one — same slot numbering, zeroed histograms and counters, no
// connectivity trackers (SetConnectivity and SetSCC start fresh ones)
// — but keeps the vertex arena and ID index capacity for reuse, unless
// they grew past maxRetainedSlots or maxRetainedIDs. Writer goroutine
// only.
func (g *Graph) Reset() {
	if cap(g.ids) > maxRetainedSlots {
		g.ids, g.inDeg, g.outDeg, g.outAdj, g.inAdj, g.alive, g.freeSlots = nil, nil, nil, nil, nil, nil, nil
	} else {
		clear(g.outAdj) // drop spill maps, so they become collectable
		clear(g.inAdj)
		g.ids, g.inDeg, g.outDeg = g.ids[:0], g.inDeg[:0], g.outDeg[:0]
		g.outAdj, g.inAdj, g.alive = g.outAdj[:0], g.inAdj[:0], g.alive[:0]
		g.freeSlots = g.freeSlots[:0]
	}
	if cap(g.dense) > maxRetainedIDs {
		g.dense = nil
	} else {
		g.dense = g.dense[:0] // setSlot zeroes whatever it regrows into
	}
	g.sparse = nil
	g.counts.reset()
	g.nVerts.Store(0)
	g.edges.Store(0)
	g.gen.Store(0)
	g.wccCache, g.sccCache = componentCache{}, componentCache{}
	g.connMode, g.wcc = 0, nil
	g.sccMode, g.scc = 0, nil
}

// slotOf returns v's arena slot, or noSlot.
func (g *Graph) slotOf(v VertexID) int32 {
	if uint64(v) < uint64(len(g.dense)) {
		return g.dense[v] - 1
	}
	if g.sparse == nil {
		return noSlot
	}
	return g.sparse[v] - 1
}

// setSlot records v → slot in the index, growing the dense slice when
// v is within denseSlack of its frontier and falling back to the
// sparse map otherwise.
func (g *Graph) setSlot(v VertexID, slot int32) {
	if uint64(v) < uint64(len(g.dense)) {
		g.dense[v] = slot + 1
		return
	}
	if uint64(v) < uint64(len(g.dense))+denseSlack {
		n := int(v) + 1
		if cap(g.dense) < n {
			grown := make([]int32, n, n+n/2+denseSlack)
			copy(grown, g.dense)
			g.dense = grown
		} else {
			old := len(g.dense)
			g.dense = g.dense[:n]
			for i := old; i < n; i++ {
				g.dense[i] = 0
			}
		}
		g.dense[v] = slot + 1
		return
	}
	if g.sparse == nil {
		g.sparse = make(map[VertexID]int32)
	}
	g.sparse[v] = slot + 1
}

// clearSlot removes v from the index.
func (g *Graph) clearSlot(v VertexID) {
	if uint64(v) < uint64(len(g.dense)) {
		g.dense[v] = 0
		return
	}
	delete(g.sparse, v)
}

// newSlot claims an arena slot for v, recycling from the freelist when
// possible. The slot's adjacency sets are already empty (reset at
// removal time).
func (g *Graph) newSlot(v VertexID) int32 {
	if k := len(g.freeSlots); k > 0 {
		s := g.freeSlots[k-1]
		g.freeSlots = g.freeSlots[:k-1]
		g.ids[s] = v
		g.inDeg[s], g.outDeg[s] = 0, 0
		g.alive[s] = true
		return s
	}
	s := int32(len(g.ids))
	g.ids = append(g.ids, v)
	g.inDeg = append(g.inDeg, 0)
	g.outDeg = append(g.outDeg, 0)
	g.outAdj = append(g.outAdj, adjacency{})
	g.inAdj = append(g.inAdj, adjacency{})
	g.alive = append(g.alive, true)
	return s
}

func bucket(d int) int {
	if d > maxTracked {
		return maxTracked + 1
	}
	return d
}

// track updates the histograms and eq counter for vertex v whose
// degrees change from (oldIn, oldOut) to (newIn, newOut).
func (g *Graph) track(v VertexID, oldIn, oldOut, newIn, newOut int) {
	sh := g.counts.shard(v)
	sh.inHist[bucket(oldIn)].Add(-1)
	sh.outHist[bucket(oldOut)].Add(-1)
	sh.inHist[bucket(newIn)].Add(1)
	sh.outHist[bucket(newOut)].Add(1)
	if oldIn == oldOut {
		sh.eq.Add(-1)
	}
	if newIn == newOut {
		sh.eq.Add(1)
	}
}

// trackIn is track specialized for a change that touches only the
// indegree (a non-self-loop edge mutation changes exactly one degree
// of each endpoint). Skipping the unchanged direction's remove/re-add
// pair halves the atomic traffic of the edge hot path — the histogram
// update is the single most expensive step of a store event.
func (g *Graph) trackIn(v VertexID, oldIn, newIn, out int) {
	sh := g.counts.shard(v)
	if bo, bn := bucket(oldIn), bucket(newIn); bo != bn {
		sh.inHist[bo].Add(-1)
		sh.inHist[bn].Add(1)
	}
	if oldIn == out {
		sh.eq.Add(-1)
	}
	if newIn == out {
		sh.eq.Add(1)
	}
}

// trackOut is trackIn for the outdegree.
func (g *Graph) trackOut(v VertexID, in, oldOut, newOut int) {
	sh := g.counts.shard(v)
	if bo, bn := bucket(oldOut), bucket(newOut); bo != bn {
		sh.outHist[bo].Add(-1)
		sh.outHist[bn].Add(1)
	}
	if oldOut == in {
		sh.eq.Add(-1)
	}
	if newOut == in {
		sh.eq.Add(1)
	}
}

// AddVertex inserts a new isolated vertex. Adding an existing vertex
// is a no-op (the logger can observe redundant allocation events when
// replaying truncated traces).
func (g *Graph) AddVertex(v VertexID) {
	if g.slotOf(v) != noSlot {
		return
	}
	s := g.newSlot(v)
	g.setSlot(v, s)
	sh := g.counts.shard(v)
	sh.inHist[0].Add(1)
	sh.outHist[0].Add(1)
	sh.eq.Add(1) // 0 == 0
	g.nVerts.Add(1)
	g.gen.Add(1)
	g.wccAddVertex(s)
	g.sccAddVertex(s)
}

// HasVertex reports whether v is present.
func (g *Graph) HasVertex(v VertexID) bool {
	return g.slotOf(v) != noSlot
}

// RemoveVertex deletes v and every incident edge (in both directions),
// adjusting the degrees of its neighbours. Removing an absent vertex
// is a no-op.
func (g *Graph) RemoveVertex(v VertexID) {
	s := g.slotOf(v)
	if s == noSlot {
		return
	}
	// The connectivity trackers collect the vertex's neighbours before
	// the neighbour sets are torn down, and repair after.
	g.wccRemoveVertex(v, s)
	g.sccRemoveVertex(v, s)
	// Detach outgoing edges: each successor loses incoming
	// multiplicity. The callbacks mutate only the neighbours' sets,
	// never slot s's own, which each() permits.
	g.outAdj[s].each(func(succ VertexID, mult int32) bool {
		g.edges.Add(-int64(mult))
		if succ == v {
			return true // self-loop dies with the vertex
		}
		ss := g.slotOf(succ)
		in, out := int(g.inDeg[ss]), int(g.outDeg[ss])
		g.trackIn(succ, in, in-int(mult), out)
		g.inDeg[ss] -= mult
		g.inAdj[ss].drop(v)
		return true
	})
	// Detach incoming edges.
	g.inAdj[s].each(func(pred VertexID, mult int32) bool {
		if pred == v {
			return true // self-loop already handled above
		}
		ps := g.slotOf(pred)
		in, out := int(g.inDeg[ps]), int(g.outDeg[ps])
		g.trackOut(pred, in, out, out-int(mult))
		g.outDeg[ps] -= mult
		g.outAdj[ps].drop(v)
		g.edges.Add(-int64(mult))
		return true
	})
	// Remove v itself from the histograms.
	sh := g.counts.shard(v)
	sh.inHist[bucket(int(g.inDeg[s]))].Add(-1)
	sh.outHist[bucket(int(g.outDeg[s]))].Add(-1)
	if g.inDeg[s] == g.outDeg[s] {
		sh.eq.Add(-1)
	}
	// Reset now (not at reuse) so spill maps become collectable.
	g.outAdj[s].reset()
	g.inAdj[s].reset()
	g.alive[s] = false
	g.clearSlot(v)
	g.freeSlots = append(g.freeSlots, s)
	g.nVerts.Add(-1)
	g.gen.Add(1)
	g.wccRemoveVertexDone()
	g.sccRemoveVertexDone()
	g.wccSettle()
	g.sccSettle()
}

// AddEdge adds one unit of edge multiplicity from u to v. Both
// vertices must exist; AddEdge reports whether the edge was added.
// Self-loops are permitted (an object can point to itself).
func (g *Graph) AddEdge(u, v VertexID) bool {
	us := g.slotOf(u)
	if us == noSlot {
		return false
	}
	vs := g.slotOf(v)
	if vs == noSlot {
		return false
	}
	g.outAdj[us].inc(v)
	g.inAdj[vs].inc(u)
	if u == v {
		in, out := int(g.inDeg[us]), int(g.outDeg[us])
		g.track(u, in, out, in+1, out+1)
		g.inDeg[us]++
		g.outDeg[us]++
	} else {
		in, out := int(g.inDeg[us]), int(g.outDeg[us])
		g.trackOut(u, in, out, out+1)
		g.outDeg[us]++
		in, out = int(g.inDeg[vs]), int(g.outDeg[vs])
		g.trackIn(v, in, in+1, out)
		g.inDeg[vs]++
		g.wccAddEdge(us, vs)
		g.sccAddEdge(us, vs)
	}
	g.edges.Add(1)
	g.gen.Add(1)
	// Unlike weak connectivity, edge *insertion* can dirty the SCC
	// tracker (a probe-budget bailout), so inserts also settle.
	g.sccSettle()
	return true
}

// RemoveEdge removes one unit of edge multiplicity from u to v,
// reporting whether an edge was present to remove.
func (g *Graph) RemoveEdge(u, v VertexID) bool {
	us := g.slotOf(u)
	if us == noSlot || g.outAdj[us].get(v) == 0 {
		return false
	}
	vs := g.slotOf(v) // present by the symmetry invariant
	g.outAdj[us].dec(v)
	g.inAdj[vs].dec(u)
	if u == v {
		in, out := int(g.inDeg[us]), int(g.outDeg[us])
		g.track(u, in, out, in-1, out-1)
		g.inDeg[us]--
		g.outDeg[us]--
	} else {
		in, out := int(g.inDeg[us]), int(g.outDeg[us])
		g.trackOut(u, in, out, out-1)
		g.outDeg[us]--
		in, out = int(g.inDeg[vs]), int(g.outDeg[vs])
		g.trackIn(v, in, in-1, out)
		g.inDeg[vs]--
		g.wccRemoveEdge(u, v, us, vs)
		g.sccRemoveEdge(v, us, vs)
	}
	g.edges.Add(-1)
	g.gen.Add(1)
	g.wccSettle()
	g.sccSettle()
	return true
}

// Multiplicity returns the number of parallel edges from u to v.
func (g *Graph) Multiplicity(u, v VertexID) int {
	us := g.slotOf(u)
	if us == noSlot {
		return 0
	}
	return int(g.outAdj[us].get(v))
}

// NumVertices returns the number of vertices. Safe to call
// concurrently with mutation.
func (g *Graph) NumVertices() int { return int(g.nVerts.Load()) }

// NumEdges returns the total edge multiplicity. Safe to call
// concurrently with mutation.
func (g *Graph) NumEdges() int { return int(g.edges.Load()) }

// Generation returns the mutation-generation counter: it increments on
// every successful vertex or edge mutation, so two reads returning the
// same value bracket a window in which the graph did not change. Safe
// to call concurrently with mutation.
func (g *Graph) Generation() uint64 { return g.gen.Load() }

// CountInDegree returns the number of vertices with indegree exactly d
// (for d <= maxTracked; larger d values return 0 — use
// CountInDegreeOverflow for the tail). Safe to call concurrently with
// mutation.
func (g *Graph) CountInDegree(d int) int {
	if d < 0 || d > maxTracked {
		return 0
	}
	return g.counts.sumIn(d)
}

// CountOutDegree returns the number of vertices with outdegree exactly
// d (d <= maxTracked). Safe to call concurrently with mutation.
func (g *Graph) CountOutDegree(d int) int {
	if d < 0 || d > maxTracked {
		return 0
	}
	return g.counts.sumOut(d)
}

// CountInDegreeOverflow returns the number of vertices with indegree
// greater than maxTracked.
func (g *Graph) CountInDegreeOverflow() int { return g.counts.sumIn(maxTracked + 1) }

// CountOutDegreeOverflow returns the number of vertices with outdegree
// greater than maxTracked.
func (g *Graph) CountOutDegreeOverflow() int { return g.counts.sumOut(maxTracked + 1) }

// CountInEqOut returns the number of vertices whose indegree equals
// their outdegree. Safe to call concurrently with mutation.
func (g *Graph) CountInEqOut() int { return g.counts.sumEq() }

// InDegree returns v's indegree (total incoming multiplicity).
func (g *Graph) InDegree(v VertexID) int {
	s := g.slotOf(v)
	if s == noSlot {
		return 0
	}
	return int(g.inDeg[s])
}

// OutDegree returns v's outdegree.
func (g *Graph) OutDegree(v VertexID) int {
	s := g.slotOf(v)
	if s == noSlot {
		return 0
	}
	return int(g.outDeg[s])
}

// Successors calls fn for every distinct successor of v with the edge
// multiplicity; iteration order is unspecified.
func (g *Graph) Successors(v VertexID, fn func(succ VertexID, mult int) bool) {
	s := g.slotOf(v)
	if s == noSlot {
		return
	}
	g.outAdj[s].each(func(id VertexID, m int32) bool { return fn(id, int(m)) })
}

// Predecessors calls fn for every distinct predecessor of v with the
// edge multiplicity.
func (g *Graph) Predecessors(v VertexID, fn func(pred VertexID, mult int) bool) {
	s := g.slotOf(v)
	if s == noSlot {
		return
	}
	g.inAdj[s].each(func(id VertexID, m int32) bool { return fn(id, int(m)) })
}

// Vertices calls fn for every vertex; iteration order is unspecified.
func (g *Graph) Vertices(fn func(VertexID) bool) {
	for s := range g.ids {
		if g.alive[s] && !fn(g.ids[s]) {
			return
		}
	}
}

// String summarizes the graph for debugging.
func (g *Graph) String() string {
	return fmt.Sprintf("heapgraph{V=%d E=%d roots=%d leaves=%d in==out=%d}",
		g.NumVertices(), g.NumEdges(), g.CountInDegree(0), g.CountOutDegree(0), g.CountInEqOut())
}
