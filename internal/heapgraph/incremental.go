package heapgraph

// This file implements incremental weak-connectivity tracking (the
// strong-connectivity sibling lives in incremental_scc.go and shares
// the union-find core and mode machinery defined here). A walk-based
// count (analysis.go) costs O(V+E) at every metric computation point,
// which caps the viable sampling frequency by heap *size*; the tracker
// instead maintains the component count under mutation, so a metric
// point costs O(1) and each graph operation a small local amount of
// work — heap *churn*, not heap size.
//
// Union-find handles vertex and edge additions exactly in O(α)
// amortized. Deletions are where union-find gives up (it cannot
// split); the tracker repairs them locally instead:
//
//   - removing an edge whose endpoints remain directly linked (a
//     parallel edge or the reverse direction) cannot change weak
//     connectivity: exact no-op;
//   - removing a vertex with zero or one distinct neighbour removes a
//     singleton or a leaf; a leaf never disconnects anything (every
//     path through it can be shortcut at its sole neighbour): exact;
//   - any other delete — an edge cut, or the removal of a vertex with
//     k >= 2 distinct neighbours — may split the component into up to
//     2 (resp. k) parts. The tracker runs an interleaved undirected
//     search from every side of the cut (the edge's endpoints, or the
//     removed vertex's neighbours), one vertex expansion per side per
//     round in the manner of Even and Shiloach. Sides whose searches
//     meet are the same component and continue as one; a side whose
//     search runs out of vertices has enumerated a whole component,
//     which is detached onto a fresh union-find node (node
//     indirection, below). The search stops as soon as at most one
//     side is still open — that side keeps the old node — so its cost
//     is proportional to the smaller parts, not to the component.
//
// The repair charges every adjacency entry it scans against
// DeleteRepairBudget. A delete whose smaller parts are too large for
// the budget marks the tracker dirty instead, and dirty deletes are
// amortized by generation-tagged rebuilds: when the dirty counter
// reaches the rebuild threshold the tracker re-unions from the live
// adjacency during the mutation (synchronously, on the writer
// goroutine — the graph is single-writer, so there is no background
// rebuild to race with), and a query on a dirty tracker rebuilds
// lazily first. Exactness therefore never depends on the budget; the
// budget only decides which path pays for a delete.
//
// Node indirection. A union-find element cannot be detached from its
// tree without breaking other elements' parent chains through it. The
// tracker therefore separates *vertices* from *union-find nodes*: a
// per-slot table maps each live vertex to a node in a growable node
// arena, and detaching a set of vertices just points their slots at a
// fresh node, leaving the old nodes in place as interior links.
// Abandoned nodes accumulate; when the node arena exceeds ~4x the
// live vertex count a rebuild compacts it (reusing the slices'
// capacity, so steady-state churn performs no allocation).
//
// The tracker maintains Count only; the metric suite only consumes
// Count (WCC per 100 vertices), and Largest stays a walk statistic.

import "fmt"

// ConnectivityMode selects how a component metric obtains its count.
// The zero value is incremental.
type ConnectivityMode uint8

const (
	// ConnectivityIncremental maintains the count under mutation with
	// the union-find tracker; queries are O(1) unless a rebuild is
	// pending.
	ConnectivityIncremental ConnectivityMode = iota
	// ConnectivityVerify also recomputes the count with a full graph
	// walk at every query and panics on divergence. It is an oracle
	// mode for tests and CI, not for production monitoring: each query
	// pays the walk.
	ConnectivityVerify
)

// String returns the mode's flag spelling.
func (m ConnectivityMode) String() string {
	switch m {
	case ConnectivityIncremental:
		return "incremental"
	case ConnectivityVerify:
		return "verify"
	}
	return fmt.Sprintf("ConnectivityMode(%d)", uint8(m))
}

// ParseConnectivity resolves a -connectivity flag value.
func ParseConnectivity(s string) (ConnectivityMode, error) {
	switch s {
	case "incremental":
		return ConnectivityIncremental, nil
	case "verify":
		return ConnectivityVerify, nil
	}
	return 0, fmt.Errorf("heapgraph: unknown connectivity mode %q (want incremental or verify)", s)
}

// DeleteRepairBudget caps the adjacency entries one delete's local
// repair may scan (both trackers; see the file comments) before it
// gives up and marks the tracker dirty. On the bundled workloads'
// heaps the largest repair scans ~800 entries.
const DeleteRepairBudget = 2048

// DefaultRebuildThreshold is the number of dirty (unrepaired)
// mutations that triggers an amortized rebuild. One rebuild is an
// O(V+E) walk; at 64 mutations per rebuild the amortized cost stays
// far below one walk per metric point even when repairs keep failing.
const DefaultRebuildThreshold = 64

// ufCore is the union-find state shared by the weak-connectivity
// tracker below and the strong-connectivity tracker
// (incremental_scc.go): the node-indirection table, the node arena,
// and the count/dirty/threshold bookkeeping. All access is from the
// graph's writer goroutine.
type ufCore struct {
	// node maps arena slot → union-find node, parallel to Graph.ids.
	// Entries for dead slots are stale and never read.
	node []int32
	// parent/size form the union-find node arena. size is only
	// meaningful at roots and counts live vertices (not nodes), so
	// detached vertices leave their abandoned nodes uncounted.
	parent []int32
	size   []int32

	count     int // live component count; exact iff valid && dirty == 0
	dirty     int // unrepaired mutations since the tracker was last exact
	threshold int // dirty level that forces a rebuild during mutation
	valid     bool

	// work is the adjacency entries scanned by the delete repair in
	// progress, charged against DeleteRepairBudget.
	work int
	// pending marks a RemoveVertex whose neighbours were collected
	// before its edges were detached; the repair is owed once they are.
	pending     bool
	pendingRoot int32
}

// newNode appends a fresh singleton node to the node arena.
func (t *ufCore) newNode() int32 {
	n := int32(len(t.parent))
	t.parent = append(t.parent, n)
	t.size = append(t.size, 1)
	return n
}

// find returns x's root, halving the path as it goes.
func (t *ufCore) find(x int32) int32 {
	for t.parent[x] != x {
		t.parent[x] = t.parent[t.parent[x]]
		x = t.parent[x]
	}
	return x
}

// union joins the components of nodes a and b (union by size),
// decrementing the count when they were distinct.
func (t *ufCore) union(a, b int32) {
	ra, rb := t.find(a), t.find(b)
	if ra == rb {
		return
	}
	if t.size[ra] < t.size[rb] {
		ra, rb = rb, ra
	}
	t.parent[rb] = ra
	t.size[ra] += t.size[rb]
	t.count--
}

// charge adds n scanned adjacency entries to the repair in progress,
// reporting whether it is still within DeleteRepairBudget.
func (t *ufCore) charge(n int) bool {
	t.work += n
	return t.work <= DeleteRepairBudget
}

// maintained reports whether the tracker is built and exact, i.e.
// mutation hooks should apply precise maintenance.
func (t *ufCore) maintained() bool { return t.valid && t.dirty == 0 }

// Search-group states for the WCC split search.
const (
	groupOpen      uint8 = iota // still expanding
	groupBlocked                // next expansion would overrun the budget
	groupExhausted              // enumerated a whole component
)

// wccTracker is the incremental weak-connectivity state: the shared
// union-find core plus the scratch of the delete-repair split search.
type wccTracker struct {
	ufCore

	// mark/label are indexed by slot: a vertex was reached by the
	// current search iff mark == epoch, and label then names the side
	// (source index) that reached it first.
	mark  []uint32
	label []int32
	epoch uint32
	src   []int32 // search sources (slots), one side each
	seen  []int32 // every vertex reached, sources included

	// Per-side state, indexed by source index. group is a union-find
	// over sides whose searches met; the rest is meaningful at group
	// roots. stacks holds a side's vertices still to expand, heavy its
	// deferred hubs.
	group  []int32
	state  []uint8
	fresh  []int32
	stacks [][]int32
	heavy  [][]int32
	open   []int32 // sides still expanding, compacted every round
	live   int     // sides neither exhausted nor merged away
}

// begin starts a delete repair over an arena of n slots: a new search
// epoch with no sources and a fresh work budget.
func (t *wccTracker) begin(n int) {
	if len(t.mark) < n {
		c := n + n/2 // headroom: the arena creeps one slot at a time
		t.mark = make([]uint32, c)
		t.label = make([]int32, c)
		t.epoch = 0
	}
	if t.epoch == ^uint32(0) {
		clear(t.mark)
		t.epoch = 0
	}
	t.epoch++
	t.src = t.src[:0]
	t.seen = t.seen[:0]
	t.work = 0
}

// addSource makes slot s a search side unless it already is one.
func (t *wccTracker) addSource(s int32) {
	if t.mark[s] == t.epoch {
		return
	}
	t.mark[s] = t.epoch
	t.label[s] = int32(len(t.src))
	t.src = append(t.src, s)
	t.seen = append(t.seen, s)
}

// side returns the group root of side i.
func (t *wccTracker) side(i int32) int32 {
	for t.group[i] != i {
		t.group[i] = t.group[t.group[i]]
		i = t.group[i]
	}
	return i
}

// SetConnectivity selects the connectivity mode and the rebuild
// threshold (<= 0 selects DefaultRebuildThreshold). Like mutation, it
// must be called from the graph's writer goroutine; it discards any
// tracker state, so the next query rebuilds from scratch.
func (g *Graph) SetConnectivity(mode ConnectivityMode, rebuildThreshold int) {
	g.connMode = mode
	if rebuildThreshold <= 0 {
		rebuildThreshold = DefaultRebuildThreshold
	}
	g.wcc = &wccTracker{ufCore: ufCore{threshold: rebuildThreshold}}
}

// Connectivity returns the graph's connectivity mode.
func (g *Graph) Connectivity() ConnectivityMode { return g.connMode }

// ConnectedComponentCount returns the number of weakly connected
// components through the configured mode. Writer goroutine only. In
// verify mode it also walks the graph and panics on divergence.
func (g *Graph) ConnectedComponentCount() int {
	if g.wcc == nil {
		g.SetConnectivity(g.connMode, 0)
	}
	t := g.wcc
	if !t.maintained() {
		g.rebuildWCC()
	}
	if g.connMode == ConnectivityVerify {
		if walk := g.WeaklyConnectedComponentsCached().Count; walk != t.count {
			panic(fmt.Sprintf(
				"heapgraph: connectivity verify divergence: incremental=%d walk=%d (V=%d E=%d gen=%d)",
				t.count, walk, g.NumVertices(), g.NumEdges(), g.Generation()))
		}
	}
	return t.count
}

// rebuildWCC re-unions the tracker from the live adjacency: one fresh
// node per live vertex, one union per distinct out-edge (the symmetry
// invariant makes the in-adjacency redundant). Existing slice capacity
// is reused, so rebuilds after the first allocate only when the arena
// has grown. This is also the compaction path: it resets the node
// arena to exactly one node per live vertex.
func (g *Graph) rebuildWCC() {
	t := g.wcc
	t.node = sizeI32(t.node, len(g.ids))
	t.parent = t.parent[:0]
	t.size = t.size[:0]
	t.count = 0
	t.pending = false
	for s := range g.ids {
		if !g.alive[s] {
			continue
		}
		t.node[s] = t.newNode()
		t.count++
	}
	for s := range g.ids {
		if !g.alive[s] {
			continue
		}
		self := g.ids[s]
		a := t.node[s]
		g.outAdj[s].each(func(id VertexID, _ int32) bool {
			if id != self {
				t.union(a, t.node[g.slotOf(id)])
			}
			return true
		})
	}
	t.dirty = 0
	t.valid = true
}

// wccAddVertex is the AddVertex hook: a new vertex is a new singleton
// component.
func (g *Graph) wccAddVertex(s int32) {
	t := g.wcc
	if t == nil || !t.maintained() {
		return
	}
	if int(s) >= len(t.node) {
		// The vertex arena grew; mirror it. Amortized like append.
		t.node = append(t.node, 0)
	}
	t.node[s] = t.newNode()
	t.count++
	g.wccSettle()
}

// wccAddEdge is the AddEdge hook (u != v slots; self-loops never
// change weak connectivity and are filtered by the caller).
func (g *Graph) wccAddEdge(us, vs int32) {
	if t := g.wcc; t != nil && t.maintained() {
		t.union(t.node[us], t.node[vs])
	}
}

// wccRemoveEdge is the RemoveEdge hook, called after the adjacency
// decrement for a non-self-loop edge u→v. If the endpoints remain
// directly linked nothing changed; otherwise the split search decides
// whether the cut disconnected them.
func (g *Graph) wccRemoveEdge(u, v VertexID, us, vs int32) {
	t := g.wcc
	if t == nil || !t.valid {
		return // never queried yet; the first query builds from scratch
	}
	if t.dirty > 0 {
		t.dirty++
		return
	}
	if g.outAdj[us].get(v) > 0 || g.outAdj[vs].get(u) > 0 {
		return // still directly linked in some direction
	}
	root := t.find(t.node[us])
	t.begin(len(g.ids))
	t.addSource(us)
	t.addSource(vs)
	if !g.wccSplit(root) {
		t.dirty++
	}
}

// wccRemoveVertex is the first half of the RemoveVertex hook. It must
// run BEFORE the edges are detached: it collects the vertex's distinct
// neighbours as the sides of the split search, which
// wccRemoveVertexDone runs once the edges are gone. An isolated vertex
// is its own component; a vertex with one distinct neighbour is a leaf
// whose removal never disconnects anything.
func (g *Graph) wccRemoveVertex(v VertexID, s int32) {
	t := g.wcc
	if t == nil || !t.valid {
		return
	}
	if t.dirty > 0 {
		t.dirty++
		return
	}
	root := t.find(t.node[s])
	t.size[root]--
	t.begin(len(g.ids))
	collect := func(id VertexID, _ int32) bool {
		if id != v {
			t.addSource(g.slotOf(id))
		}
		return t.charge(1)
	}
	g.outAdj[s].each(collect)
	if t.work <= DeleteRepairBudget {
		g.inAdj[s].each(collect)
	}
	switch {
	case t.work > DeleteRepairBudget:
		t.dirty++
	case len(t.src) == 0:
		t.count-- // isolated: its component was exactly itself
	case len(t.src) >= 2:
		t.pending, t.pendingRoot = true, root
	}
}

// wccRemoveVertexDone is the second half of the RemoveVertex hook,
// run after the vertex's edges are detached: the split search over
// the neighbours collected by wccRemoveVertex.
func (g *Graph) wccRemoveVertexDone() {
	t := g.wcc
	if t == nil || !t.pending {
		return
	}
	t.pending = false
	if !g.wccSplit(t.pendingRoot) {
		t.dirty++
	}
}

// wccSplit runs the interleaved split search from the sources in t.src
// (>= 2, all in the component whose union-find root is root, already
// marked) over the post-delete adjacency, and detaches every side that
// turns out to be a separate component onto a fresh node. It reports
// false — having changed nothing — when the budget runs out first.
//
// Hub vertices (a spilled adjacency set) are deferred: a side expands
// them only when no side has anything lighter left. Discovering a hub
// already marks it, so two sides that both reach the same container
// object meet without either paying for its neighbour list.
func (g *Graph) wccSplit(root int32) bool {
	t := g.wcc
	k := len(t.src)
	t.group = sizeI32(t.group, k)
	t.fresh = sizeI32(t.fresh, k)
	if cap(t.state) < k {
		t.state = make([]uint8, k)
	}
	t.state = t.state[:k]
	for len(t.stacks) < k {
		t.stacks = append(t.stacks, nil)
		t.heavy = append(t.heavy, nil)
	}
	t.open = t.open[:0]
	for i, s := range t.src {
		t.group[i] = int32(i)
		t.state[i] = groupOpen
		t.stacks[i] = append(t.stacks[i][:0], s)
		t.heavy[i] = t.heavy[i][:0]
		t.open = append(t.open, int32(i))
	}

	// live counts sides that are neither exhausted nor merged away; the
	// search is done when at most one remains, since that one is what
	// is left of the old component.
	t.live = k
	for t.live > 1 {
		progressed := false
		for _, i := range t.open {
			if t.live <= 1 {
				break
			}
			if t.group[i] != i || t.state[i] != groupOpen || len(t.stacks[i]) == 0 {
				continue
			}
			st := t.stacks[i]
			s := st[len(st)-1]
			t.stacks[i] = st[:len(st)-1]
			progressed = true
			if g.outAdj[s].spill != nil || g.inAdj[s].spill != nil {
				t.heavy[i] = append(t.heavy[i], s)
				continue
			}
			if !g.wccExpand(i, s) {
				t.stacks[i] = append(t.stacks[i], s)
				t.state[i] = groupBlocked // may still survive as the remainder
			}
		}
		// Drop the sides that stopped expanding, so rounds cost the
		// open sides only.
		n := 0
		for _, i := range t.open {
			if t.group[i] == i && t.state[i] == groupOpen {
				t.open[n] = i
				n++
			}
		}
		t.open = t.open[:n]
		if progressed || t.live <= 1 {
			continue
		}
		// Only hubs are left to expand: take one from the first side
		// that has any.
		for _, i := range t.open {
			if h := t.heavy[i]; len(h) > 0 {
				s := h[len(h)-1]
				t.heavy[i] = h[:len(h)-1]
				if !g.wccExpand(i, s) {
					t.heavy[i] = append(t.heavy[i], s)
					t.state[i] = groupBlocked
				}
				progressed = true
				break
			}
		}
		if !progressed {
			return false // every open side is blocked by the budget
		}
	}

	// Every exhausted side is a component of its own; the one live
	// side keeps the old node.
	for i := int32(0); int(i) < k; i++ {
		if t.group[i] == i && t.state[i] == groupExhausted {
			n := t.newNode()
			t.size[n] = 0
			t.fresh[i] = n
			t.count++
		}
	}
	for _, s := range t.seen {
		if h := t.side(t.label[s]); t.state[h] == groupExhausted {
			n := t.fresh[h]
			t.node[s] = n
			t.size[n]++
			t.size[root]--
		}
	}
	return true
}

// wccExpand scans the neighbours of s for search side i: unreached
// vertices join the side, and a vertex another side reached merges
// the two. It reports false, consuming nothing, when the scan would
// overrun the budget; otherwise it also retires side i once it has
// nothing left to expand.
func (g *Graph) wccExpand(i, s int32) bool {
	t := g.wcc
	d := g.outAdj[s].distinct() + g.inAdj[s].distinct()
	if t.work+d > DeleteRepairBudget {
		return false
	}
	t.work += d
	self := g.ids[s]
	visit := func(id VertexID, _ int32) bool {
		if id == self {
			return true
		}
		w := g.slotOf(id)
		if t.mark[w] != t.epoch {
			t.mark[w] = t.epoch
			t.label[w] = i
			t.stacks[i] = append(t.stacks[i], w)
			t.seen = append(t.seen, w)
			return true
		}
		if h := t.side(t.label[w]); h != i {
			// The searches met: one component. Side i absorbs h.
			t.group[h] = i
			t.stacks[i] = append(t.stacks[i], t.stacks[h]...)
			t.heavy[i] = append(t.heavy[i], t.heavy[h]...)
			t.stacks[h] = t.stacks[h][:0]
			t.heavy[h] = t.heavy[h][:0]
			if t.state[h] == groupBlocked {
				t.state[i] = groupBlocked
			}
			t.live--
		}
		return true
	}
	g.outAdj[s].each(visit)
	g.inAdj[s].each(visit)
	if t.state[i] == groupOpen && len(t.stacks[i]) == 0 && len(t.heavy[i]) == 0 {
		t.state[i] = groupExhausted
		t.live--
	}
	return true
}

// wccSettle runs at the END of a mutation: once the dirty counter has
// spent the rebuild budget, re-union now rather than at the next
// query, keeping worst-case query latency flat; and when abandoned
// nodes dominate the node arena, compact it the same way, bounding its
// growth under split-heavy churn. It must not run mid-mutation —
// wccRemoveVertex collects before the edges are detached, and a
// rebuild at that point would capture the half-removed vertex.
func (g *Graph) wccSettle() {
	t := g.wcc
	if t != nil && t.valid && (t.dirty >= t.threshold || len(t.parent) > 4*g.NumVertices()+64) {
		g.rebuildWCC()
	}
}

// sizeI32 returns a slice of length n, reusing s's capacity when it
// suffices. Contents are unspecified; callers overwrite every entry
// they read.
func sizeI32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}
