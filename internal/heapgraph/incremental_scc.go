package heapgraph

// This file implements incremental strong-connectivity tracking, the
// SCC sibling of the weak-connectivity tracker in incremental.go. It
// shares the union-find core (node indirection, growable node arena,
// dirty/threshold bookkeeping) and the ConnectivityMode machinery, and
// removes the last O(V+E) walk from the extended metric suite: with
// both trackers on, a metric point costs O(churn), never O(heap).
//
// Strong connectivity is harder than weak on both mutation kinds:
//
// Edge inserts. Adding u→v merges SCCs exactly when v already reaches
// u; every SCC on a v⇝u path joins u's SCC. The tracker answers this
// with a bounded two-pass probe (sccAddEdge): a forward search from v
// that treats SCC(u) as a single super-node — members of SCC(u) are
// recorded as hits but never expanded — collecting the visited set F,
// then a backward closure over in-edges restricted to F from the
// vertices that touched SCC(u). Every vertex in F that reaches SCC(u)
// lies on a v⇝u path and is merged into SCC(u). The result is EXACT,
// not heuristic: in the condensation DAG a path from SCC(v) to SCC(u)
// cannot pass through SCC(u) as an intermediate (the DAG is acyclic),
// so refusing to expand SCC(u) members cannot hide any merge
// candidate. The probe charges every adjacency entry it scans against
// a budget (DefaultSCCProbeBudget); exceeding it abandons the probe
// and marks the tracker dirty — the common fast paths (edge into a
// fresh object, edge inside an existing SCC) complete in O(1)-ish
// work, and pathological hub fan-outs degrade to the amortized
// rebuild instead of an unbounded walk on the mutation path.
//
// Deletes. Union-find cannot split, so deletes are repaired locally:
//
//   - removing an edge with a parallel edge remaining: no-op;
//   - removing a CROSS-SCC edge: exact no-op — a cycle through the
//     edge would have put its endpoints in one SCC already, so no
//     cycle dies and no SCC can merge by losing an edge;
//   - removing a vertex whose SCC has size 1: exact count decrement —
//     no cycle passes through a singleton-SCC vertex, so every other
//     SCC keeps its internal cycles intact (this covers isolated
//     vertices and every chain/tree/DAG vertex regardless of degree);
//   - removing an INTRA-SCC edge, or a member of a multi-vertex SCC,
//     can only split that one SCC: every other SCC keeps its cycles.
//     A reachability check inside the SCC first settles the common
//     case where it stays whole (sccRemoveEdge and
//     sccRemoveVertexDone give the conditions). Otherwise the tracker
//     enumerates the SCC's surviving members with an undirected
//     search restricted to the SCC — from the edge's tail (an SCC
//     minus one edge stays weakly connected, since every edge of an
//     SCC lies on a cycle), or from the removed vertex's in-neighbours
//     inside the SCC (every member reaches the removed vertex through
//     one of them) — and re-runs Tarjan over just those members,
//     giving each resulting SCC its own node.
//
// The checks and the enumeration charge every adjacency entry they
// scan against DeleteRepairBudget; an SCC too large for it marks the
// tracker dirty instead. Dirty states amortize exactly like the WCC tracker: the
// dirty counter forces a rebuild at the configured threshold during
// mutation (sccSettle — note AddEdge also settles, because probe
// bailouts dirty on *insert*), and queries on a dirty tracker rebuild
// lazily first. The rebuild is the same Tarjan routine run over every
// live vertex with at least one edge (isolated vertices become
// singleton SCCs directly, without Tarjan frames), using tracker-owned
// scratch — a CSR copy of the members' out-edges plus the
// index/lowlink/stack arrays — so steady-state repairs and rebuilds
// reuse capacity and allocate nothing.
//
// Like the WCC tracker, only Count is maintained (the suite consumes
// SCC per 100 vertices); Largest stays a walk statistic.

import "fmt"

// DefaultSCCProbeBudget caps the adjacency entries one edge-insert
// probe may scan (both passes combined) before giving up and marking
// the tracker dirty. The budget bounds the mutation-path cost at hub
// vertices; the overwhelmingly common insert shapes (fresh target,
// intra-SCC edge, short cycle closure) complete well under it.
const DefaultSCCProbeBudget = 256

// sccFrame is one iterative-Tarjan stack frame: a vertex slot and the
// next unexplored position within its CSR edge range.
type sccFrame struct {
	v   int32
	pos int32
}

// sccTracker is the incremental strong-connectivity state. All access
// is from the graph's writer goroutine.
type sccTracker struct {
	ufCore

	budget int // probe budget (adjacency entries per insert probe)

	// Slot-indexed stamp arrays. visit marks the probe's forward set F,
	// or membership in the SCC being recomputed; reach marks the
	// probe's backward closure. One stamp increment invalidates both.
	visit []uint32
	reach []uint32
	loc   []int32 // member slot → Tarjan-local index (valid where visit == stamp)
	stamp uint32
	queue []int32 // worklist, reused by the probe passes and the repair searches
	fset  []int32 // the probe's forward set F, in visit order
	seeds []int32 // F members with an edge into SCC(u)
	// ins/outs are a deleted vertex's in- and out-neighbours inside its
	// SCC (outs also carries an edge cut's head).
	ins  []int32
	outs []int32

	// members lists the slots Tarjan runs over (one SCC's survivors in
	// a repair, every non-isolated live vertex in a rebuild); comp
	// receives each member's SCC ordinal.
	members []int32
	comp    []int32

	// Tarjan scratch: a CSR copy of the members' out-edges in local
	// indices, and the iterative-Tarjan arrays.
	offs    []int32
	targets []int32
	index   []int32
	low     []int32
	onStack []bool
	frames  []sccFrame
	stack   []int32
}

// SetSCC selects how StronglyConnectedComponentCount obtains the SCC
// count — the strong-connectivity analogue of SetConnectivity, with
// identical mode semantics and flag spellings — and the rebuild
// threshold (<= 0 selects DefaultRebuildThreshold). Writer goroutine
// only; it discards any tracker state.
func (g *Graph) SetSCC(mode ConnectivityMode, rebuildThreshold int) {
	g.sccMode = mode
	if rebuildThreshold <= 0 {
		rebuildThreshold = DefaultRebuildThreshold
	}
	g.scc = &sccTracker{
		ufCore: ufCore{threshold: rebuildThreshold},
		budget: DefaultSCCProbeBudget,
	}
}

// SCCMode returns the graph's strong-connectivity mode.
func (g *Graph) SCCMode() ConnectivityMode { return g.sccMode }

// ParseSCC resolves a -scc flag value. The mode spellings are shared
// with ParseConnectivity; only the error wording differs.
func ParseSCC(s string) (ConnectivityMode, error) {
	m, err := ParseConnectivity(s)
	if err != nil {
		return 0, fmt.Errorf("heapgraph: unknown scc mode %q (want incremental or verify)", s)
	}
	return m, nil
}

// SetSCCProbeBudget overrides the edge-insert probe budget (<= 0
// restores DefaultSCCProbeBudget). Exposed for tests; the default is
// right for the paper's heap shapes.
func (g *Graph) SetSCCProbeBudget(n int) {
	if g.scc == nil {
		g.SetSCC(g.sccMode, 0)
	}
	if n <= 0 {
		n = DefaultSCCProbeBudget
	}
	g.scc.budget = n
}

// StronglyConnectedComponentCount returns the number of strongly
// connected components through the configured mode. Writer goroutine
// only. In verify mode it also runs the Tarjan walk and panics on
// divergence.
func (g *Graph) StronglyConnectedComponentCount() int {
	if g.scc == nil {
		g.SetSCC(g.sccMode, 0)
	}
	t := g.scc
	if !t.maintained() {
		g.rebuildSCC()
	}
	if g.sccMode == ConnectivityVerify {
		if walk := g.StronglyConnectedComponentsCached().Count; walk != t.count {
			panic(fmt.Sprintf(
				"heapgraph: scc verify divergence: incremental=%d walk=%d (V=%d E=%d gen=%d)",
				t.count, walk, g.NumVertices(), g.NumEdges(), g.Generation()))
		}
	}
	return t.count
}

// sccAddVertex is the AddVertex hook: a new vertex is a new singleton
// SCC.
func (g *Graph) sccAddVertex(s int32) {
	t := g.scc
	if t == nil || !t.maintained() {
		return
	}
	if int(s) >= len(t.node) {
		t.node = append(t.node, 0)
	}
	t.node[s] = t.newNode()
	t.count++
	g.sccSettle()
}

// sccAddEdge is the AddEdge hook (u != v slots; a self-loop never
// changes the SCC partition and is filtered by the caller). If u and v
// are already strongly connected the insert is a no-op; otherwise the
// bounded probe decides exactly which SCCs the new edge merges, or
// dirties the tracker when the probe budget runs out.
func (g *Graph) sccAddEdge(us, vs int32) {
	t := g.scc
	if t == nil || !t.maintained() {
		return
	}
	ru := t.find(t.node[us])
	if ru == t.find(t.node[vs]) {
		return // intra-SCC edge: partition unchanged
	}
	g.sccProbe(us, vs, ru)
}

// sccProbe implements the two-pass reverse-reachability probe for a
// new edge u→v whose endpoints are in distinct SCCs (ru = root of
// SCC(u)). See the file comment for the exactness argument.
func (g *Graph) sccProbe(us, vs, ru int32) {
	t := g.scc
	t.ensureScratch(len(g.ids))
	work, budget := 0, t.budget
	hit, bail := false, false

	// Pass 1: forward search from v over out-edges, never expanding
	// members of SCC(u). F = every visited vertex outside SCC(u).
	t.queue = append(t.queue[:0], vs)
	t.fset = append(t.fset[:0], vs)
	t.seeds = t.seeds[:0]
	t.visit[vs] = t.stamp
	for len(t.queue) > 0 && !bail {
		s := t.queue[len(t.queue)-1]
		t.queue = t.queue[:len(t.queue)-1]
		self := g.ids[s]
		touched := false
		g.outAdj[s].each(func(id VertexID, _ int32) bool {
			if work++; work > budget {
				bail = true
				return false
			}
			if id == self {
				return true
			}
			ws := g.slotOf(id)
			if t.visit[ws] == t.stamp {
				return true
			}
			if t.find(t.node[ws]) == ru {
				hit = true
				touched = true // s has an edge into SCC(u)
				return true
			}
			t.visit[ws] = t.stamp
			t.queue = append(t.queue, ws)
			t.fset = append(t.fset, ws)
			return true
		})
		if touched {
			t.seeds = append(t.seeds, s)
		}
	}
	if bail {
		t.dirty++
		return
	}
	if !hit {
		return // v does not reach u: no cycle, exact no-op
	}

	// Pass 2: backward closure inside F from the seeds. A vertex of F
	// reaches SCC(u) iff some F-path leads from it to a seed, because
	// the forward pass made F closed under out-edges (modulo edges
	// into SCC(u), which the seeds account for).
	t.queue = t.queue[:0]
	for _, s := range t.seeds {
		if t.reach[s] != t.stamp {
			t.reach[s] = t.stamp
			t.queue = append(t.queue, s)
		}
	}
	for len(t.queue) > 0 && !bail {
		s := t.queue[len(t.queue)-1]
		t.queue = t.queue[:len(t.queue)-1]
		g.inAdj[s].each(func(id VertexID, _ int32) bool {
			if work++; work > budget {
				bail = true
				return false
			}
			ws := g.slotOf(id)
			if t.visit[ws] == t.stamp && t.reach[ws] != t.stamp {
				t.reach[ws] = t.stamp
				t.queue = append(t.queue, ws)
			}
			return true
		})
	}
	if bail {
		t.dirty++
		return
	}

	// Merge: every F vertex that reaches SCC(u) is on a v⇝u path and
	// now shares a cycle with u through the new edge.
	for _, s := range t.fset {
		if t.reach[s] == t.stamp {
			t.union(t.node[s], t.node[us])
		}
	}
}

// ensureScratch sizes the slot-indexed stamp arrays to the vertex
// arena, handles stamp wraparound, and starts a new stamp. Called at
// the start of a probe, repair or rebuild, so growth never invalidates
// in-flight marks. Growth takes 50% headroom: the arena creeps one
// slot per AddVertex while the heap grows, and exact-fit arrays would
// reallocate megabytes on every mutation of that phase.
func (t *sccTracker) ensureScratch(n int) {
	if len(t.visit) < n {
		c := n + n/2
		t.visit = make([]uint32, c)
		t.reach = make([]uint32, c)
		t.loc = make([]int32, c)
		t.stamp = 0
	}
	if t.stamp == ^uint32(0) {
		clear(t.visit)
		clear(t.reach)
		t.stamp = 0
	}
	t.stamp++
}

// addMember puts slot s in the member set unless it already is.
func (t *sccTracker) addMember(s int32) {
	if t.visit[s] != t.stamp {
		t.visit[s] = t.stamp
		t.members = append(t.members, s)
	}
}

// sccRemoveEdge is the RemoveEdge hook, called after the adjacency
// decrement for a non-self-loop edge u→v (slots us→vs). Exact no-ops:
// a parallel edge remains, or the edge was cross-SCC (losing it cannot
// split any cycle). An intra-SCC edge leaves the SCC intact iff u
// still reaches v inside it — every cycle through the edge can then
// detour — and otherwise the SCC is recomputed.
func (g *Graph) sccRemoveEdge(v VertexID, us, vs int32) {
	t := g.scc
	if t == nil || !t.valid {
		return // never queried yet; the first query builds from scratch
	}
	if t.dirty > 0 {
		t.dirty++
		return
	}
	if g.outAdj[us].get(v) > 0 {
		return // parallel edge remains: same reachability
	}
	root := t.find(t.node[us])
	if root != t.find(t.node[vs]) {
		return // cross-SCC edge: no cycle passed through it
	}
	t.work = 0
	t.outs = append(t.outs[:0], vs)
	intact, ok := g.sccReaches(root, us, t.outs, true)
	if ok && !intact {
		t.ensureScratch(len(g.ids))
		t.members = t.members[:0]
		t.addMember(us)
		ok = g.sccSplit(root)
	}
	if !ok {
		t.dirty++
	}
}

// sccRemoveVertex is the first half of the RemoveVertex hook. It must
// run BEFORE the edges are detached. A vertex that is its own SCC
// lies on no cycle, so every other SCC survives intact and the count
// just drops by one; so does a member of a larger SCC whose only
// neighbour inside it is a single vertex (every path through it
// returns where it came from). Otherwise it collects the vertex's
// in- and out-neighbours inside the SCC for sccRemoveVertexDone.
func (g *Graph) sccRemoveVertex(v VertexID, s int32) {
	t := g.scc
	if t == nil || !t.valid {
		return
	}
	if t.dirty > 0 {
		t.dirty++
		return
	}
	r := t.find(t.node[s])
	t.size[r]--
	if t.size[r] == 0 {
		t.count--
		return
	}
	t.ensureScratch(len(g.ids))
	t.work = 0
	t.ins, t.outs = t.ins[:0], t.outs[:0]
	g.inAdj[s].each(func(id VertexID, _ int32) bool {
		if w := g.slotOf(id); id != v && t.visit[w] != t.stamp && t.find(t.node[w]) == r {
			t.visit[w] = t.stamp
			t.ins = append(t.ins, w)
		}
		return t.charge(1)
	})
	g.outAdj[s].each(func(id VertexID, _ int32) bool {
		if w := g.slotOf(id); id != v && t.reach[w] != t.stamp && t.find(t.node[w]) == r {
			t.reach[w] = t.stamp
			t.outs = append(t.outs, w)
		}
		return t.charge(1)
	})
	switch {
	case t.work > DeleteRepairBudget:
		t.dirty++
	case len(t.ins) == 1 && len(t.outs) == 1 && t.ins[0] == t.outs[0]:
		// A leaf of the SCC: nothing else depended on it.
	default:
		t.pending, t.pendingRoot = true, r
	}
}

// sccRemoveVertexDone is the second half of the RemoveVertex hook,
// run after the vertex's edges are detached. With P and Q the removed
// vertex's in- and out-neighbours inside its SCC, the rest of the SCC
// stays strongly connected iff some q0 in Q reaches all of Q and all
// of P reach q0: any path that ran p→x→q can detour p⇝q0⇝q. If not,
// the SCC is recomputed from P (every member reached the removed
// vertex through one of them).
func (g *Graph) sccRemoveVertexDone() {
	t := g.scc
	if t == nil || !t.pending {
		return
	}
	t.pending = false
	root := t.pendingRoot
	q0 := t.outs[0]
	intact, ok := g.sccReaches(root, q0, t.outs, true)
	if ok && intact {
		intact, ok = g.sccReaches(root, q0, t.ins, false)
	}
	if ok && !intact {
		t.ensureScratch(len(g.ids))
		t.members = t.members[:0]
		for _, p := range t.ins {
			t.addMember(p)
		}
		ok = g.sccSplit(root)
	}
	if !ok {
		t.dirty++
	}
}

// sccReaches reports whether a search from slot s — over out-edges if
// forward, else in-edges — restricted to the SCC rooted at root
// reaches every slot in targets. ok is false when the search overruns
// DeleteRepairBudget first.
func (g *Graph) sccReaches(root, s int32, targets []int32, forward bool) (reached, ok bool) {
	t := g.scc
	t.ensureScratch(len(g.ids))
	left := 0
	for _, w := range targets {
		if t.reach[w] != t.stamp && w != s {
			t.reach[w] = t.stamp
			left++
		}
	}
	t.visit[s] = t.stamp
	t.queue = append(t.queue[:0], s)
	for len(t.queue) > 0 && left > 0 {
		x := t.queue[len(t.queue)-1]
		t.queue = t.queue[:len(t.queue)-1]
		adj := &g.inAdj[x]
		if forward {
			adj = &g.outAdj[x]
		}
		ok = true
		adj.each(func(id VertexID, _ int32) bool {
			if ok = t.charge(1); !ok {
				return false
			}
			w := g.slotOf(id)
			if t.visit[w] == t.stamp || t.find(t.node[w]) != root {
				return true
			}
			t.visit[w] = t.stamp
			if t.reach[w] == t.stamp {
				left--
			}
			t.queue = append(t.queue, w)
			return left > 0
		})
		if !ok {
			return false, false
		}
	}
	return left == 0, true
}

// sccSplit recomputes the SCC whose union-find root is root after a
// delete inside it: an undirected search restricted to the SCC grows
// t.members (seeded by the caller) to all of its surviving members,
// then Tarjan over just those members splits it, each resulting SCC
// on its own fresh node. It reports false — having changed nothing —
// when the search overruns DeleteRepairBudget.
func (g *Graph) sccSplit(root int32) bool {
	t := g.scc
	for i := 0; i < len(t.members); i++ {
		s := t.members[i]
		ok := true
		scan := func(id VertexID, _ int32) bool {
			if ok = t.charge(1); !ok {
				return false
			}
			if w := g.slotOf(id); t.visit[w] != t.stamp && t.find(t.node[w]) == root {
				t.addMember(w)
			}
			return true
		}
		g.outAdj[s].each(scan)
		if ok {
			g.inAdj[s].each(scan)
		}
		if !ok {
			return false
		}
	}
	n := g.sccComponents()
	if n == 1 {
		return true // still strongly connected
	}
	// The last SCC Tarjan emitted keeps the old node; the others get
	// fresh ones.
	base := int32(len(t.parent))
	for c := 1; c < n; c++ {
		t.size[t.newNode()] = 0
	}
	t.size[root] = 0
	last := int32(n - 1)
	for i, s := range t.members {
		nd := root
		if c := t.comp[i]; c != last {
			nd = base + c
		}
		t.node[s] = nd
		t.size[nd]++
	}
	t.count += n - 1
	return true
}

// sccSettle runs at the end of a mutation (deletes AND inserts — a
// probe bailout dirties on insert): once the dirty counter has spent
// the rebuild budget, rebuild now rather than at the next query,
// keeping worst-case query latency flat; and when abandoned nodes
// dominate the node arena, compact it the same way. Like wccSettle it
// must not run mid-mutation.
func (g *Graph) sccSettle() {
	t := g.scc
	if t != nil && t.valid && (t.dirty >= t.threshold || len(t.parent) > 4*g.NumVertices()+64) {
		g.rebuildSCC()
	}
}

// rebuildSCC recomputes the tracker from the live adjacency: isolated
// vertices (no edges in either direction) shortcut to singleton nodes,
// and Tarjan over every other live vertex gives one node per SCC. All
// scratch is tracker-owned and capacity-reused, so rebuilds after the
// first allocate only when the graph has grown. This is also the
// compaction path.
func (g *Graph) rebuildSCC() {
	t := g.scc
	t.node = sizeI32(t.node, len(g.ids))
	t.parent = t.parent[:0]
	t.size = t.size[:0]
	t.count = 0
	t.pending = false
	t.ensureScratch(len(g.ids))
	t.members = t.members[:0]
	for s := range g.ids {
		switch {
		case !g.alive[s]:
		case g.inDeg[s] == 0 && g.outDeg[s] == 0:
			t.node[s] = t.newNode()
			t.count++
		default:
			t.addMember(int32(s))
		}
	}
	n := g.sccComponents()
	base := int32(len(t.parent))
	for c := 0; c < n; c++ {
		t.size[t.newNode()] = 0
	}
	for i, s := range t.members {
		nd := base + t.comp[i]
		t.node[s] = nd
		t.size[nd]++
	}
	t.count += n
	t.dirty = 0
	t.valid = true
}

// sccComponents runs an iterative Tarjan over the subgraph induced by
// t.members (the slots marked with the current stamp), storing each
// member's SCC ordinal in t.comp and returning the number of SCCs.
func (g *Graph) sccComponents() int {
	t := g.scc
	n := len(t.members)
	for i, s := range t.members {
		t.loc[s] = int32(i)
	}
	// CSR copy of the members' out-edges that stay inside the set.
	t.offs = sizeI32(t.offs, n+1)
	t.targets = t.targets[:0]
	for i, s := range t.members {
		t.offs[i] = int32(len(t.targets))
		g.outAdj[s].each(func(id VertexID, _ int32) bool {
			if w := g.slotOf(id); t.visit[w] == t.stamp {
				t.targets = append(t.targets, t.loc[w])
			}
			return true
		})
	}
	t.offs[n] = int32(len(t.targets))

	t.comp = sizeI32(t.comp, n)
	t.index = sizeI32(t.index, n)
	t.low = sizeI32(t.low, n)
	if cap(t.onStack) < n {
		t.onStack = make([]bool, n)
	}
	t.onStack = t.onStack[:n]
	clear(t.index)
	clear(t.onStack)

	next, ncomp := int32(1), int32(0)
	t.stack = t.stack[:0]
	t.frames = t.frames[:0]
	for root := int32(0); int(root) < n; root++ {
		if t.index[root] != 0 {
			continue
		}
		t.index[root] = next
		t.low[root] = next
		next++
		t.stack = append(t.stack, root)
		t.onStack[root] = true
		t.frames = append(t.frames, sccFrame{v: root})
		for len(t.frames) > 0 {
			f := &t.frames[len(t.frames)-1]
			if base := t.offs[f.v]; base+f.pos < t.offs[f.v+1] {
				w := t.targets[base+f.pos]
				f.pos++
				if t.index[w] == 0 {
					t.index[w] = next
					t.low[w] = next
					next++
					t.stack = append(t.stack, w)
					t.onStack[w] = true
					t.frames = append(t.frames, sccFrame{v: w})
				} else if t.onStack[w] && t.index[w] < t.low[f.v] {
					t.low[f.v] = t.index[w]
				}
				continue
			}
			v := f.v
			t.frames = t.frames[:len(t.frames)-1]
			if len(t.frames) > 0 {
				if p := &t.frames[len(t.frames)-1]; t.low[v] < t.low[p.v] {
					t.low[p.v] = t.low[v]
				}
			}
			if t.low[v] == t.index[v] {
				for {
					w := t.stack[len(t.stack)-1]
					t.stack = t.stack[:len(t.stack)-1]
					t.onStack[w] = false
					t.comp[w] = ncomp
					if w == v {
						break
					}
				}
				ncomp++
			}
		}
	}
	return int(ncomp)
}
