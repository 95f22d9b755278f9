package heapgraph

// This file implements the on-demand whole-graph analyses backing
// HeapMD's extension metrics (paper Section 2.1 lists "the size and
// number of connected and strongly connected components" as candidate
// metrics beyond the degree suite). These walk the graph and are
// therefore much more expensive than the O(1) degree metrics; the
// logger only evaluates them when the extended metric set is enabled.
// The arena layout pays off here too: traversal state is slot-indexed
// slices rather than the maps the old map-of-vertices layout forced.

// ComponentStats summarizes a components decomposition.
type ComponentStats struct {
	Count   int // number of components
	Largest int // vertex count of the largest component
}

// WeaklyConnectedComponents computes the number and largest size of
// weakly connected components (edge direction ignored). Isolated
// vertices are singleton components.
func (g *Graph) WeaklyConnectedComponents() ComponentStats {
	seen := make([]bool, len(g.ids))
	var stats ComponentStats
	stack := make([]int32, 0, 64)
	for root := range g.ids {
		if !g.alive[root] || seen[root] {
			continue
		}
		stats.Count++
		size := 0
		stack = append(stack[:0], int32(root))
		seen[root] = true
		for len(stack) > 0 {
			s := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			size++
			visit := func(id VertexID, _ int32) bool {
				w := g.slotOf(id)
				if !seen[w] {
					seen[w] = true
					stack = append(stack, w)
				}
				return true
			}
			g.outAdj[s].each(visit)
			g.inAdj[s].each(visit)
		}
		if size > stats.Largest {
			stats.Largest = size
		}
	}
	return stats
}

// StronglyConnectedComponents computes the number and largest size of
// strongly connected components using an iterative Tarjan algorithm.
// The iterative formulation matters: heap graphs routinely contain
// list structures hundreds of thousands of vertices long, which would
// overflow the goroutine stack under naive recursion.
func (g *Graph) StronglyConnectedComponents() ComponentStats {
	n := len(g.ids)
	if g.NumVertices() == 0 {
		return ComponentStats{}
	}
	index := make([]int32, n) // discovery index, 0 = unvisited
	lowlink := make([]int32, n)
	onStack := make([]bool, n)
	sccStack := make([]int32, 0, 64)
	next := int32(1)

	var stats ComponentStats

	// frame emulates Tarjan's recursion: succs holds the successor
	// slots still to be explored.
	type frame struct {
		v     int32
		succs []int32
		pos   int
	}

	succsOf := func(s int32) []int32 {
		d := g.outAdj[s].distinct()
		if d == 0 {
			return nil
		}
		out := make([]int32, 0, d)
		g.outAdj[s].each(func(id VertexID, _ int32) bool {
			out = append(out, g.slotOf(id))
			return true
		})
		return out
	}

	for root := 0; root < n; root++ {
		if !g.alive[root] || index[root] != 0 {
			continue
		}
		stack := []frame{{v: int32(root), succs: succsOf(int32(root))}}
		index[root] = next
		lowlink[root] = next
		next++
		sccStack = append(sccStack, int32(root))
		onStack[root] = true

		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			if f.pos < len(f.succs) {
				w := f.succs[f.pos]
				f.pos++
				if index[w] == 0 {
					index[w] = next
					lowlink[w] = next
					next++
					sccStack = append(sccStack, w)
					onStack[w] = true
					stack = append(stack, frame{v: w, succs: succsOf(w)})
				} else if onStack[w] && index[w] < lowlink[f.v] {
					lowlink[f.v] = index[w]
				}
				continue
			}
			// All successors explored: pop the frame.
			v := f.v
			stack = stack[:len(stack)-1]
			if len(stack) > 0 {
				parent := stack[len(stack)-1].v
				if lowlink[v] < lowlink[parent] {
					lowlink[parent] = lowlink[v]
				}
			}
			if lowlink[v] == index[v] {
				// v is an SCC root: pop its component.
				size := 0
				for {
					w := sccStack[len(sccStack)-1]
					sccStack = sccStack[:len(sccStack)-1]
					onStack[w] = false
					size++
					if w == v {
						break
					}
				}
				stats.Count++
				if size > stats.Largest {
					stats.Largest = size
				}
			}
		}
	}
	return stats
}

// WeaklyConnectedComponentsCached is WeaklyConnectedComponents with
// generation-counter memoization: when the graph has not mutated since
// the last cached computation, the cached stats are returned without a
// walk. Metric evaluation calls this so that back-to-back samples over
// an idle graph cost O(1) instead of O(V+E). Like mutation, it must
// only be called from the graph's writer goroutine.
func (g *Graph) WeaklyConnectedComponentsCached() ComponentStats {
	if gen := g.Generation(); g.wccCache.valid && g.wccCache.gen == gen {
		return g.wccCache.stats
	}
	st := g.WeaklyConnectedComponents()
	g.wccCache = componentCache{gen: g.Generation(), stats: st, valid: true}
	return st
}

// StronglyConnectedComponentsCached is StronglyConnectedComponents
// with the same generation-counter memoization; writer goroutine only.
func (g *Graph) StronglyConnectedComponentsCached() ComponentStats {
	if gen := g.Generation(); g.sccCache.valid && g.sccCache.gen == gen {
		return g.sccCache.stats
	}
	st := g.StronglyConnectedComponents()
	g.sccCache = componentCache{gen: g.Generation(), stats: st, valid: true}
	return st
}

// CheckInvariants verifies the incremental bookkeeping against a full
// recomputation: histogram populations, the in==out counter, the edge
// total, the VertexID → slot index, and the freelist must all match
// what a fresh scan of the arena produces. It returns a non-empty
// description of the first violation found, or "" when consistent.
// Tests and the fuzzing harness call this after mutation sequences.
func (g *Graph) CheckInvariants() string {
	var inHist, outHist [maxTracked + 2]int
	eq, edges, live := 0, 0, 0
	for s := range g.ids {
		if !g.alive[s] {
			continue
		}
		live++
		v := g.ids[s]
		if g.slotOf(v) != int32(s) {
			return "index does not resolve vertex " + itoa(uint64(v)) + " to its slot"
		}
		in, out := 0, 0
		violation := ""
		g.inAdj[s].each(func(p VertexID, m int32) bool {
			if m <= 0 {
				violation = "non-positive in-multiplicity at vertex " + itoa(uint64(v))
				return false
			}
			in += int(m)
			return true
		})
		if violation != "" {
			return violation
		}
		g.outAdj[s].each(func(p VertexID, m int32) bool {
			if m <= 0 {
				violation = "non-positive out-multiplicity at vertex " + itoa(uint64(v))
				return false
			}
			out += int(m)
			return true
		})
		if violation != "" {
			return violation
		}
		if in != int(g.inDeg[s]) {
			return "cached indegree mismatch for vertex " + itoa(uint64(v))
		}
		if out != int(g.outDeg[s]) {
			return "cached outdegree mismatch for vertex " + itoa(uint64(v))
		}
		inHist[bucket(in)]++
		outHist[bucket(out)]++
		if in == out {
			eq++
		}
		edges += out
	}
	for b := 0; b < maxTracked+2; b++ {
		if inHist[b] != g.inHist[b] {
			return "indegree histogram mismatch"
		}
		if outHist[b] != g.outHist[b] {
			return "outdegree histogram mismatch"
		}
	}
	if eq != g.eq {
		return "in==out counter mismatch"
	}
	if edges != g.NumEdges() {
		return "edge count mismatch"
	}
	if live != g.NumVertices() {
		return "vertex count mismatch"
	}
	// Arena accounting: every slot is either alive or on the freelist,
	// exactly once.
	for _, s := range g.freeSlots {
		if g.alive[s] {
			return "freelist holds a live slot"
		}
	}
	if live+len(g.freeSlots) != len(g.ids) {
		return "arena slot accounting mismatch"
	}
	// Index hygiene: no dense or sparse entry may point at a dead or
	// mismatched slot.
	for v, ref := range g.dense {
		if ref != 0 && (!g.alive[ref-1] || g.ids[ref-1] != VertexID(v)) {
			return "stale dense index entry for vertex " + itoa(uint64(v))
		}
	}
	for v, ref := range g.sparse {
		if ref == 0 || !g.alive[ref-1] || g.ids[ref-1] != v {
			return "stale sparse index entry for vertex " + itoa(uint64(v))
		}
	}
	// Symmetry: u's out-multiplicity to v must equal v's
	// in-multiplicity from u.
	for s := range g.ids {
		if !g.alive[s] {
			continue
		}
		u := g.ids[s]
		asym := ""
		g.outAdj[s].each(func(v VertexID, m int32) bool {
			vs := g.slotOf(v)
			if vs == noSlot || g.inAdj[vs].get(u) != m {
				asym = "adjacency asymmetry between " + itoa(uint64(u)) + " and " + itoa(uint64(v))
				return false
			}
			return true
		})
		if asym != "" {
			return asym
		}
	}
	return ""
}

func itoa(x uint64) string {
	if x == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for x > 0 {
		i--
		buf[i] = byte('0' + x%10)
		x /= 10
	}
	return string(buf[i:])
}
