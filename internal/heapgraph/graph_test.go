package heapgraph

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestAddVertex(t *testing.T) {
	g := New()
	g.AddVertex(1)
	g.AddVertex(2)
	g.AddVertex(1) // duplicate is a no-op
	if g.NumVertices() != 2 {
		t.Fatalf("NumVertices = %d, want 2", g.NumVertices())
	}
	if g.CountInDegree(0) != 2 || g.CountOutDegree(0) != 2 {
		t.Errorf("isolated vertices should all have degree 0")
	}
	if g.CountInEqOut() != 2 {
		t.Errorf("CountInEqOut = %d, want 2", g.CountInEqOut())
	}
}

func TestAddEdgeDegrees(t *testing.T) {
	g := New()
	g.AddVertex(1)
	g.AddVertex(2)
	if !g.AddEdge(1, 2) {
		t.Fatal("AddEdge failed")
	}
	if g.InDegree(2) != 1 || g.OutDegree(1) != 1 {
		t.Errorf("degrees: in(2)=%d out(1)=%d", g.InDegree(2), g.OutDegree(1))
	}
	if g.CountInDegree(1) != 1 || g.CountOutDegree(1) != 1 {
		t.Errorf("histograms wrong after edge")
	}
	// 1 has (in=0,out=1), 2 has (in=1,out=0): neither has in==out.
	if g.CountInEqOut() != 0 {
		t.Errorf("CountInEqOut = %d, want 0", g.CountInEqOut())
	}
	if g.NumEdges() != 1 {
		t.Errorf("NumEdges = %d, want 1", g.NumEdges())
	}
}

func TestAddEdgeMissingVertex(t *testing.T) {
	g := New()
	g.AddVertex(1)
	if g.AddEdge(1, 99) {
		t.Error("AddEdge to missing vertex should fail")
	}
	if g.AddEdge(99, 1) {
		t.Error("AddEdge from missing vertex should fail")
	}
	if g.NumEdges() != 0 {
		t.Error("failed AddEdge should not count")
	}
}

func TestMultiEdges(t *testing.T) {
	g := New()
	g.AddVertex(1)
	g.AddVertex(2)
	g.AddEdge(1, 2)
	g.AddEdge(1, 2)
	if g.Multiplicity(1, 2) != 2 {
		t.Fatalf("Multiplicity = %d, want 2", g.Multiplicity(1, 2))
	}
	if g.InDegree(2) != 2 {
		t.Errorf("multi-edge indegree = %d, want 2", g.InDegree(2))
	}
	if g.CountInDegree(2) != 1 {
		t.Errorf("CountInDegree(2) = %d, want 1", g.CountInDegree(2))
	}
	g.RemoveEdge(1, 2)
	if g.Multiplicity(1, 2) != 1 || g.InDegree(2) != 1 {
		t.Errorf("after removing one multi-edge: mult=%d in=%d", g.Multiplicity(1, 2), g.InDegree(2))
	}
}

func TestSelfLoop(t *testing.T) {
	g := New()
	g.AddVertex(5)
	g.AddEdge(5, 5)
	if g.InDegree(5) != 1 || g.OutDegree(5) != 1 {
		t.Errorf("self-loop degrees = (%d,%d), want (1,1)", g.InDegree(5), g.OutDegree(5))
	}
	if g.CountInEqOut() != 1 {
		t.Errorf("self-loop vertex should have in==out")
	}
	if msg := g.CheckInvariants(); msg != "" {
		t.Errorf("invariants: %s", msg)
	}
	g.RemoveVertex(5)
	if g.NumEdges() != 0 || g.NumVertices() != 0 {
		t.Errorf("graph not empty after removing self-loop vertex: %s", g)
	}
	if msg := g.CheckInvariants(); msg != "" {
		t.Errorf("invariants after removal: %s", msg)
	}
}

func TestRemoveEdge(t *testing.T) {
	g := New()
	g.AddVertex(1)
	g.AddVertex(2)
	if g.RemoveEdge(1, 2) {
		t.Error("RemoveEdge of absent edge should report false")
	}
	g.AddEdge(1, 2)
	if !g.RemoveEdge(1, 2) {
		t.Error("RemoveEdge of present edge should report true")
	}
	if g.NumEdges() != 0 || g.InDegree(2) != 0 {
		t.Error("edge removal did not restore degrees")
	}
	if g.CountInEqOut() != 2 {
		t.Errorf("CountInEqOut = %d, want 2", g.CountInEqOut())
	}
}

func TestRemoveVertexDetachesEdges(t *testing.T) {
	// hub with incoming and outgoing edges
	g := New()
	for v := VertexID(1); v <= 5; v++ {
		g.AddVertex(v)
	}
	g.AddEdge(1, 3) // into hub
	g.AddEdge(2, 3)
	g.AddEdge(3, 4) // out of hub
	g.AddEdge(3, 5)
	g.RemoveVertex(3)
	if g.NumVertices() != 4 || g.NumEdges() != 0 {
		t.Fatalf("after hub removal: %s", g)
	}
	for _, v := range []VertexID{1, 2, 4, 5} {
		if g.InDegree(v) != 0 || g.OutDegree(v) != 0 {
			t.Errorf("vertex %d degrees not restored", v)
		}
	}
	if msg := g.CheckInvariants(); msg != "" {
		t.Errorf("invariants: %s", msg)
	}
}

func TestRemoveAbsentVertex(t *testing.T) {
	g := New()
	g.RemoveVertex(42) // must not panic
	if g.NumVertices() != 0 {
		t.Error("phantom vertex appeared")
	}
}

func TestDegreeOverflowBucket(t *testing.T) {
	g := New()
	g.AddVertex(0)
	for v := VertexID(1); v <= 20; v++ {
		g.AddVertex(v)
		g.AddEdge(v, 0)
	}
	if g.InDegree(0) != 20 {
		t.Fatalf("InDegree = %d", g.InDegree(0))
	}
	if g.CountInDegree(20) != 0 {
		t.Error("degrees beyond maxTracked must not appear in exact buckets")
	}
	if g.CountInDegreeOverflow() != 1 {
		t.Errorf("overflow bucket = %d, want 1", g.CountInDegreeOverflow())
	}
	if msg := g.CheckInvariants(); msg != "" {
		t.Errorf("invariants: %s", msg)
	}
}

func TestSuccessorsPredecessors(t *testing.T) {
	g := New()
	g.AddVertex(1)
	g.AddVertex(2)
	g.AddVertex(3)
	g.AddEdge(1, 2)
	g.AddEdge(1, 3)
	g.AddEdge(1, 3)
	succ := map[VertexID]int{}
	g.Successors(1, func(s VertexID, m int) bool {
		succ[s] = m
		return true
	})
	if len(succ) != 2 || succ[2] != 1 || succ[3] != 2 {
		t.Errorf("Successors = %v", succ)
	}
	pred := map[VertexID]int{}
	g.Predecessors(3, func(p VertexID, m int) bool {
		pred[p] = m
		return true
	})
	if len(pred) != 1 || pred[1] != 2 {
		t.Errorf("Predecessors = %v", pred)
	}
}

// buildList creates a singly linked list of n vertices starting at
// base: base -> base+1 -> ... -> base+n-1.
func buildList(g *Graph, base VertexID, n int) {
	for i := 0; i < n; i++ {
		g.AddVertex(base + VertexID(i))
	}
	for i := 0; i+1 < n; i++ {
		g.AddEdge(base+VertexID(i), base+VertexID(i+1))
	}
}

func TestWeaklyConnectedComponents(t *testing.T) {
	g := New()
	if cs := g.WeaklyConnectedComponents(); cs.Count != 0 {
		t.Errorf("empty graph components = %+v", cs)
	}
	buildList(g, 0, 10)
	buildList(g, 100, 5)
	g.AddVertex(999) // isolated singleton
	cs := g.WeaklyConnectedComponents()
	if cs.Count != 3 {
		t.Errorf("Count = %d, want 3", cs.Count)
	}
	if cs.Largest != 10 {
		t.Errorf("Largest = %d, want 10", cs.Largest)
	}
}

func TestSCCList(t *testing.T) {
	g := New()
	buildList(g, 0, 100)
	cs := g.StronglyConnectedComponents()
	// A list is acyclic: every vertex is its own SCC.
	if cs.Count != 100 || cs.Largest != 1 {
		t.Errorf("list SCCs = %+v, want {100 1}", cs)
	}
}

func TestSCCCycle(t *testing.T) {
	g := New()
	const n = 50
	for i := 0; i < n; i++ {
		g.AddVertex(VertexID(i))
	}
	for i := 0; i < n; i++ {
		g.AddEdge(VertexID(i), VertexID((i+1)%n))
	}
	cs := g.StronglyConnectedComponents()
	if cs.Count != 1 || cs.Largest != n {
		t.Errorf("cycle SCCs = %+v, want {1 %d}", cs, n)
	}
}

func TestSCCMixed(t *testing.T) {
	// A 3-cycle feeding a 2-chain: SCCs = {3-cycle}, {a}, {b}.
	g := New()
	for i := 0; i < 5; i++ {
		g.AddVertex(VertexID(i))
	}
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(2, 0)
	g.AddEdge(2, 3)
	g.AddEdge(3, 4)
	cs := g.StronglyConnectedComponents()
	if cs.Count != 3 || cs.Largest != 3 {
		t.Errorf("mixed SCCs = %+v, want {3 3}", cs)
	}
}

func TestSCCDeepListNoOverflow(t *testing.T) {
	// The iterative Tarjan must survive a path deep enough to kill a
	// recursive version.
	g := New()
	const n = 300000
	buildList(g, 0, n)
	cs := g.StronglyConnectedComponents()
	if cs.Count != n {
		t.Errorf("deep list SCC count = %d, want %d", cs.Count, n)
	}
}

// mutation encodes a random graph operation for property testing.
type mutation struct {
	Op   byte
	U, V uint8
}

// apply performs one encoded mutation on g over a 32-vertex ID space.
func (m mutation) apply(g *Graph) {
	u, v := VertexID(m.U%32), VertexID(m.V%32)
	switch m.Op % 4 {
	case 0:
		g.AddVertex(u)
	case 1:
		g.RemoveVertex(u)
	case 2:
		g.AddEdge(u, v)
	case 3:
		g.RemoveEdge(u, v)
	}
}

// churnedThenReset returns a graph that has been through every kind
// of state Reset must clear — spilled hub adjacency, freed slots,
// sparse IDs, built and repaired connectivity trackers — and then
// Reset.
func churnedThenReset() *Graph {
	g := New()
	g.SetConnectivity(ConnectivityIncremental, 4)
	g.SetSCC(ConnectivityIncremental, 4)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		g.AddVertex(VertexID(i))
	}
	g.AddVertex(1 << 40) // past the dense index: sparse map
	for i := 1; i < 200; i++ {
		g.AddEdge(0, VertexID(i)) // hub: spills
		g.AddEdge(VertexID(i), VertexID(rng.Intn(200)))
	}
	g.ConnectedComponentCount()
	g.StronglyConnectedComponentCount()
	for i := 0; i < 100; i++ {
		g.RemoveEdge(VertexID(rng.Intn(200)), VertexID(rng.Intn(200)))
		g.RemoveVertex(VertexID(rng.Intn(200)))
	}
	g.Reset()
	return g
}

// graphDiff describes the first observable difference between two
// graphs — vertex order, degrees and every aggregate count — or
// returns "" when there is none.
func graphDiff(a, b *Graph) string {
	var va, vb []VertexID
	a.Vertices(func(v VertexID) bool { va = append(va, v); return true })
	b.Vertices(func(v VertexID) bool { vb = append(vb, v); return true })
	if fmt.Sprint(va) != fmt.Sprint(vb) {
		return fmt.Sprintf("vertex order %v vs %v", va, vb)
	}
	for _, v := range va {
		if a.InDegree(v) != b.InDegree(v) || a.OutDegree(v) != b.OutDegree(v) {
			return fmt.Sprintf("vertex %d degrees differ", v)
		}
	}
	for d := 0; d <= maxTracked; d++ {
		if a.CountInDegree(d) != b.CountInDegree(d) || a.CountOutDegree(d) != b.CountOutDegree(d) {
			return fmt.Sprintf("degree-%d counts differ", d)
		}
	}
	if a.CountInDegreeOverflow() != b.CountInDegreeOverflow() || a.CountOutDegreeOverflow() != b.CountOutDegreeOverflow() ||
		a.CountInEqOut() != b.CountInEqOut() || a.NumVertices() != b.NumVertices() ||
		a.NumEdges() != b.NumEdges() || a.Generation() != b.Generation() {
		return fmt.Sprintf("counters differ: %v vs %v (gen %d vs %d)", a, b, a.Generation(), b.Generation())
	}
	return ""
}

// TestGraphInvariantsUnderRandomMutation applies random operation
// sequences and validates the incremental histograms against full
// recomputation via CheckInvariants. Each sequence also runs on a
// churned-then-Reset graph, which must be indistinguishable from the
// new one: same vertex order, degree counts and component counts.
func TestGraphInvariantsUnderRandomMutation(t *testing.T) {
	f := func(muts []mutation) bool {
		g, r := New(), churnedThenReset()
		for _, m := range muts {
			m.apply(g)
			m.apply(r)
		}
		if msg := graphDiff(g, r); msg != "" {
			t.Logf("reset graph diverged: %s", msg)
			return false
		}
		return g.CheckInvariants() == "" &&
			g.ConnectedComponentCount() == r.ConnectedComponentCount() &&
			g.StronglyConnectedComponentCount() == r.StronglyConnectedComponentCount()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestGraphMetricsMatchBruteForce compares histogram-based counts with
// a brute-force degree scan on random graphs.
func TestGraphMetricsMatchBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := New()
	for i := 0; i < 200; i++ {
		g.AddVertex(VertexID(i))
	}
	for i := 0; i < 600; i++ {
		g.AddEdge(VertexID(rng.Intn(200)), VertexID(rng.Intn(200)))
	}
	for i := 0; i < 50; i++ {
		g.RemoveVertex(VertexID(rng.Intn(200)))
	}
	for d := 0; d <= maxTracked; d++ {
		wantIn, wantOut := 0, 0
		g.Vertices(func(v VertexID) bool {
			if g.InDegree(v) == d {
				wantIn++
			}
			if g.OutDegree(v) == d {
				wantOut++
			}
			return true
		})
		if g.CountInDegree(d) != wantIn {
			t.Errorf("CountInDegree(%d) = %d, want %d", d, g.CountInDegree(d), wantIn)
		}
		if g.CountOutDegree(d) != wantOut {
			t.Errorf("CountOutDegree(%d) = %d, want %d", d, g.CountOutDegree(d), wantOut)
		}
	}
	wantEq := 0
	g.Vertices(func(v VertexID) bool {
		if g.InDegree(v) == g.OutDegree(v) {
			wantEq++
		}
		return true
	})
	if g.CountInEqOut() != wantEq {
		t.Errorf("CountInEqOut = %d, want %d", g.CountInEqOut(), wantEq)
	}
}

// randomGraph builds a pseudo-random graph with the given seed.
func randomGraph(seed int64, verts, edges, removals int) *Graph {
	rng := rand.New(rand.NewSource(seed))
	g := New()
	for i := 0; i < verts; i++ {
		g.AddVertex(VertexID(i))
	}
	for i := 0; i < edges; i++ {
		g.AddEdge(VertexID(rng.Intn(verts)), VertexID(rng.Intn(verts)))
	}
	for i := 0; i < removals; i++ {
		g.RemoveVertex(VertexID(rng.Intn(verts)))
	}
	return g
}

// TestStructureSelfLoopAndMultiEdge: the incremental component
// trackers must ignore self-loops (their own SCC of size 1, no effect
// on WCC) and count multi-edges once, matching the walks — including
// when the copies are removed one at a time.
func TestStructureSelfLoopAndMultiEdge(t *testing.T) {
	g := New()
	g.AddVertex(1)
	g.AddVertex(2)
	check := func() {
		t.Helper()
		if got, want := g.ConnectedComponentCount(), g.WeaklyConnectedComponents().Count; got != want {
			t.Errorf("WCC = %d, want %d", got, want)
		}
		if got, want := g.StronglyConnectedComponentCount(), g.StronglyConnectedComponents().Count; got != want {
			t.Errorf("SCC = %d, want %d", got, want)
		}
	}
	check()
	g.AddEdge(1, 1) // self-loop
	g.AddEdge(1, 2)
	g.AddEdge(1, 2) // multi-edge
	g.AddEdge(2, 1)
	check()
	g.RemoveEdge(1, 2)
	check()
	g.RemoveEdge(1, 2)
	check()
	g.RemoveEdge(1, 1)
	check()
}

// TestComponentCacheGeneration verifies the generation-memoized
// component accessors: repeated calls over an unchanged graph reuse
// the cache, and any mutation invalidates it.
func TestComponentCacheGeneration(t *testing.T) {
	g := randomGraph(11, 200, 300, 20)

	first := g.WeaklyConnectedComponentsCached()
	if !g.wccCache.valid || g.wccCache.gen != g.Generation() {
		t.Fatal("cache not installed after first computation")
	}
	if again := g.WeaklyConnectedComponentsCached(); again != first {
		t.Fatalf("cache hit returned %+v, want %+v", again, first)
	}
	if again := g.WeaklyConnectedComponents(); again != first {
		t.Fatalf("uncached recomputation %+v disagrees with cached %+v", again, first)
	}

	// Join two components: the cached accessor must notice.
	gen := g.Generation()
	g.AddVertex(50000)
	g.AddVertex(50001)
	g.AddEdge(50000, 50001)
	if g.Generation() == gen {
		t.Fatal("mutation did not advance the generation")
	}
	fresh := g.WeaklyConnectedComponentsCached()
	if fresh == first {
		t.Fatal("cached accessor returned stale components after mutation")
	}
	if want := g.WeaklyConnectedComponents(); fresh != want {
		t.Fatalf("post-mutation cached WCC = %+v, want %+v", fresh, want)
	}

	// Same contract for the SCC cache.
	scc1 := g.StronglyConnectedComponentsCached()
	if !g.sccCache.valid {
		t.Fatal("SCC cache not installed")
	}
	g.AddEdge(50001, 50000) // close a 2-cycle
	scc2 := g.StronglyConnectedComponentsCached()
	if scc2 == scc1 {
		t.Fatal("SCC cache returned stale stats after mutation")
	}
	if want := g.StronglyConnectedComponents(); scc2 != want {
		t.Fatalf("post-mutation cached SCC = %+v, want %+v", scc2, want)
	}

	// No-op mutations (duplicate vertex, absent edge removal) must not
	// invalidate: generation only advances on successful mutation.
	gen = g.Generation()
	g.AddVertex(50000)     // duplicate
	g.RemoveEdge(999, 998) // absent
	if g.Generation() != gen {
		t.Error("no-op mutations advanced the generation")
	}
}

func BenchmarkAddRemoveEdge(b *testing.B) {
	g := New()
	for i := 0; i < 1000; i++ {
		g.AddVertex(VertexID(i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u := VertexID(i % 1000)
		v := VertexID((i * 7) % 1000)
		g.AddEdge(u, v)
		g.RemoveEdge(u, v)
	}
}

func BenchmarkDegreeCounts(b *testing.B) {
	g := New()
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 10000; i++ {
		g.AddVertex(VertexID(i))
	}
	for i := 0; i < 30000; i++ {
		g.AddEdge(VertexID(rng.Intn(10000)), VertexID(rng.Intn(10000)))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = g.CountInDegree(0) + g.CountInDegree(1) + g.CountInDegree(2) +
			g.CountOutDegree(0) + g.CountOutDegree(1) + g.CountOutDegree(2) +
			g.CountInEqOut()
	}
}

func BenchmarkSCC(b *testing.B) {
	g := New()
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 5000; i++ {
		g.AddVertex(VertexID(i))
	}
	for i := 0; i < 15000; i++ {
		g.AddEdge(VertexID(rng.Intn(5000)), VertexID(rng.Intn(5000)))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.StronglyConnectedComponents()
	}
}
