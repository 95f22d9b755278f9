package heapgraph

import (
	"math/rand"
	"strings"
	"testing"
)

// oracleCheck asserts the incremental count matches a from-scratch
// component walk and that graph invariants hold.
func oracleCheck(t *testing.T, g *Graph) {
	t.Helper()
	got := g.ConnectedComponentCount()
	want := g.WeaklyConnectedComponents().Count
	if got != want {
		t.Fatalf("ConnectedComponentCount = %d, oracle = %d (V=%d E=%d)",
			got, want, g.NumVertices(), g.NumEdges())
	}
	if msg := g.CheckInvariants(); msg != "" {
		t.Fatalf("invariants violated: %s", msg)
	}
}

// checkResetMatchesNew Resets churned, configures it and a new graph
// alike with setup, and runs one fixed mutation program on both,
// asserting every few steps that the two stay indistinguishable —
// vertex order, degree counts, and both component counts, each also
// checked against its walk.
func checkResetMatchesNew(t *testing.T, churned *Graph, setup func(*Graph)) {
	t.Helper()
	churned.Reset()
	fresh := New()
	setup(churned)
	setup(fresh)
	rng := rand.New(rand.NewSource(1))
	for step := 0; step < 600; step++ {
		m := mutation{Op: byte(rng.Intn(4)), U: uint8(rng.Intn(32)), V: uint8(rng.Intn(32))}
		m.apply(churned)
		m.apply(fresh)
		if step%7 != 0 {
			continue
		}
		if msg := graphDiff(churned, fresh); msg != "" {
			t.Fatalf("step %d: reset graph diverged from a new one: %s", step, msg)
		}
		oracleCheck(t, churned)
		sccOracleCheck(t, churned)
		if a, b := churned.ConnectedComponentCount(), fresh.ConnectedComponentCount(); a != b {
			t.Fatalf("step %d: WCC count %d after Reset, %d new", step, a, b)
		}
		if a, b := churned.StronglyConnectedComponentCount(), fresh.StronglyConnectedComponentCount(); a != b {
			t.Fatalf("step %d: SCC count %d after Reset, %d new", step, a, b)
		}
	}
}

// TestIncrementalWCCMatchesSnapshotRandom drives a delete-heavy random
// mutation mix against the incremental tracker at several rebuild
// thresholds (1 = rebuild on every conservative delete, 1<<30 = only
// lazy query rebuilds) and checks the count against the graph walk
// after every few operations. The churned graph is then Reset and must
// track a fixed program exactly like a new graph.
func TestIncrementalWCCMatchesSnapshotRandom(t *testing.T) {
	for _, th := range []int{1, 4, DefaultRebuildThreshold, 1 << 30} {
		th := th
		t.Run("threshold="+itoa(uint64(th)), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(th)*7919 + 17))
			g := New()
			g.SetConnectivity(ConnectivityIncremental, th)
			const idSpace = 48
			for step := 0; step < 4000; step++ {
				u := VertexID(rng.Intn(idSpace))
				v := VertexID(rng.Intn(idSpace))
				// Delete-heavy: the exact-maintenance paths are the add
				// hooks; the delete classification is what needs soak.
				switch rng.Intn(10) {
				case 0, 1:
					g.AddVertex(u)
				case 2, 3, 4:
					g.AddEdge(u, v)
				case 5, 6:
					g.RemoveEdge(u, v)
				case 7, 8:
					g.RemoveVertex(u)
				case 9:
					g.AddEdge(u, u) // self-loop: must not disturb the tracker
				}
				if step%3 == 0 {
					oracleCheck(t, g)
				}
			}
			oracleCheck(t, g)
			checkResetMatchesNew(t, g, func(g *Graph) { g.SetConnectivity(ConnectivityIncremental, th) })
		})
	}
}

// TestIncrementalWCCVerifyMode runs the same mutation mix through
// verify mode, whose query path panics on divergence — the test
// passing IS the differential result.
func TestIncrementalWCCVerifyMode(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	g := New()
	g.SetConnectivity(ConnectivityVerify, 2)
	for step := 0; step < 2000; step++ {
		u := VertexID(rng.Intn(32))
		v := VertexID(rng.Intn(32))
		switch rng.Intn(8) {
		case 0:
			g.AddVertex(u)
		case 1, 2:
			g.AddEdge(u, v)
		case 3, 4:
			g.RemoveEdge(u, v)
		case 5, 6:
			g.RemoveVertex(u)
		case 7:
			g.ConnectedComponentCount()
		}
	}
	g.ConnectedComponentCount()
}

// TestIncrementalWCCVerifyPanicsOnDivergence corrupts the tracker's
// count in-package and checks verify mode actually trips.
func TestIncrementalWCCVerifyPanicsOnDivergence(t *testing.T) {
	g := New()
	g.SetConnectivity(ConnectivityVerify, 0)
	g.AddVertex(1)
	g.AddVertex(2)
	g.AddEdge(1, 2)
	g.ConnectedComponentCount() // build the tracker
	g.wcc.count += 3            // inject divergence
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("verify mode did not panic on a diverged count")
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, "connectivity verify divergence") {
			t.Fatalf("unexpected panic payload: %v", r)
		}
	}()
	g.ConnectedComponentCount()
}

// TestIncrementalWCCExactShapes pins the delete shapes the tracker
// claims to handle exactly: after each, the tracker must still be
// clean (no dirty rebuild pending) and correct.
func TestIncrementalWCCExactShapes(t *testing.T) {
	clean := func(t *testing.T, g *Graph, wantCount int) {
		t.Helper()
		if got := g.ConnectedComponentCount(); got != wantCount {
			t.Fatalf("count = %d, want %d", got, wantCount)
		}
		if g.wcc.dirty != 0 {
			t.Fatalf("tracker dirty = %d after an exact-shape delete", g.wcc.dirty)
		}
		oracleCheck(t, g)
	}

	t.Run("parallel edge", func(t *testing.T) {
		g := New()
		g.SetConnectivity(ConnectivityIncremental, 0)
		g.AddVertex(1)
		g.AddVertex(2)
		g.AddEdge(1, 2)
		g.AddEdge(1, 2)
		clean(t, g, 1)
		g.RemoveEdge(1, 2) // one copy remains: exact no-op
		clean(t, g, 1)
	})

	t.Run("reverse edge", func(t *testing.T) {
		g := New()
		g.SetConnectivity(ConnectivityIncremental, 0)
		g.AddVertex(1)
		g.AddVertex(2)
		g.AddEdge(1, 2)
		g.AddEdge(2, 1)
		clean(t, g, 1)
		g.RemoveEdge(1, 2) // 2→1 remains: weak connectivity unchanged
		clean(t, g, 1)
	})

	t.Run("edge isolating one endpoint", func(t *testing.T) {
		g := New()
		g.SetConnectivity(ConnectivityIncremental, 0)
		for i := 1; i <= 3; i++ {
			g.AddVertex(VertexID(i))
		}
		g.AddEdge(1, 2)
		g.AddEdge(2, 3)
		clean(t, g, 1)
		g.RemoveEdge(2, 3) // 3 becomes isolated: exact detach
		clean(t, g, 2)
	})

	t.Run("edge isolating both endpoints", func(t *testing.T) {
		g := New()
		g.SetConnectivity(ConnectivityIncremental, 0)
		g.AddVertex(1)
		g.AddVertex(2)
		g.AddEdge(1, 2)
		clean(t, g, 1)
		g.RemoveEdge(1, 2) // the pair case: count must go 1 → 2, not 1 → 3
		clean(t, g, 2)
	})

	t.Run("self-loop removal", func(t *testing.T) {
		g := New()
		g.SetConnectivity(ConnectivityIncremental, 0)
		g.AddVertex(1)
		g.AddEdge(1, 1)
		clean(t, g, 1)
		g.RemoveEdge(1, 1)
		clean(t, g, 1)
	})

	t.Run("singleton vertex removal", func(t *testing.T) {
		g := New()
		g.SetConnectivity(ConnectivityIncremental, 0)
		g.AddVertex(1)
		g.AddVertex(2)
		clean(t, g, 2)
		g.RemoveVertex(2)
		clean(t, g, 1)
	})

	t.Run("leaf vertex removal", func(t *testing.T) {
		g := New()
		g.SetConnectivity(ConnectivityIncremental, 0)
		for i := 1; i <= 4; i++ {
			g.AddVertex(VertexID(i))
		}
		g.AddEdge(1, 2)
		g.AddEdge(2, 3)
		g.AddEdge(3, 4)
		clean(t, g, 1)
		g.RemoveVertex(4) // one distinct neighbour: leaf, never splits
		clean(t, g, 1)
	})

	t.Run("leaf with parallel and reverse edges", func(t *testing.T) {
		g := New()
		g.SetConnectivity(ConnectivityIncremental, 0)
		g.AddVertex(1)
		g.AddVertex(2)
		g.AddVertex(3)
		g.AddEdge(1, 2)
		g.AddEdge(2, 3)
		g.AddEdge(2, 3)
		g.AddEdge(3, 2)
		g.AddEdge(3, 3)
		clean(t, g, 1)
		g.RemoveVertex(3) // still one distinct neighbour (2): exact leaf
		clean(t, g, 1)
	})

	t.Run("interior vertex removal", func(t *testing.T) {
		g := New()
		g.SetConnectivity(ConnectivityIncremental, 1<<30)
		for i := 1; i <= 3; i++ {
			g.AddVertex(VertexID(i))
		}
		g.AddEdge(1, 2)
		g.AddEdge(2, 3)
		clean(t, g, 1)
		g.RemoveVertex(2) // ≥2 neighbours: the split search sees 1 | 3
		clean(t, g, 2)
	})

	t.Run("tree edge cut", func(t *testing.T) {
		// A binary tree of 15; cutting the edge above node 2 detaches
		// its 7-node subtree, the smaller side.
		g := New()
		g.SetConnectivity(ConnectivityIncremental, 1<<30)
		for i := 1; i <= 15; i++ {
			g.AddVertex(VertexID(i))
			if i > 1 {
				g.AddEdge(VertexID(i/2), VertexID(i))
			}
		}
		clean(t, g, 1)
		g.RemoveEdge(1, 2)
		clean(t, g, 2)
		g.RemoveEdge(3, 7) // and a 3-node subtree off the other side
		clean(t, g, 3)
	})

	t.Run("cycle edge cut keeps the component", func(t *testing.T) {
		g := New()
		g.SetConnectivity(ConnectivityIncremental, 1<<30)
		for i := 0; i < 6; i++ {
			g.AddVertex(VertexID(i))
		}
		for i := 0; i < 6; i++ {
			g.AddEdge(VertexID(i), VertexID((i+1)%6))
		}
		clean(t, g, 1)
		g.RemoveEdge(2, 3) // the searches meet around the cycle
		clean(t, g, 1)
	})

	t.Run("3-neighbour vertex removal splits into 3", func(t *testing.T) {
		// A hub with three 2-node arms, one arm pointing into the hub.
		g := New()
		g.SetConnectivity(ConnectivityIncremental, 1<<30)
		for i := 0; i <= 6; i++ {
			g.AddVertex(VertexID(i))
		}
		g.AddEdge(0, 1)
		g.AddEdge(1, 2)
		g.AddEdge(0, 3)
		g.AddEdge(3, 4)
		g.AddEdge(5, 0)
		g.AddEdge(6, 5)
		clean(t, g, 1)
		g.RemoveVertex(0)
		clean(t, g, 3)
	})

	t.Run("3-neighbour vertex removal with two arms joined", func(t *testing.T) {
		g := New()
		g.SetConnectivity(ConnectivityIncremental, 1<<30)
		for i := 0; i <= 6; i++ {
			g.AddVertex(VertexID(i))
		}
		g.AddEdge(0, 1)
		g.AddEdge(0, 3)
		g.AddEdge(0, 5)
		g.AddEdge(1, 2)
		g.AddEdge(2, 4)
		g.AddEdge(3, 4) // arms 1 and 3 meet at 4
		g.AddEdge(5, 6)
		clean(t, g, 1)
		g.RemoveVertex(0)
		clean(t, g, 2)
	})

	t.Run("two cycles sharing a removed vertex", func(t *testing.T) {
		// 0→1→2→0 and 0→3→4→0: removing 0 leaves the two paths 1→2 and
		// 3→4 as separate components.
		g := New()
		g.SetConnectivity(ConnectivityIncremental, 1<<30)
		for i := 0; i <= 4; i++ {
			g.AddVertex(VertexID(i))
		}
		g.AddEdge(0, 1)
		g.AddEdge(1, 2)
		g.AddEdge(2, 0)
		g.AddEdge(0, 3)
		g.AddEdge(3, 4)
		g.AddEdge(4, 0)
		clean(t, g, 1)
		g.RemoveVertex(0)
		clean(t, g, 2)
	})

	t.Run("over-budget edge cut goes conservative", func(t *testing.T) {
		// Removing the middle of a list longer than the repair budget
		// leaves two halves too large to enumerate: the delete must
		// dirty the tracker, and the rebuild must see the split.
		g := New()
		g.SetConnectivity(ConnectivityIncremental, 1<<30)
		n := 2*DeleteRepairBudget + 3
		for i := 0; i < n; i++ {
			g.AddVertex(VertexID(i))
			if i > 0 {
				g.AddEdge(VertexID(i-1), VertexID(i))
			}
		}
		clean(t, g, 1)
		g.RemoveEdge(VertexID(n/2), VertexID(n/2+1))
		if g.wcc.dirty == 0 {
			t.Fatal("over-budget split did not mark the tracker dirty")
		}
		if got := g.ConnectedComponentCount(); got != 2 {
			t.Fatalf("count after split = %d, want 2", got)
		}
		oracleCheck(t, g)
	})

	t.Run("interior vertex removal goes conservative", func(t *testing.T) {
		// The vertex-removal form of the case above: removing the
		// middle of the over-long list leaves two halves the split
		// search cannot finish within the budget.
		g := New()
		g.SetConnectivity(ConnectivityIncremental, 1<<30)
		n := 2*DeleteRepairBudget + 3
		for i := 0; i < n; i++ {
			g.AddVertex(VertexID(i))
			if i > 0 {
				g.AddEdge(VertexID(i-1), VertexID(i))
			}
		}
		clean(t, g, 1)
		g.RemoveVertex(VertexID(n / 2))
		if g.wcc.dirty == 0 {
			t.Fatal("over-budget removal did not mark the tracker dirty")
		}
		if got := g.ConnectedComponentCount(); got != 2 {
			t.Fatalf("count after split = %d, want 2", got)
		}
		oracleCheck(t, g)
	})
}

// TestIncrementalWCCSlotReuse recycles vertex slots through the
// freelist while the tracker is live: a reused slot must come back as
// a fresh singleton, not inherit the dead vertex's component.
func TestIncrementalWCCSlotReuse(t *testing.T) {
	g := New()
	g.SetConnectivity(ConnectivityIncremental, 1<<30)
	for i := 0; i < 16; i++ {
		g.AddVertex(VertexID(i))
	}
	for i := 1; i < 16; i++ {
		g.AddEdge(0, VertexID(i))
	}
	if g.ConnectedComponentCount() != 1 {
		t.Fatal("setup")
	}
	for round := 0; round < 20; round++ {
		// Leaf-remove a vertex (exact path), then re-add a new ID that
		// reuses its slot.
		victim := VertexID(round%15 + 1)
		g.RemoveVertex(victim)
		oracleCheck(t, g)
		fresh := VertexID(1000 + round)
		g.AddVertex(fresh)
		oracleCheck(t, g) // fresh vertex must be its own component
		g.AddEdge(0, fresh)
		g.AddVertex(victim)
		g.AddEdge(0, victim)
		oracleCheck(t, g)
	}
}

// TestIncrementalWCCSwitchModes flips a live graph between modes;
// every switch must rebuild from scratch rather than trust tracker
// state from before it.
func TestIncrementalWCCSwitchModes(t *testing.T) {
	g := New()
	g.SetConnectivity(ConnectivityIncremental, 0)
	for i := 0; i < 8; i++ {
		g.AddVertex(VertexID(i))
		if i > 0 {
			g.AddEdge(VertexID(i-1), VertexID(i))
		}
	}
	oracleCheck(t, g)
	g.SetConnectivity(ConnectivityVerify, 0)
	if g.wcc.valid {
		t.Fatal("a mode switch should discard the tracker state")
	}
	g.RemoveVertex(3) // mutate while unbuilt
	g.ConnectedComponentCount()
	g.SetConnectivity(ConnectivityIncremental, 0)
	oracleCheck(t, g)
	g.RemoveEdge(1, 2)
	oracleCheck(t, g)
}

// TestIncrementalWCCAllocs is the steady-state allocation gate: once
// the node arena and the repair scratch have hit their high-water
// marks, churn (including split repairs, detach growth and
// compaction) must reuse capacity.
// Wired into CI without -race (race instrumentation allocates).
func TestIncrementalWCCAllocs(t *testing.T) {
	g := New()
	g.SetConnectivity(ConnectivityIncremental, 0)
	const ring = 256
	for i := 0; i < ring; i++ {
		g.AddVertex(VertexID(i))
	}
	for i := 0; i < ring; i++ {
		g.AddEdge(VertexID(i), VertexID((i+1)%ring))
	}
	pendant := VertexID(ring)
	g.AddVertex(pendant)
	g.AddEdge(0, pendant)
	// A 4-vertex tail hanging off the pendant: tail+1 has three
	// distinct neighbours.
	tail := VertexID(ring + 1)
	for i := VertexID(0); i < 4; i++ {
		g.AddVertex(tail + i)
	}
	g.AddEdge(pendant, tail)
	g.AddEdge(tail, tail+1)
	g.AddEdge(tail+1, tail+2)
	g.AddEdge(tail+3, tail+1)
	g.ConnectedComponentCount()

	round := func() {
		for k := 0; k < 32; k++ {
			// Detach churn: isolating the pendant appends a node to the
			// arena; re-linking unions it back.
			g.RemoveEdge(0, pendant)
			g.AddEdge(0, pendant)
			g.ConnectedComponentCount()
		}
		// Repair churn: a ring edge cut runs the split search (the
		// two sides meet around the ring).
		for k := 0; k < 16; k++ {
			e := VertexID(k * 7 % ring)
			g.RemoveEdge(e, VertexID((int(e)+1)%ring))
			g.AddEdge(e, VertexID((int(e)+1)%ring))
			g.ConnectedComponentCount()
		}
		// Split churn: cutting the pendant tail's link detaches it onto
		// a fresh node, and removing the tail's middle vertex splits it
		// three ways; re-linking merges everything back.
		for k := 0; k < 8; k++ {
			g.RemoveEdge(pendant, tail)
			g.ConnectedComponentCount()
			g.RemoveVertex(tail + 1)
			g.ConnectedComponentCount()
			g.AddVertex(tail + 1)
			g.AddEdge(tail, tail+1)
			g.AddEdge(tail+1, tail+2)
			g.AddEdge(tail+3, tail+1)
			g.AddEdge(pendant, tail)
			g.ConnectedComponentCount()
		}
		if g.wcc.dirty != 0 {
			t.Fatal("a repairable delete dirtied the tracker")
		}
	}
	// Warm past the arena's high-water mark (growth and the compaction
	// cycle are deterministic, so capacity stabilizes).
	for i := 0; i < 64; i++ {
		round()
	}
	if avg := testing.AllocsPerRun(50, round); avg != 0 {
		t.Fatalf("steady-state churn allocates: %.1f allocs/round, want 0", avg)
	}
}

// TestParseConnectivity covers the flag spellings and their round-trip
// through String.
func TestParseConnectivity(t *testing.T) {
	for _, mode := range []ConnectivityMode{ConnectivityIncremental, ConnectivityVerify} {
		got, err := ParseConnectivity(mode.String())
		if err != nil || got != mode {
			t.Errorf("ParseConnectivity(%q) = %v, %v", mode.String(), got, err)
		}
	}
	for _, bad := range []string{"snapshot", "eventual", ""} {
		if _, err := ParseConnectivity(bad); err == nil {
			t.Errorf("ParseConnectivity accepted %q", bad)
		}
	}
}

// FuzzIncrementalWCC feeds arbitrary byte programs to the tracker as
// mutation sequences and diffs the maintained count against the walk
// after every operation, with rebuilds on every dirty delete
// (threshold 1) and only at queries (threshold 2^30). Two bytes encode
// one operation: an opcode and two 4-bit vertex operands.
func FuzzIncrementalWCC(f *testing.F) {
	f.Add([]byte{0x00, 0x01, 0x00, 0x02, 0x01, 0x12, 0x02, 0x12})
	f.Add([]byte{0x00, 0x01, 0x00, 0x02, 0x00, 0x03, 0x01, 0x12, 0x01, 0x13, 0x03, 0x10})
	seed := make([]byte, 128)
	rng := rand.New(rand.NewSource(11))
	rng.Read(seed)
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, th := range []int{1, 1 << 30} {
			g := New()
			g.SetConnectivity(ConnectivityIncremental, th)
			for i := 0; i+1 < len(data); i += 2 {
				u := VertexID(data[i+1] >> 4)
				v := VertexID(data[i+1] & 0x0f)
				switch data[i] % 5 {
				case 0:
					g.AddVertex(u)
				case 1:
					g.AddEdge(u, v)
				case 2:
					g.RemoveEdge(u, v)
				case 3:
					g.RemoveVertex(u)
				case 4:
					g.AddEdge(u, u)
				}
				oracleCheck(t, g)
			}
		}
	})
}
