package heapgraph

import (
	"math/rand"
	"strings"
	"testing"
)

// sccOracleCheck asserts the incremental SCC count matches a
// from-scratch Tarjan walk and that graph invariants hold.
func sccOracleCheck(t *testing.T, g *Graph) {
	t.Helper()
	got := g.StronglyConnectedComponentCount()
	want := g.StronglyConnectedComponents().Count
	if got != want {
		t.Fatalf("StronglyConnectedComponentCount = %d, oracle = %d (V=%d E=%d)",
			got, want, g.NumVertices(), g.NumEdges())
	}
	if msg := g.CheckInvariants(); msg != "" {
		t.Fatalf("invariants violated: %s", msg)
	}
}

// sccRandomMix drives one randomized mutation sequence against the
// tracker, oracle-checking every few steps. Shared by the differential
// test and the fuzz target's seed corpus replay.
func sccRandomMix(t *testing.T, g *Graph, rng *rand.Rand, steps, idSpace int) {
	t.Helper()
	for step := 0; step < steps; step++ {
		u := VertexID(rng.Intn(idSpace))
		v := VertexID(rng.Intn(idSpace))
		switch rng.Intn(10) {
		case 0, 1:
			g.AddVertex(u)
		case 2, 3, 4:
			// Edge adds matter more for SCC than WCC: they exercise
			// the probe (cycle closure and budget bailout paths).
			g.AddEdge(u, v)
		case 5, 6:
			g.RemoveEdge(u, v)
		case 7, 8:
			g.RemoveVertex(u)
		case 9:
			g.AddEdge(u, u) // self-loop: must not disturb the tracker
		}
		if step%3 == 0 {
			sccOracleCheck(t, g)
		}
	}
	sccOracleCheck(t, g)
}

// TestIncrementalSCCMatchesSnapshotRandom drives a random mutation mix
// against the incremental tracker at several rebuild thresholds (1 =
// rebuild on every dirtying mutation, 1<<30 = only lazy query
// rebuilds) and probe budgets (2 = nearly every probe bails out,
// forcing the dirty path; 128 and the default = probes mostly
// complete), checking the count against the Tarjan walk after every
// few operations.
func TestIncrementalSCCMatchesSnapshotRandom(t *testing.T) {
	for _, th := range []int{1, 4, DefaultRebuildThreshold, 1 << 30} {
		for _, budget := range []int{2, 128, DefaultSCCProbeBudget} {
			th, budget := th, budget
			t.Run("threshold="+itoa(uint64(th))+"/budget="+itoa(uint64(budget)), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(th)*7919 + int64(budget)*13 + 29))
				g := New()
				g.SetSCC(ConnectivityIncremental, th)
				g.SetSCCProbeBudget(budget)
				sccRandomMix(t, g, rng, 4000, 48)
			})
		}
	}
}

// TestIncrementalSCCWithWCCRandom runs both incremental trackers at
// once — the configuration the extended suite uses when every metric
// point is O(churn) — and oracle-checks both counts.
func TestIncrementalSCCWithWCCRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(4242))
	g := New()
	g.SetConnectivity(ConnectivityIncremental, 4)
	g.SetSCC(ConnectivityIncremental, 4)
	for step := 0; step < 3000; step++ {
		u := VertexID(rng.Intn(40))
		v := VertexID(rng.Intn(40))
		switch rng.Intn(9) {
		case 0, 1:
			g.AddVertex(u)
		case 2, 3, 4:
			g.AddEdge(u, v)
		case 5, 6:
			g.RemoveEdge(u, v)
		case 7, 8:
			g.RemoveVertex(u)
		}
		if step%5 == 0 {
			oracleCheck(t, g)
			sccOracleCheck(t, g)
		}
	}
	oracleCheck(t, g)
	sccOracleCheck(t, g)
}

// TestIncrementalSCCVerifyMode runs a mutation mix through verify
// mode, whose query path panics on divergence — the test passing IS
// the differential result.
func TestIncrementalSCCVerifyMode(t *testing.T) {
	rng := rand.New(rand.NewSource(177))
	g := New()
	g.SetSCC(ConnectivityVerify, 2)
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
			g.StronglyConnectedComponentCount()
		}
	}
	g.StronglyConnectedComponentCount()
}

// TestIncrementalSCCVerifyPanicsOnDivergence corrupts the tracker's
// count in-package and checks verify mode actually trips.
func TestIncrementalSCCVerifyPanicsOnDivergence(t *testing.T) {
	g := New()
	g.SetSCC(ConnectivityVerify, 0)
	g.AddVertex(1)
	g.AddVertex(2)
	g.AddEdge(1, 2)
	g.StronglyConnectedComponentCount() // build the tracker
	g.scc.count += 3                    // inject divergence
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("verify mode did not panic on a diverged count")
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, "scc verify divergence") {
			t.Fatalf("unexpected panic payload: %v", r)
		}
	}()
	g.StronglyConnectedComponentCount()
}

// TestIncrementalSCCExactShapes pins the mutation shapes the tracker
// claims to handle exactly: after each, the tracker must still be
// clean (no dirty rebuild pending) and correct. Every delete the
// repair budget covers is exact, including splits of an SCC.
func TestIncrementalSCCExactShapes(t *testing.T) {
	clean := func(t *testing.T, g *Graph, wantCount int) {
		t.Helper()
		if got := g.StronglyConnectedComponentCount(); got != wantCount {
			t.Fatalf("count = %d, want %d", got, wantCount)
		}
		if g.scc.dirty != 0 {
			t.Fatalf("tracker dirty = %d after an exact shape", g.scc.dirty)
		}
		sccOracleCheck(t, g)
	}

	t.Run("edge into fresh target", func(t *testing.T) {
		g := New()
		g.SetSCC(ConnectivityIncremental, 0)
		g.AddVertex(1)
		g.AddVertex(2)
		clean(t, g, 2)
		g.AddEdge(1, 2) // 2 has no out-edges: probe finds no path back
		clean(t, g, 2)
	})

	t.Run("two-cycle closure", func(t *testing.T) {
		g := New()
		g.SetSCC(ConnectivityIncremental, 0)
		g.AddVertex(1)
		g.AddVertex(2)
		g.AddEdge(1, 2)
		clean(t, g, 2)
		g.AddEdge(2, 1) // closes the cycle: exact merge
		clean(t, g, 1)
	})

	t.Run("long-cycle closure", func(t *testing.T) {
		g := New()
		g.SetSCC(ConnectivityIncremental, 0)
		for i := 1; i <= 6; i++ {
			g.AddVertex(VertexID(i))
			if i > 1 {
				g.AddEdge(VertexID(i-1), VertexID(i))
			}
		}
		clean(t, g, 6)
		g.AddEdge(6, 1) // every chain vertex joins one SCC
		clean(t, g, 1)
	})

	t.Run("multi-path merge", func(t *testing.T) {
		// Two disjoint v⇝u paths: closing u→v must merge the SCCs on
		// BOTH paths, which a naive single-path union would miss.
		g := New()
		g.SetSCC(ConnectivityIncremental, 0)
		for i := 1; i <= 4; i++ {
			g.AddVertex(VertexID(i))
		}
		// u = 1, v = 2; paths 2→3→1 and 2→4→1.
		g.AddEdge(2, 3)
		g.AddEdge(3, 1)
		g.AddEdge(2, 4)
		g.AddEdge(4, 1)
		clean(t, g, 4)
		g.AddEdge(1, 2)
		clean(t, g, 1)
	})

	t.Run("intra-SCC edge add", func(t *testing.T) {
		g := New()
		g.SetSCC(ConnectivityIncremental, 0)
		g.AddVertex(1)
		g.AddVertex(2)
		g.AddEdge(1, 2)
		g.AddEdge(2, 1)
		clean(t, g, 1)
		g.AddEdge(1, 2) // endpoints already strongly connected: no-op
		clean(t, g, 1)
	})

	t.Run("edge into existing SCC", func(t *testing.T) {
		// A fresh vertex pointing INTO a cycle reaches it but is not
		// reached back: exact no-merge.
		g := New()
		g.SetSCC(ConnectivityIncremental, 0)
		for i := 1; i <= 4; i++ {
			g.AddVertex(VertexID(i))
		}
		g.AddEdge(1, 2)
		g.AddEdge(2, 3)
		g.AddEdge(3, 1)
		clean(t, g, 2)
		g.AddEdge(4, 1) // probe walks the cycle as a super-node, no hit
		clean(t, g, 2)
	})

	t.Run("cross-SCC edge removal", func(t *testing.T) {
		g := New()
		g.SetSCC(ConnectivityIncremental, 0)
		for i := 1; i <= 3; i++ {
			g.AddVertex(VertexID(i))
		}
		g.AddEdge(1, 2)
		g.AddEdge(2, 3)
		clean(t, g, 3)
		g.RemoveEdge(1, 2) // no cycle through a cross-SCC edge: no-op
		clean(t, g, 3)
	})

	t.Run("parallel intra-SCC edge removal", func(t *testing.T) {
		g := New()
		g.SetSCC(ConnectivityIncremental, 0)
		g.AddVertex(1)
		g.AddVertex(2)
		g.AddEdge(1, 2)
		g.AddEdge(1, 2)
		g.AddEdge(2, 1)
		clean(t, g, 1)
		g.RemoveEdge(1, 2) // a copy remains: reachability unchanged
		clean(t, g, 1)
	})

	t.Run("self-loop add and removal", func(t *testing.T) {
		g := New()
		g.SetSCC(ConnectivityIncremental, 0)
		g.AddVertex(1)
		g.AddEdge(1, 1)
		clean(t, g, 1)
		g.RemoveEdge(1, 1)
		clean(t, g, 1)
	})

	t.Run("isolated vertex removal", func(t *testing.T) {
		g := New()
		g.SetSCC(ConnectivityIncremental, 0)
		g.AddVertex(1)
		g.AddVertex(2)
		clean(t, g, 2)
		g.RemoveVertex(2)
		clean(t, g, 1)
	})

	t.Run("interior singleton-SCC vertex removal", func(t *testing.T) {
		// The shape the WCC taxonomy must dirty on but the SCC
		// taxonomy handles exactly: a chain interior is its own SCC,
		// so removing it just drops the count by one.
		g := New()
		g.SetSCC(ConnectivityIncremental, 1<<30)
		for i := 1; i <= 3; i++ {
			g.AddVertex(VertexID(i))
		}
		g.AddEdge(1, 2)
		g.AddEdge(2, 3)
		clean(t, g, 3)
		g.RemoveVertex(2)
		clean(t, g, 2)
	})

	t.Run("self-loop vertex removal", func(t *testing.T) {
		g := New()
		g.SetSCC(ConnectivityIncremental, 0)
		g.AddVertex(1)
		g.AddVertex(2)
		g.AddEdge(1, 1)
		g.AddEdge(1, 2)
		clean(t, g, 2)
		g.RemoveVertex(1) // self-loop SCC still has size 1: exact
		clean(t, g, 1)
	})

	t.Run("intra-SCC edge removal", func(t *testing.T) {
		g := New()
		g.SetSCC(ConnectivityIncremental, 1<<30)
		g.AddVertex(1)
		g.AddVertex(2)
		g.AddEdge(1, 2)
		g.AddEdge(2, 1)
		clean(t, g, 1)
		g.RemoveEdge(2, 1) // breaks the cycle: Tarjan over {1,2} splits it
		clean(t, g, 2)
	})

	t.Run("intra-SCC edge removal with a detour", func(t *testing.T) {
		g := New()
		g.SetSCC(ConnectivityIncremental, 1<<30)
		for i := 1; i <= 4; i++ {
			g.AddVertex(VertexID(i))
		}
		g.AddEdge(1, 2)
		g.AddEdge(2, 3)
		g.AddEdge(3, 1)
		g.AddEdge(1, 4)
		g.AddEdge(4, 2)
		clean(t, g, 1)
		g.RemoveEdge(1, 2) // 1→4→2 still closes the cycle
		clean(t, g, 1)
		g.RemoveEdge(3, 1) // now nothing returns to 1
		clean(t, g, 4)
	})

	t.Run("multi-member SCC vertex removal", func(t *testing.T) {
		g := New()
		g.SetSCC(ConnectivityIncremental, 1<<30)
		for i := 1; i <= 3; i++ {
			g.AddVertex(VertexID(i))
		}
		g.AddEdge(1, 2)
		g.AddEdge(2, 3)
		g.AddEdge(3, 1)
		clean(t, g, 1)
		g.RemoveVertex(2) // shatters the 3-cycle into {1} and {3}
		clean(t, g, 2)
	})

	t.Run("two cycles sharing a removed vertex", func(t *testing.T) {
		// 0→1→2→0 and 0→3→4→5→0 form one SCC through 0; removing 0
		// leaves two paths that are no longer even weakly connected.
		g := New()
		g.SetSCC(ConnectivityIncremental, 1<<30)
		for i := 0; i <= 5; i++ {
			g.AddVertex(VertexID(i))
		}
		g.AddEdge(0, 1)
		g.AddEdge(1, 2)
		g.AddEdge(2, 0)
		g.AddEdge(0, 3)
		g.AddEdge(3, 4)
		g.AddEdge(4, 5)
		g.AddEdge(5, 0)
		g.AddEdge(4, 3) // {3,4} stays a 2-cycle
		clean(t, g, 1)
		g.RemoveVertex(0)
		clean(t, g, 4) // {1}, {2}, {3,4}, {5}
	})

	t.Run("intra-SCC edge removal goes conservative", func(t *testing.T) {
		// Over budget: a cycle longer than the repair can enumerate.
		// Cutting one edge must dirty the tracker, and the rebuild must
		// see the cycle shatter into singletons.
		g := New()
		g.SetSCC(ConnectivityIncremental, 1<<30)
		n := DeleteRepairBudget + 1
		for i := 0; i < n; i++ {
			g.AddVertex(VertexID(i))
			if i > 0 {
				g.AddEdge(VertexID(i-1), VertexID(i))
			}
		}
		g.SetSCCProbeBudget(4 * n) // let the closing probe succeed
		g.AddEdge(VertexID(n-1), 0)
		clean(t, g, 1)
		g.RemoveEdge(VertexID(n/2), VertexID(n/2+1))
		if g.scc.dirty == 0 {
			t.Fatal("over-budget repair did not mark the tracker dirty")
		}
		if got := g.StronglyConnectedComponentCount(); got != n {
			t.Fatalf("count after split = %d, want %d", got, n)
		}
		sccOracleCheck(t, g)
	})

	t.Run("multi-member SCC vertex removal goes conservative", func(t *testing.T) {
		// Removing a vertex of the same over-long cycle: the rest is a
		// path too long to recompute within the budget.
		g := New()
		g.SetSCC(ConnectivityIncremental, 1<<30)
		n := DeleteRepairBudget + 1
		for i := 0; i < n; i++ {
			g.AddVertex(VertexID(i))
			if i > 0 {
				g.AddEdge(VertexID(i-1), VertexID(i))
			}
		}
		g.SetSCCProbeBudget(4 * n)
		g.AddEdge(VertexID(n-1), 0)
		clean(t, g, 1)
		g.RemoveVertex(VertexID(n / 2))
		if g.scc.dirty == 0 {
			t.Fatal("over-budget repair did not mark the tracker dirty")
		}
		if got := g.StronglyConnectedComponentCount(); got != n-1 {
			t.Fatalf("count after shatter = %d, want %d", got, n-1)
		}
		sccOracleCheck(t, g)
	})
}

// TestIncrementalSCCProbeBudgetBailout forces a probe past its budget:
// the tracker must dirty (not walk unboundedly, not miss the merge)
// and the next query must recover exactness via rebuild.
func TestIncrementalSCCProbeBudgetBailout(t *testing.T) {
	g := New()
	g.SetSCC(ConnectivityIncremental, 1<<30)
	g.SetSCCProbeBudget(3)
	const n = 32
	for i := 0; i < n; i++ {
		g.AddVertex(VertexID(i))
		if i > 0 {
			g.AddEdge(VertexID(i-1), VertexID(i))
		}
	}
	if g.StronglyConnectedComponentCount() != n {
		t.Fatal("setup")
	}
	g.AddEdge(n-1, 0) // probe must traverse 31 hops; budget is 3
	if g.scc.dirty == 0 {
		t.Fatal("over-budget probe did not mark the tracker dirty")
	}
	if got := g.StronglyConnectedComponentCount(); got != 1 {
		t.Fatalf("count after rebuild = %d, want 1", got)
	}
	sccOracleCheck(t, g)
}

// TestIncrementalSCCSlotReuse recycles vertex slots through the
// freelist while the tracker is live: a reused slot must come back as
// a fresh singleton SCC, not inherit the dead vertex's component.
func TestIncrementalSCCSlotReuse(t *testing.T) {
	g := New()
	g.SetSCC(ConnectivityIncremental, 1<<30)
	const n = 12
	for i := 0; i < n; i++ {
		g.AddVertex(VertexID(i))
		g.AddEdge(VertexID(i), VertexID((i+1)%n)) // targets may not exist yet
	}
	for i := 0; i < n; i++ {
		g.AddEdge(VertexID(i), VertexID((i+1)%n)) // now they all do
	}
	sccOracleCheck(t, g)
	for round := 0; round < 20; round++ {
		victim := VertexID(round % n)
		g.RemoveVertex(victim)
		sccOracleCheck(t, g)
		fresh := VertexID(1000 + round)
		g.AddVertex(fresh)
		sccOracleCheck(t, g) // fresh vertex must be its own SCC
		g.AddVertex(victim)
		g.AddEdge(victim, fresh)
		g.AddEdge(fresh, victim)
		sccOracleCheck(t, g)
		g.RemoveVertex(fresh)
		sccOracleCheck(t, g)
	}
}

// TestIncrementalSCCSwitchModes flips a live graph between modes;
// every switch must rebuild from scratch rather than trust tracker
// state from before it.
func TestIncrementalSCCSwitchModes(t *testing.T) {
	g := New()
	g.SetSCC(ConnectivityIncremental, 0)
	for i := 0; i < 8; i++ {
		g.AddVertex(VertexID(i))
		if i > 0 {
			g.AddEdge(VertexID(i-1), VertexID(i))
		}
	}
	g.AddEdge(7, 0)
	sccOracleCheck(t, g)
	g.SetSCC(ConnectivityVerify, 0)
	if g.scc.valid {
		t.Fatal("a mode switch should discard the tracker state")
	}
	g.RemoveVertex(3) // mutate while unbuilt
	g.StronglyConnectedComponentCount()
	g.SetSCC(ConnectivityIncremental, 0)
	sccOracleCheck(t, g)
	g.RemoveEdge(1, 2)
	sccOracleCheck(t, g)
}

// TestIncrementalSCCAllocs is the steady-state allocation gate: once
// the scratch arrays have hit their high-water marks, churn — probe
// completions, probe-driven unions, singleton removals, split repairs
// and the compactions they force — must reuse capacity. Wired into CI
// without -race (race instrumentation allocates).
func TestIncrementalSCCAllocs(t *testing.T) {
	g := New()
	g.SetSCC(ConnectivityIncremental, 0)
	const chain = 256
	for i := 0; i < chain; i++ {
		g.AddVertex(VertexID(i))
		if i > 0 {
			g.AddEdge(VertexID(i-1), VertexID(i))
		}
	}
	hub := VertexID(2000)
	for i := VertexID(0); i < 5; i++ {
		g.AddVertex(hub + i)
	}
	g.AddEdge(hub, hub+1)
	g.AddEdge(hub+1, hub+2)
	g.AddEdge(hub+2, hub)
	g.AddEdge(hub, hub+3)
	g.AddEdge(hub+3, hub+4)
	g.AddEdge(hub+4, hub)
	g.StronglyConnectedComponentCount()

	round := func() {
		// Cycle churn: closing the tail cycle exercises the probe's
		// merge path; breaking it is an intra-SCC removal that the
		// split repair resolves.
		for k := 0; k < 16; k++ {
			g.AddEdge(chain-1, chain-6)
			g.RemoveEdge(chain-1, chain-6)
			g.StronglyConnectedComponentCount()
		}
		// Vertex churn: pendants on distinct hosts (so the inline
		// adjacency never spills), removed as singleton SCCs — the
		// exact delete path plus freelist slot reuse.
		for k := 0; k < 16; k++ {
			id := VertexID(1000 + k)
			g.AddVertex(id)
			g.AddEdge(VertexID(k*8%200), id)
		}
		for k := 15; k >= 0; k-- {
			g.RemoveVertex(VertexID(1000 + k))
		}
		g.StronglyConnectedComponentCount()
		// Split churn: two cycles through a hub vertex; removing the
		// hub repairs the SCC into its remaining pieces, and re-adding
		// it merges them back through the probe.
		for k := 0; k < 8; k++ {
			g.RemoveVertex(hub)
			g.StronglyConnectedComponentCount()
			g.AddVertex(hub)
			g.AddEdge(hub, hub+1)
			g.AddEdge(hub+2, hub)
			g.AddEdge(hub, hub+3)
			g.AddEdge(hub+4, hub)
			g.StronglyConnectedComponentCount()
		}
		if g.scc.dirty != 0 {
			t.Fatal("a repairable delete dirtied the tracker")
		}
	}
	for i := 0; i < 64; i++ {
		round()
	}
	if avg := testing.AllocsPerRun(50, round); avg != 0 {
		t.Fatalf("steady-state churn allocates: %.1f allocs/round, want 0", avg)
	}
}

// TestParseSCC covers the -scc flag spellings and the error path.
func TestParseSCC(t *testing.T) {
	for _, mode := range []ConnectivityMode{ConnectivityIncremental, ConnectivityVerify} {
		got, err := ParseSCC(mode.String())
		if err != nil || got != mode {
			t.Errorf("ParseSCC(%q) = %v, %v", mode.String(), got, err)
		}
	}
	for _, bad := range []string{"snapshot", "eventual"} {
		if _, err := ParseSCC(bad); err == nil {
			t.Errorf("ParseSCC accepted %q", bad)
		} else if !strings.Contains(err.Error(), "scc mode") {
			t.Errorf("ParseSCC error should name the scc flag: %v", err)
		}
	}
}

// FuzzIncrementalSCC feeds arbitrary byte programs to the tracker as
// mutation sequences and diffs the maintained count against the
// Tarjan oracle, across the rebuild-threshold and probe-budget grid.
// Two bytes encode one operation: an opcode and two 4-bit vertex
// operands.
func FuzzIncrementalSCC(f *testing.F) {
	f.Add([]byte{0x00, 0x01, 0x00, 0x02, 0x02, 0x12, 0x02, 0x21})
	f.Add([]byte{0x00, 0x01, 0x01, 0x11, 0x03, 0x11, 0x04, 0x01})
	seed := make([]byte, 128)
	rng := rand.New(rand.NewSource(7))
	rng.Read(seed)
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, th := range []int{1, 4, DefaultRebuildThreshold, 1 << 30} {
			for _, budget := range []int{2, DefaultSCCProbeBudget} {
				g := New()
				g.SetSCC(ConnectivityIncremental, th)
				g.SetSCCProbeBudget(budget)
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
					if i%8 == 0 {
						sccOracleCheck(t, g)
					}
				}
				sccOracleCheck(t, g)
			}
		}
	})
}
