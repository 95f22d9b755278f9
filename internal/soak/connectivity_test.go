package soak

import (
	"bytes"
	"testing"

	"heapmd/internal/faults"
	"heapmd/internal/heapgraph"
)

// TestSoakConnectivityVerify drives the full warmup → fault → recovery
// schedule with the extended suite in verify connectivity mode, at a
// rebuild threshold of 1 (rebuild on every conservative delete) and 8
// (amortized), over the two faults that stress the incremental
// tracker hardest: frag-storm (split-heavy churn) and
// aba-dangling-rewire (wild rewiring). Verify mode panics on the
// first divergence between the incremental count and the graph walk,
// so completing the schedule IS the differential result.
func TestSoakConnectivityVerify(t *testing.T) {
	for _, th := range []int{1, 8} {
		sb, err := Run(Options{
			Seed:             1,
			Faults:           []string{faults.FragStorm, faults.ABARewire},
			Extended:         true,
			Connectivity:     heapgraph.ConnectivityVerify,
			RebuildThreshold: th,
			Parallel:         -1,
		})
		if err != nil {
			t.Fatalf("threshold %d: %v", th, err)
		}
		if len(sb.Cells) == 0 {
			t.Fatalf("threshold %d: no cells ran", th)
		}
	}
}

// TestSoakConnectivityScoreboardEquivalence runs the same seeded cells
// under incremental and verify connectivity and requires byte-identical
// scoreboards: the oracle walk must not change a single verdict,
// latency or counter.
func TestSoakConnectivityScoreboardEquivalence(t *testing.T) {
	run := func(mode heapgraph.ConnectivityMode) []byte {
		sb, err := Run(Options{
			Seed:         1,
			Faults:       []string{faults.FragStorm, faults.ABARewire, faults.TypoLeak},
			Extended:     true,
			Connectivity: mode,
			Parallel:     -1,
		})
		if err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		var buf bytes.Buffer
		if err := sb.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	inc := run(heapgraph.ConnectivityIncremental)
	ver := run(heapgraph.ConnectivityVerify)
	if !bytes.Equal(inc, ver) {
		t.Fatalf("scoreboards differ between connectivity modes:\nincremental: %s\nverify:      %s", inc, ver)
	}
}

// TestSoakSCCVerify mirrors TestSoakConnectivityVerify for the strong
// connectivity tracker: the frag-storm and aba-dangling-rewire cells
// run the full warmup → fault → recovery schedule with the SCCs metric
// in verify mode at rebuild thresholds 1 and 8. Every metric point
// compares the incremental SCC count against the Tarjan walk
// and panics on divergence, so a completed schedule is the
// differential result.
func TestSoakSCCVerify(t *testing.T) {
	for _, th := range []int{1, 8} {
		sb, err := Run(Options{
			Seed:             1,
			Faults:           []string{faults.FragStorm, faults.ABARewire},
			Extended:         true,
			SCC:              heapgraph.ConnectivityVerify,
			RebuildThreshold: th,
			Parallel:         -1,
		})
		if err != nil {
			t.Fatalf("threshold %d: %v", th, err)
		}
		if len(sb.Cells) == 0 {
			t.Fatalf("threshold %d: no cells ran", th)
		}
	}
}

// TestSoakSCCScoreboardEquivalence requires that verifying the SCCs
// metric against the Tarjan walk — with the weak connectivity tracker
// incremental, as in production — changes nothing observable:
// byte-identical scoreboards, down to every verdict, latency bucket and
// counter.
func TestSoakSCCScoreboardEquivalence(t *testing.T) {
	run := func(scc heapgraph.ConnectivityMode) []byte {
		sb, err := Run(Options{
			Seed:         1,
			Faults:       []string{faults.FragStorm, faults.ABARewire, faults.TypoLeak},
			Extended:     true,
			Connectivity: heapgraph.ConnectivityIncremental,
			SCC:          scc,
			Parallel:     -1,
		})
		if err != nil {
			t.Fatalf("scc %s: %v", scc, err)
		}
		var buf bytes.Buffer
		if err := sb.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	inc := run(heapgraph.ConnectivityIncremental)
	ver := run(heapgraph.ConnectivityVerify)
	if !bytes.Equal(inc, ver) {
		t.Fatalf("scoreboards differ between scc modes:\nincremental: %s\nverify:      %s", inc, ver)
	}
}
