package main

import (
	"encoding/json"
	"io"
	"os"
	"sort"
	"testing"
	"time"

	"heapmd/internal/detect"
)

// Reduced specs on one small program keep the tests quick.
var (
	tinyCheck = spec{name: "tiny-check", programs: []string{"vortex"}, held: 4}
	tinyTrain = spec{name: "tiny-train", train: true, compress: true, programs: []string{"vortex"}}
)

func tinyBench(t *testing.T, sp spec) *bench {
	t.Helper()
	cfg, err := defaultConfig()
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := setupRepeated(sp, 7, cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestVerifyCountsPerturbedChecks(t *testing.T) {
	b := tinyBench(t, tinyCheck)
	cfg, _ := defaultConfig()
	fresh := func() *passOut {
		p, err := b.pass(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	if n := b.verify(fresh()); n != 0 {
		t.Fatalf("unperturbed pass: %d failed operations", n)
	}

	p := fresh()
	p.check[0].rep.Snapshots[len(p.check[0].rep.Snapshots)/2].Values[0] += 0.01
	if n := b.verify(p); n != 1 {
		t.Errorf("perturbed report: %d failed operations, want 1", n)
	}

	p = fresh()
	p.check[1].findings = append(p.check[1].findings, &detect.Finding{Kind: detect.RangeViolation, Metric: "Roots"})
	p.check[2].rep.Health.WildStores++
	if n := b.verify(p); n != 2 {
		t.Errorf("extra finding and perturbed health: %d failed operations, want 2", n)
	}

	p = fresh()
	p.check[3].info.EventsRecovered--
	if n := b.verify(p); n != 1 {
		t.Errorf("perturbed salvage info: %d failed operations, want 1", n)
	}
}

func TestVerifyCountsPerturbedTraining(t *testing.T) {
	b := tinyBench(t, tinyTrain)
	cfg, _ := defaultConfig()
	fresh := func() *passOut {
		p, err := b.pass(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	if n := b.verify(fresh()); n != 0 {
		t.Fatalf("unperturbed pass: %d failed operations", n)
	}

	p := fresh()
	tr := append([]byte(nil), p.train[0].trace...)
	tr[len(tr)/2] ^= 1
	p.train[0].trace = tr
	if n := b.verify(p); n != 1 {
		t.Errorf("perturbed trace bytes: %d failed operations, want 1", n)
	}

	p = fresh()
	m := append([]byte(nil), p.models[0]...)
	m[len(m)/2] ^= 1
	p.models[0] = m
	if n, want := b.verify(p), len(b.groups[0]); n != want {
		t.Errorf("perturbed model: %d failed operations, want %d (every run of the program)", n, want)
	}
}

// The layer-by-layer operations must reproduce the end-to-end outputs
// exactly, traced or not, or their timings describe other work.
func TestLayeredPassesVerify(t *testing.T) {
	cfg, _ := defaultConfig()
	for _, sp := range []spec{tinyCheck, tinyTrain} {
		b := tinyBench(t, sp)
		for _, traced := range []bool{false, true} {
			p, spans, st, err := b.layeredPass(cfg, traced, time.Now(), 0)
			if err != nil {
				t.Fatal(err)
			}
			if n := b.verify(p); n != 0 {
				t.Errorf("%s traced=%v: %d failed operations", sp.name, traced, n)
			}
			if traced && (len(spans) == 0 || st.points == 0) {
				t.Errorf("%s: traced pass recorded %d spans, %d points", sp.name, len(spans), st.points)
			}
		}
	}
}

// BENCHMARK.json names exactly the metrics the command prints, with
// the same units: the end-to-end ones with --trace 0 and the per-layer
// ones with --trace 1.
func TestBenchmarkJSONMatchesOutput(t *testing.T) {
	js, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark:", err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(js, &bf); err != nil {
		t.Fatal(err)
	}
	for _, sp := range []spec{tinyCheck, tinyTrain} {
		for tr, want := range [][]metricBound{bf.EndToEnd, bf.PerLayer} {
			res, err := measure(sp, options{seed: 1, seconds: 0.01, trace: tr, spans: t.TempDir() + "/spans.jsonl"}, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Attempted == 0 {
				t.Errorf("%s --trace %d: correct=%v attempted=%d failed=%d", sp.name, tr, res.Correct, res.Attempted, res.Failed)
			}
			var got, exp []string
			for n, v := range res.Metrics {
				got = append(got, n+" "+v.Unit)
			}
			for _, m := range want {
				exp = append(exp, m.Name+" "+m.Unit)
			}
			sort.Strings(got)
			sort.Strings(exp)
			if len(got) != len(exp) {
				t.Errorf("%s --trace %d: printed %d metrics, BENCHMARK.json lists %d\n got %v\nwant %v", sp.name, tr, len(got), len(exp), got, exp)
				continue
			}
			for i := range got {
				if got[i] != exp[i] {
					t.Errorf("%s --trace %d: printed %q, BENCHMARK.json lists %q", sp.name, tr, got[i], exp[i])
				}
			}
		}
	}
}
