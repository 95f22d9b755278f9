package heapmd

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"testing"

	"heapmd/internal/event"
	"heapmd/internal/heap"
	"heapmd/internal/metrics"
	"heapmd/internal/prog"
	"heapmd/internal/sched"
	"heapmd/internal/trace"
	"heapmd/internal/workloads"
)

// recordWorkloadTrace records one run of w on in as a raw v3 trace,
// the format the post-mortem checks replay.
func recordWorkloadTrace(t testing.TB, w workloads.Workload, in workloads.Input) []byte {
	t.Helper()
	var buf bytes.Buffer
	_, _, err := workloads.RunLogged(w, in, workloads.RunConfig{
		Record: func(_ workloads.Input, p *prog.Process) (func() error, error) {
			tw, err := trace.NewWriterWith(&buf, trace.WriterOptions{Version: trace.VersionV3})
			if err != nil {
				return nil, err
			}
			tw.SetSymtab(p.Sym())
			p.Subscribe(tw)
			return func() error { return tw.Close(p.Sym()) }, nil
		},
	})
	if err != nil {
		t.Fatalf("%s: %v", w.Name(), err)
	}
	return buf.Bytes()
}

// recordFreeMisuseTrace hand-writes a raw v3 trace of the free misuse
// a damaged or buggy stream carries — wild frees, then a double free —
// at the first addresses every bundled program allocates and frees.
// Whether a free is wild or double depends on the freed-address set,
// so a replay on a reused logger must start that set empty.
func recordFreeMisuseTrace(t testing.TB) []byte {
	t.Helper()
	var buf bytes.Buffer
	tw, err := trace.NewWriterWith(&buf, trace.WriterOptions{Version: trace.VersionV3})
	if err != nil {
		t.Fatal(err)
	}
	sym := event.NewSymtab()
	fn := sym.Intern("main")
	tw.SetSymtab(sym)
	for i := uint64(0); i < 64; i++ {
		addr := heap.Base + i/4*64
		tw.Emit(event.Event{Type: event.Enter, Fn: fn})
		if i%4 == 1 {
			tw.Emit(event.Event{Type: event.Alloc, Addr: addr, Size: 64})
		} else {
			tw.Emit(event.Event{Type: event.Free, Addr: addr}) // wild, legitimate, double
		}
		tw.Emit(event.Event{Type: event.Leave})
	}
	if err := tw.Close(sym); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// replayJob is one trace and the options it is replayed with.
type replayJob struct {
	name, program string
	data          []byte
	opts          ReplayOptions
}

// replayOutcome is everything a replay returns that the caller can
// observe.
type replayOutcome struct {
	rep  *Report
	info SalvageInfo
	syms int
}

func (j *replayJob) replay() (replayOutcome, error) {
	rep, sym, info, err := ReplayTraceWith(bytes.NewReader(j.data), j.program, "in", j.opts)
	if err != nil {
		return replayOutcome{}, fmt.Errorf("%s: %w", j.name, err)
	}
	return replayOutcome{rep: rep, info: *info, syms: sym.Len()}, nil
}

// diffOutcome describes the first difference between two outcomes, or
// returns "" when they are identical (metric values compared by bit
// pattern).
func diffOutcome(got, want replayOutcome) string {
	g, w := got.rep, want.rep
	switch {
	case got.info != want.info:
		return fmt.Sprintf("salvage info %+v, want %+v", got.info, want.info)
	case got.syms != want.syms:
		return fmt.Sprintf("%d symbols, want %d", got.syms, want.syms)
	case g.Program != w.Program || g.Input != w.Input || g.Version != w.Version:
		return fmt.Sprintf("run %s/%s/%d, want %s/%s/%d", g.Program, g.Input, g.Version, w.Program, w.Input, w.Version)
	case fmt.Sprint(g.Suite) != fmt.Sprint(w.Suite):
		return fmt.Sprintf("suite %v, want %v", g.Suite, w.Suite)
	case g.FnEntries != w.FnEntries || g.Events != w.Events:
		return fmt.Sprintf("%d entries / %d events, want %d / %d", g.FnEntries, g.Events, w.FnEntries, w.Events)
	case g.Health != w.Health:
		return fmt.Sprintf("health %+v, want %+v", g.Health, w.Health)
	case len(g.Snapshots) != len(w.Snapshots):
		return fmt.Sprintf("%d snapshots, want %d", len(g.Snapshots), len(w.Snapshots))
	}
	for i := range w.Snapshots {
		gs, ws := g.Snapshots[i], w.Snapshots[i]
		if gs.Tick != ws.Tick || gs.Vertices != ws.Vertices || gs.Edges != ws.Edges || len(gs.Values) != len(ws.Values) {
			return fmt.Sprintf("snapshot %d = %+v, want %+v", i, gs, ws)
		}
		for k := range ws.Values {
			if math.Float64bits(gs.Values[k]) != math.Float64bits(ws.Values[k]) {
				return fmt.Sprintf("snapshot %d value %d = %v, want %v", i, k, gs.Values[k], ws.Values[k])
			}
		}
	}
	return ""
}

// replayFresh replays j into a logger that has never been pooled. Two
// collections empty the logger pool (the first moves its contents to
// the victim cache, the second drops them), so the New inside the
// replay allocates. The test runs no replays concurrently with this.
func replayFresh(t *testing.T, j *replayJob) replayOutcome {
	t.Helper()
	runtime.GC()
	runtime.GC()
	out, err := j.replay()
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestReplayReuseMatchesFresh is the oracle for pooled per-trace
// state: replays that reuse a released logger — its graph, address
// table and call stack Reset rather than new — must report exactly
// what a replay into a never-pooled logger reports. The jobs mix
// every bundled program with a truncated trace replayed under
// salvage, an extended-suite replay in verify mode and a trace of
// wild and double frees, in an interleaved order, serially and on four
// workers.
func TestReplayReuseMatchesFresh(t *testing.T) {
	var clean []replayJob
	for _, w := range workloads.All() {
		clean = append(clean, replayJob{
			name:    w.Name(),
			program: w.Name(),
			data:    recordWorkloadTrace(t, w, w.Inputs(1)[0]),
		})
	}
	src := clean[0]
	damaged := replayJob{
		name:    src.name + "/truncated",
		program: src.program,
		data:    src.data[:len(src.data)*2/3],
		opts:    ReplayOptions{Salvage: true},
	}
	ext := clean[len(clean)/2]
	extended := replayJob{
		name:    ext.name + "/extended-verify",
		program: ext.program,
		data:    ext.data,
		opts: ReplayOptions{
			Suite:        metrics.ExtendedSuite(),
			Connectivity: ConnectivityVerify,
			SCC:          ConnectivityVerify,
		},
	}
	misuse := replayJob{name: "free-misuse", program: "misuse", data: recordFreeMisuseTrace(t)}
	jobs := append(clean, damaged, extended, misuse)
	nDamaged, nExtended, nMisuse := len(clean), len(clean)+1, len(clean)+2

	want := make([]replayOutcome, len(jobs))
	for i := range jobs {
		want[i] = replayFresh(t, &jobs[i])
	}
	if !want[nDamaged].info.Salvaged() {
		t.Fatalf("%s: replayed clean: %+v", damaged.name, want[nDamaged].info)
	}
	if h := want[nMisuse].rep.Health; h.WildFrees == 0 || h.DoubleFrees == 0 {
		t.Fatalf("%s: health %+v, want wild and double frees", misuse.name, h)
	}

	// A, damaged, B, extended, misuse, B, damaged, C, extended,
	// misuse, …: every job runs on a logger last used by a different
	// kind of trace.
	var order []int
	for i := range clean {
		order = append(order, i, nDamaged, (i+5)%len(clean), nExtended, nMisuse)
	}

	check := func(mode string, outs []replayOutcome) {
		t.Helper()
		for k, o := range outs {
			j := order[k]
			if d := diffOutcome(o, want[j]); d != "" {
				t.Errorf("%s replay %d (%s): %s", mode, k, jobs[j].name, d)
			}
		}
	}
	serial := make([]replayOutcome, len(order))
	for k, j := range order {
		out, err := jobs[j].replay()
		if err != nil {
			t.Fatal(err)
		}
		serial[k] = out
	}
	check("serial", serial)

	parallel, err := sched.Map(4, len(order), func(k int) (replayOutcome, error) {
		return jobs[order[k]].replay()
	})
	if err != nil {
		t.Fatal(err)
	}
	check("parallel", parallel)
}

// warmReplayBytesPerEvent is the budget of TestReplayWarmAllocs: the
// average bytes allocated per event by a replay whose logger comes
// from the pool. Measured at introduction on the recorded parser
// trace: 6.3 (33 when every replay built a new logger; over the whole
// check-corpus benchmark, 15 against 81).
const warmReplayBytesPerEvent = 25.0

// TestReplayWarmAllocs is the alloc gate for pooled per-trace state:
// back-to-back replays of one recorded trace must reuse the released
// logger's arenas instead of regrowing them, with a collection between
// some replays (the pool's victim cache keeps the logger across one).
func TestReplayWarmAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates, and its sync.Pool drops items at random")
	}
	w, err := workloads.Get("parser")
	if err != nil {
		t.Fatal(err)
	}
	job := replayJob{name: "parser", program: "parser", data: recordWorkloadTrace(t, w, w.Inputs(1)[0])}
	out, err := job.replay() // warm the pool
	if err != nil {
		t.Fatal(err)
	}
	events := out.rep.Events

	const replays = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < replays; i++ {
		if i%5 == 4 {
			runtime.GC()
		}
		if _, err := job.replay(); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	perEvent := float64(after.TotalAlloc-before.TotalAlloc) / float64(replays*events)
	t.Logf("%d events per replay, %.1f B/event over %d warm replays", events, perEvent, replays)
	if perEvent > warmReplayBytesPerEvent {
		t.Errorf("warm replay allocates %.1f B/event, budget %.1f", perEvent, warmReplayBytesPerEvent)
	}
}
