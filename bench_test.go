package heapmd

// Benchmark harness: one testing.B benchmark per table and figure of
// the paper's evaluation, each regenerating its artifact at reduced
// (Quick) scale per iteration, plus ablation benchmarks for the
// design choices DESIGN.md calls out:
//
//   - object- vs field-granularity heap graphs (paper Figure 3),
//   - incremental degree histograms vs full recomputation,
//   - metric sampling frequency,
//   - the trace-recording overhead of post-mortem mode.
//
// Run everything with:
//
//	go test -bench=. -benchmem
//
// The per-figure benchmarks exist so `go test -bench` regenerates the
// whole evaluation; for paper-scale output with the printed tables use
// cmd/heapmd-experiments.

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"heapmd/internal/event"
	"heapmd/internal/experiments"
	"heapmd/internal/heap"
	"heapmd/internal/heapgraph"
	"heapmd/internal/logger"
	"heapmd/internal/metrics"
	"heapmd/internal/model"
	"heapmd/internal/trace"
	"heapmd/internal/workloads"
)

var quick = experiments.Config{Quick: true}

func benchExperiment(b *testing.B, run func() error) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure4 regenerates the vpr metric trajectories.
func BenchmarkFigure4(b *testing.B) {
	benchExperiment(b, func() error { _, err := experiments.Figure4(quick); return err })
}

// BenchmarkFigure5 regenerates the vpr fluctuation series.
func BenchmarkFigure5(b *testing.B) {
	benchExperiment(b, func() error { _, err := experiments.Figure5(quick); return err })
}

// BenchmarkFigure6 regenerates the vpr stability statistics table.
func BenchmarkFigure6(b *testing.B) {
	benchExperiment(b, func() error { _, err := experiments.Figure6(quick); return err })
}

// BenchmarkFigure7A regenerates the stable-metrics table across all
// 13 benchmarks.
func BenchmarkFigure7A(b *testing.B) {
	benchExperiment(b, func() error { _, err := experiments.Figure7A(quick); return err })
}

// BenchmarkFigure7B regenerates the cross-version stability table.
func BenchmarkFigure7B(b *testing.B) {
	benchExperiment(b, func() error { _, err := experiments.Figure7B(quick); return err })
}

// BenchmarkFigure10 regenerates the PC Game/Action range-violation
// trace.
func BenchmarkFigure10(b *testing.B) {
	benchExperiment(b, func() error { _, err := experiments.Figure10(quick); return err })
}

// BenchmarkTable1 regenerates the SWAT-vs-HeapMD leak comparison.
func BenchmarkTable1(b *testing.B) {
	benchExperiment(b, func() error { _, err := experiments.Table1(quick); return err })
}

// BenchmarkTable2 regenerates the 40-bug census.
func BenchmarkTable2(b *testing.B) {
	benchExperiment(b, func() error { _, err := experiments.Table2(quick); return err })
}

// BenchmarkSPECInjection regenerates the Section 4.2 injected-bug
// validation.
func BenchmarkSPECInjection(b *testing.B) {
	benchExperiment(b, func() error { _, err := experiments.SPECInjection(quick); return err })
}

// BenchmarkThresholdSweep regenerates the Section 3 threshold
// resilience study.
func BenchmarkThresholdSweep(b *testing.B) {
	benchExperiment(b, func() error { _, err := experiments.ThresholdSweep(quick); return err })
}

// ---------------------------------------------------------------------------
// Ablations.

// BenchmarkGranularityAblation compares instrumentation cost at
// object vs field granularity on the same workload (paper Figure 3:
// field granularity multiplies vertex counts and makes metrics layout-
// sensitive; this measures what it costs).
func BenchmarkGranularityAblation(b *testing.B) {
	for _, gran := range []logger.Granularity{logger.ObjectGranularity, logger.FieldGranularity} {
		b.Run(gran.String(), func(b *testing.B) {
			w, err := workloads.Get("productivity")
			if err != nil {
				b.Fatal(err)
			}
			in := w.Inputs(1)[0]
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, _, err := workloads.RunLogged(w, in, workloads.RunConfig{
					Logger: logger.Options{Granularity: gran, Frequency: 16},
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkIncrementalVsRecompute quantifies the central data-
// structure decision: HeapMD's logger answers degree queries from
// incrementally maintained histograms in O(1); the alternative scans
// every vertex per metric computation point.
func BenchmarkIncrementalVsRecompute(b *testing.B) {
	build := func() *heapgraph.Graph {
		g := heapgraph.New()
		for i := 0; i < 50000; i++ {
			g.AddVertex(heapgraph.VertexID(i))
		}
		for i := 0; i < 50000; i++ {
			g.AddEdge(heapgraph.VertexID(i), heapgraph.VertexID((i*7+13)%50000))
		}
		return g
	}
	b.Run("incremental-histograms", func(b *testing.B) {
		g := build()
		suite := metrics.DefaultSuite()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			suite.Compute(g, uint64(i))
		}
	})
	b.Run("full-recompute", func(b *testing.B) {
		g := build()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// Scan every vertex, recomputing each degree count the
			// way a histogram-less implementation would.
			var in0, in1, in2, out0, out1, out2, eq int
			g.Vertices(func(v heapgraph.VertexID) bool {
				id, od := g.InDegree(v), g.OutDegree(v)
				switch id {
				case 0:
					in0++
				case 1:
					in1++
				case 2:
					in2++
				}
				switch od {
				case 0:
					out0++
				case 1:
					out1++
				case 2:
					out2++
				}
				if id == od {
					eq++
				}
				return true
			})
			_ = in0 + in1 + in2 + out0 + out1 + out2 + eq
		}
	})
}

// BenchmarkSamplingFrequency sweeps the metric computation frequency
// (the paper's frq): the instrumentation overhead of one full run at
// each setting.
func BenchmarkSamplingFrequency(b *testing.B) {
	w, err := workloads.Get("gzip")
	if err != nil {
		b.Fatal(err)
	}
	in := w.Inputs(1)[0]
	for _, frq := range []uint64{4, 16, 64, 256} {
		b.Run(fmt.Sprintf("frq-%d", frq), func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, _, err := workloads.RunLogged(w, in, workloads.RunConfig{
					Logger: logger.Options{Frequency: frq},
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkInstrumentationOverhead compares a run with no observers,
// with the execution logger, and with logger + trace recording — the
// paper reports a 2-3x slowdown for its instrumentation; this measures
// ours.
func BenchmarkInstrumentationOverhead(b *testing.B) {
	w, err := workloads.Get("crafty")
	if err != nil {
		b.Fatal(err)
	}
	in := w.Inputs(1)[0]
	b.Run("logger-only", func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := workloads.RunLogged(w, in, workloads.RunConfig{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("logger-plus-trace", func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var buf bytes.Buffer
			tw, err := trace.NewWriter(&buf)
			if err != nil {
				b.Fatal(err)
			}
			_, p, err := workloads.RunLogged(w, in, workloads.RunConfig{
				ExtraSinks: []event.Sink{tw},
			})
			if err != nil {
				b.Fatal(err)
			}
			if err := tw.Close(p.Sym()); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// eventSynth synthesizes one instrumented thread's event stream into
// sink: allocations, pointer stores, frees and function entries over a
// private address arena, with `work` rounds of arithmetic per event
// standing in for the application computation between instrumentation
// points. Deterministic per (arena, count, work), so the direct and
// pipelined benchmark variants ingest identical streams.
func eventSynth(sink event.Sink, arena uint64, count, work int) {
	base := (arena + 1) << 32
	live := make([]uint64, 0, 1024)
	acc := base | 1
	for i := 0; i < count; i++ {
		for w := 0; w < work; w++ {
			acc = acc*6364136223846793005 + 1442695040888963407
		}
		switch acc % 8 {
		case 0, 1, 2:
			addr := base + uint64(i)*64
			sink.Emit(event.Event{Type: event.Alloc, Addr: addr, Size: 32, Fn: 1})
			live = append(live, addr)
		case 3, 4:
			if len(live) >= 2 {
				src := live[(acc>>8)%uint64(len(live))]
				dst := live[(acc>>24)%uint64(len(live))]
				sink.Emit(event.Event{Type: event.Store, Addr: src + 8, Value: dst})
			}
		case 5:
			if len(live) > 0 {
				k := (acc >> 16) % uint64(len(live))
				sink.Emit(event.Event{Type: event.Free, Addr: live[k]})
				live = append(live[:k], live[k+1:]...)
			}
		default:
			sink.Emit(event.Event{Type: event.Enter, Fn: 2})
			sink.Emit(event.Event{Type: event.Leave})
		}
	}
}

// BenchmarkPipelineIngestion measures the tentpole concurrency win:
// total wall-clock to synthesize and ingest four instrumented
// threads' event streams, single-threaded against the bare Logger vs
// four concurrent producers through the Pipeline. The per-event code
// is identical in both variants — only the concurrency differs. The
// synthesis work (~2x the logger's apply cost per event) models the
// application computation between instrumentation points; with
// GOMAXPROCS >= 2 it overlaps the consumer's graph mutation and the
// pipeline variant ingests >= 2x faster, while on a single core the
// two variants measure the pipeline's framing overhead (a few
// percent) instead.
func BenchmarkPipelineIngestion(b *testing.B) {
	const producers = 4
	const perProducer = 8192
	const work = 1200

	b.Run("direct-single-threaded", func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		var ingested uint64
		for i := 0; i < b.N; i++ {
			l := logger.New(logger.Options{Frequency: 1024})
			for a := 0; a < producers; a++ {
				eventSynth(l, uint64(a), perProducer, work)
			}
			ingested = l.Report().Events
			if ingested == 0 {
				b.Fatal("no events ingested")
			}
		}
		b.ReportMetric(float64(ingested)*float64(b.N)/b.Elapsed().Seconds(), "events/sec")
	})
	b.Run("pipeline-4-producers", func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		var ingested uint64
		for i := 0; i < b.N; i++ {
			l := logger.New(logger.Options{Frequency: 1024})
			p := logger.NewPipeline(l, logger.PipelineOptions{})
			var wg sync.WaitGroup
			for a := 0; a < producers; a++ {
				wg.Add(1)
				go func(arena int) {
					defer wg.Done()
					pr := p.NewProducer()
					defer pr.Close()
					eventSynth(pr, uint64(arena), perProducer, work)
				}(a)
			}
			wg.Wait()
			if err := p.Close(); err != nil {
				b.Fatal(err)
			}
			ingested = l.Report().Events
			if ingested == 0 {
				b.Fatal("no events ingested")
			}
		}
		b.ReportMetric(float64(ingested)*float64(b.N)/b.Elapsed().Seconds(), "events/sec")
	})
}

// BenchmarkStoreHotPath isolates the per-event store path — the code
// the logger runs for every observed pointer write: two address
// resolutions (source object, target object), the slot-table update,
// and the edge retire/install pair on the heap-graph. No sampling, no
// allocation churn: what remains is pure data-structure cost.
//
//   - scatter: source and destination objects change every store, the
//     worst case for any locality cache.
//   - burst: a run of stores lands in the same source object before
//     moving on — the common real-program pattern (object
//     initialization) that the address index's last-hit cache targets.
func BenchmarkStoreHotPath(b *testing.B) {
	const n = 4096 // live objects, power of two
	setup := func() (*logger.Logger, []uint64) {
		l := logger.New(logger.Options{Frequency: 1 << 62})
		addrs := make([]uint64, n)
		for i := range addrs {
			addr := uint64(0x100_0000_0000) + uint64(i)*64
			addrs[i] = addr
			l.Emit(event.Event{Type: event.Alloc, Addr: addr, Size: 64, Fn: 1})
		}
		return l, addrs
	}
	b.Run("scatter", func(b *testing.B) {
		l, addrs := setup()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			src := addrs[i&(n-1)]
			dst := addrs[(i*31+7)&(n-1)]
			l.Emit(event.Event{Type: event.Store, Addr: src + 8, Value: dst})
		}
	})
	b.Run("burst", func(b *testing.B) {
		l, addrs := setup()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// Seven consecutive stores into one object's slots, then
			// advance to the next object.
			src := addrs[(i/7)&(n-1)]
			slot := uint64(i%7+1) * 8
			dst := addrs[(i*13+5)&(n-1)]
			l.Emit(event.Event{Type: event.Store, Addr: src + slot, Value: dst})
		}
	})
	// churn: the store-heavy mixed workload the acceptance numbers are
	// measured on. Each iteration is a batch of eight events — one
	// free, one re-alloc at the same address, six stores — so the
	// per-object bookkeeping (object record, slot table, vertex,
	// adjacency) is allocated and recycled continuously instead of
	// being amortized away by a one-time warmup, and allocs/op counts
	// whole batches rather than rounding a fraction down to zero.
	b.Run("churn", func(b *testing.B) {
		l, addrs := setup()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			k := (i * 17) & (n - 1)
			l.Emit(event.Event{Type: event.Free, Addr: addrs[k]})
			l.Emit(event.Event{Type: event.Alloc, Addr: addrs[k], Size: 64, Fn: 1})
			for j := 0; j < 6; j++ {
				src := addrs[(i*8+j)&(n-1)]
				dst := addrs[((i*8+j)*31+7)&(n-1)]
				l.Emit(event.Event{Type: event.Store, Addr: src + 8, Value: dst})
			}
		}
	})
}

// BenchmarkParallelTrain measures the run scheduler: one training
// fleet (16 parser inputs) executed serially vs on 8 workers. The
// reports are bit-identical (see TestTrainManyMatchesSerial and the
// experiments parallel oracle); only wall-clock differs. On a
// single-core host the workers=8 variant measures scheduler overhead
// instead of speedup — the ratio approaches the core count as cores
// are added, since runs share nothing.
func BenchmarkParallelTrain(b *testing.B) {
	w, err := workloads.Get("parser")
	if err != nil {
		b.Fatal(err)
	}
	const fleet = 16
	for _, workers := range []int{1, 8} {
		b.Run(fmt.Sprintf("workers-%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				reports, err := workloads.Train(w, fleet, workloads.RunConfig{Parallel: workers})
				if err != nil {
					b.Fatal(err)
				}
				if len(reports) != fleet {
					b.Fatalf("%d reports", len(reports))
				}
			}
			b.ReportMetric(float64(fleet)*float64(b.N)/b.Elapsed().Seconds(), "runs/sec")
		})
	}
}

// emitOnlySink hides a sink's EmitBatch so replay falls back to one
// Emit call per event — the pre-batching baseline.
type emitOnlySink struct{ s event.Sink }

func (w emitOnlySink) Emit(e event.Event) { w.s.Emit(e) }

// recordParserTraces records one parser-workload run simultaneously
// into every trace format and returns the encoded traces plus the
// event count. Function-entry dominated, like the production traces
// post-mortem mode replays; shared by the replay benchmarks and the
// v3 size-budget test.
func recordParserTraces(t testing.TB) (map[string][]byte, uint64) {
	w, err := workloads.Get("parser")
	if err != nil {
		t.Fatal(err)
	}
	formats := []struct {
		name string
		opts trace.WriterOptions
	}{
		{"v2", trace.WriterOptions{Version: trace.Version}},
		{"v3", trace.WriterOptions{Version: trace.VersionV3}},
		{"v3-flate", trace.WriterOptions{Version: trace.VersionV3, Compress: true}},
	}
	bufs := make([]bytes.Buffer, len(formats))
	writers := make([]*trace.Writer, len(formats))
	sinks := make([]event.Sink, len(formats))
	for i, f := range formats {
		tw, err := trace.NewWriterWith(&bufs[i], f.opts)
		if err != nil {
			t.Fatal(err)
		}
		writers[i] = tw
		sinks[i] = tw
	}
	_, p, err := workloads.RunLogged(w, w.Inputs(1)[0], workloads.RunConfig{
		ExtraSinks: sinks,
	})
	if err != nil {
		t.Fatal(err)
	}
	nEvents := writers[0].Events()
	out := make(map[string][]byte, len(formats))
	for i, f := range formats {
		if err := writers[i].Close(p.Sym()); err != nil {
			t.Fatal(err)
		}
		out[f.name] = bufs[i].Bytes()
	}
	return out, nEvents
}

// BenchmarkReplayThroughput measures the batched trace replay fast
// path into a real logger: per-event delivery (the old code path) and
// frame-batched delivery through the batch-sink interface — for the
// fixed-width v2 format and the columnar v3 format, compressed and
// not. The frame-decode loop reuses its payload and batch buffers, so
// the batched variants hold allocs/op flat regardless of trace
// length; bytes/event shows the storage density each format trades
// that throughput against.
func BenchmarkReplayThroughput(b *testing.B) {
	traces, nEvents := recordParserTraces(b)
	variants := []struct {
		name   string
		format string
		run    func(l *logger.Logger, data []byte) error
	}{
		{"per-event", "v2", func(l *logger.Logger, data []byte) error {
			_, _, err := trace.Replay(bytes.NewReader(data), emitOnlySink{l})
			return err
		}},
		{"batched", "v2", func(l *logger.Logger, data []byte) error {
			_, _, err := trace.Replay(bytes.NewReader(data), l)
			return err
		}},
		{"batched-v3", "v3", func(l *logger.Logger, data []byte) error {
			_, _, err := trace.Replay(bytes.NewReader(data), l)
			return err
		}},
		{"batched-v3-flate", "v3-flate", func(l *logger.Logger, data []byte) error {
			_, _, err := trace.Replay(bytes.NewReader(data), l)
			return err
		}},
	}
	for _, v := range variants {
		data := traces[v.format]
		b.Run(v.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(data)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				l := logger.New(logger.Options{Frequency: 1024})
				if err := v.run(l, data); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(nEvents)*float64(b.N)/b.Elapsed().Seconds(), "events/sec")
			b.ReportMetric(float64(len(data))/float64(nEvents), "bytes/event")
		})
	}
}

// BenchmarkModelBuild measures summarizer cost at paper-ish training
// sizes.
func BenchmarkModelBuild(b *testing.B) {
	w, err := workloads.Get("parser")
	if err != nil {
		b.Fatal(err)
	}
	reports, err := workloads.Train(w, 10, workloads.RunConfig{})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := model.Build(reports, model.Defaults()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHeapSimulator measures raw simulated-heap throughput — the
// substrate every experiment stands on.
func BenchmarkHeapSimulator(b *testing.B) {
	s := heap.New()
	var addrs []uint64
	for i := 0; i < 4096; i++ {
		a, err := s.Alloc(32)
		if err != nil {
			b.Fatal(err)
		}
		addrs = append(addrs, a)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src := addrs[i%4096]
		dst := addrs[(i*31+7)%4096]
		if err := s.Store(src, dst); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkConnectivityMetricPoint measures the cost of one Components
// metric point — a burst of heap churn followed by the component-count
// query — with the incremental union-find tracker, and in verify mode,
// which adds the O(V+E) oracle walk per point. The walk's cost grows
// with heap size; the tracker is costed by the churn between points,
// so its per-point cost stays flat.
func BenchmarkConnectivityMetricPoint(b *testing.B) {
	build := func(n int, mode heapgraph.ConnectivityMode) *heapgraph.Graph {
		g := heapgraph.New()
		g.SetConnectivity(mode, 0)
		for i := 0; i < n; i++ {
			g.AddVertex(heapgraph.VertexID(i))
		}
		// Mostly list/tree-shaped linkage with some cross edges: the
		// paper's heap shapes, and a mix of no-op, leaf and split
		// deletes under churn.
		for i := 1; i < n; i++ {
			g.AddEdge(heapgraph.VertexID(i/2), heapgraph.VertexID(i))
		}
		for i := 0; i < n/8; i++ {
			g.AddEdge(heapgraph.VertexID(i*7%n), heapgraph.VertexID(i*13%n))
		}
		return g
	}
	for _, n := range []int{10000, 50000, 200000} {
		for _, mode := range []heapgraph.ConnectivityMode{
			heapgraph.ConnectivityVerify,
			heapgraph.ConnectivityIncremental,
		} {
			b.Run(fmt.Sprintf("V=%d/%s", n, mode), func(b *testing.B) {
				g := build(n, mode)
				g.ConnectedComponentCount() // settle the initial build
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					// ~64 graph operations of churn per metric point:
					// allocate a small linked run, free an old one.
					base := heapgraph.VertexID(n + (i%1024)*16)
					for j := 0; j < 16; j++ {
						g.AddVertex(base + heapgraph.VertexID(j))
						if j > 0 {
							g.AddEdge(base+heapgraph.VertexID(j-1), base+heapgraph.VertexID(j))
						}
					}
					old := heapgraph.VertexID(n + ((i+512)%1024)*16)
					for j := 15; j >= 0; j-- {
						g.RemoveVertex(old + heapgraph.VertexID(j))
					}
					g.ConnectedComponentCount()
				}
			})
		}
	}
}

// BenchmarkSCCMetricPoint is the strong-connectivity sibling of
// BenchmarkConnectivityMetricPoint: one SCCs metric point — a burst of
// heap churn followed by the strong component count query — with the
// incremental SCC tracker, and in verify mode, which adds the Tarjan
// walk. The churn is pendant-run allocation and teardown, which the
// tracker's singleton delete class absorbs without a repair, so the
// incremental per-point cost stays flat while the walk pays O(V+E).
func BenchmarkSCCMetricPoint(b *testing.B) {
	build := func(n int, mode heapgraph.ConnectivityMode) *heapgraph.Graph {
		g := heapgraph.New()
		g.SetSCC(mode, 0)
		for i := 0; i < n; i++ {
			g.AddVertex(heapgraph.VertexID(i))
		}
		// Same shape as the weak-connectivity benchmark: tree linkage
		// plus cross edges, so some inserts close cycles and exercise
		// the probe while the churn below stays in the exact classes.
		for i := 1; i < n; i++ {
			g.AddEdge(heapgraph.VertexID(i/2), heapgraph.VertexID(i))
		}
		for i := 0; i < n/8; i++ {
			g.AddEdge(heapgraph.VertexID(i*7%n), heapgraph.VertexID(i*13%n))
		}
		return g
	}
	for _, n := range []int{10000, 50000, 200000} {
		for _, mode := range []heapgraph.ConnectivityMode{
			heapgraph.ConnectivityVerify,
			heapgraph.ConnectivityIncremental,
		} {
			b.Run(fmt.Sprintf("V=%d/%s", n, mode), func(b *testing.B) {
				g := build(n, mode)
				g.StronglyConnectedComponentCount() // settle the initial build
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					base := heapgraph.VertexID(n + (i%1024)*16)
					for j := 0; j < 16; j++ {
						g.AddVertex(base + heapgraph.VertexID(j))
						if j > 0 {
							g.AddEdge(base+heapgraph.VertexID(j-1), base+heapgraph.VertexID(j))
						}
					}
					old := heapgraph.VertexID(n + ((i+512)%1024)*16)
					for j := 15; j >= 0; j-- {
						g.RemoveVertex(old + heapgraph.VertexID(j))
					}
					g.StronglyConnectedComponentCount()
				}
			})
		}
	}
}
