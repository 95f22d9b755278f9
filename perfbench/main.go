// Command perfbench is heapmd's end-to-end benchmark. It drives the
// public entry points the heapmd CLI composes, with the CLI's default
// worker resolution, over inputs generated from a seed, and checks
// every operation against an all-serial reference computed in the
// same process. See README.md for the workloads, the metrics and what
// each per-layer metric is expected to move.
//
// Usage, from the root of the repository:
//
//	bash perfbench/run.sh --workload check-corpus --seed 1 --seconds 10 --trace 0
//	bash perfbench/run.sh --workload train-record --trace 1
//	bash perfbench/run.sh --workload check-extended --repeat 5
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics: the end-to-end metrics with
// --trace 0, the per-layer metrics with --trace 1. The exit status is
// nonzero if any operation failed verification.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"text/tabwriter"
	"time"
)

// defaultSeed is the workload seed used when --seed is not given.
const defaultSeed = 1

// setupReps is how many times a --trace 0 run sets up; setup_s is the
// median. A --trace 1 run, which does not report setup_s, sets up
// twice.
const setupReps = 3

// minTailOps is the fewest operations a timed window holds, so that
// op_ms.p95 has minTail samples beyond it.
const minTailOps = minTail * 20

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	repeat   int
	spans    string
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(specNames(), ", "))
	fs.Int64Var(&o.seed, "seed", defaultSeed, "workload seed: shifts every input's seed")
	fs.Float64Var(&o.seconds, "seconds", 10, "length of the timed window in seconds")
	fs.IntVar(&o.trace, "trace", 0, "0 = end-to-end metrics; 1 = per-layer metrics from a separate traced run")
	fs.IntVar(&o.repeat, "repeat", 0, "run the workload this many times on consecutive seeds and print each metric's median, quartiles and spread against its bound")
	fs.StringVar(&o.spans, "spans", "", "with --trace 1, write the spans as JSON lines to this file (default .bench_build/spans-<workload>.jsonl)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	sp, err := specByName(o.workload)
	if err != nil || o.seconds <= 0 || (o.trace != 0 && o.trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --seconds > 0 and --trace 0|1\n", strings.Join(specNames(), ", "))
		return 2
	}
	if o.repeat > 0 {
		return repeat(o, args, stdout, stderr)
	}
	res, err := measure(sp, o, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := json.NewEncoder(stdout).Encode(res); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if !res.Correct {
		fmt.Fprintf(stderr, "perfbench: %d of %d operations differ from the all-serial reference\n", res.Failed, res.Attempted)
		return 1
	}
	return 0
}

func specNames() []string {
	var out []string
	for _, s := range specs {
		out = append(out, s.name)
	}
	return out
}

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// window accumulates passes of one configuration.
type window struct {
	passes int
	wall   time.Duration
	opMS   []float64
	opSums []float64 // Σ operation seconds, per pass
	rates  []float64 // events per second, per pass
	cpuME  []float64 // process CPU seconds per million events, per pass
	bare   []float64 // Σ bare run seconds of the same inputs, per pass
	events uint64
	bytes  uint64
	meter  meterDelta
	ops    int
	failed int
	stats  struct{ scanner, reseq, hits, fallbacks, preStalls, mutStalls uint64 }
}

func (w *window) add(b *bench, p *passOut) {
	w.passes++
	w.wall += p.wall
	w.meter.add(p.meter)
	w.failed += b.verify(p)
	var sum float64
	var events uint64
	for i := 0; i < b.numOps(); i++ {
		var d time.Duration
		if p.train != nil {
			d = p.train[i].dur
		} else {
			d = p.check[i].dur
			st := &p.check[i].stats
			w.stats.scanner += st.ScannerStalls
			w.stats.reseq += st.ResequencerStalls
			w.stats.hits += st.SpeculationHits
			w.stats.fallbacks += st.SpeculationFallbacks
			w.stats.preStalls += st.PreResolveStalls
			w.stats.mutStalls += st.MutatorStalls
		}
		w.opMS = append(w.opMS, float64(d)/1e6)
		sum += d.Seconds()
		events += b.opEvents(i)
		w.bytes += b.opBytes(i)
	}
	w.events += events
	w.opSums = append(w.opSums, sum)
	w.rates = append(w.rates, float64(events)/p.wall.Seconds())
	w.cpuME = append(w.cpuME, p.meter.cpu.Seconds()/float64(events)*1e6)
	w.ops += b.numOps()
}

// busySeconds is Σ operation time over the window.
func (w *window) busySeconds() float64 {
	var s float64
	for _, x := range w.opSums {
		s += x
	}
	return s
}

// timeWindow runs passes until the window holds at least dur of pass
// time and minOps operations. With bare set, every pass is followed by
// an untimed bare pass over the same inputs, so the two sides of
// instrumented_slowdown_x see the same machine conditions.
func timeWindow(b *bench, cfg stageConfig, dur time.Duration, minOps int, bare bool) (*window, error) {
	w := &window{}
	for w.passes == 0 || w.wall < dur || w.ops < minOps {
		p, err := b.pass(cfg)
		if err != nil {
			return nil, err
		}
		w.add(b, p)
		if !bare {
			continue
		}
		ds, err := b.barePass(cfg)
		if err != nil {
			return nil, err
		}
		var s float64
		for _, d := range ds {
			s += d.Seconds()
		}
		w.bare = append(w.bare, s)
	}
	return w, nil
}

func seconds(f float64) time.Duration { return time.Duration(f * float64(time.Second)) }

// measure runs one workload and returns its result, printing the
// human-readable tables to out first.
func measure(sp spec, o options, out io.Writer) (*result, error) {
	cfg, err := defaultConfig()
	if err != nil {
		return nil, err
	}
	reps := setupReps
	if o.trace == 1 {
		reps = 2 // the fewest that tell unstable streams apart
	}
	b, setupSecs, err := setupRepeated(sp, o.seed, cfg, reps)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	if b.numOps() == 0 {
		return nil, errors.New("workload has no operations")
	}
	runtime.GC() // start the timed window without set-up's garbage

	share := 1.0
	if o.trace == 1 {
		share = 0.4 // see perLayer for the rest of the time
	}
	win, err := timeWindow(b, cfg, seconds(o.seconds*share), minTailOps, true)
	if err != nil {
		return nil, err
	}
	e2e := endToEnd(win, setupSecs)
	res := &result{Attempted: win.ops, Failed: win.failed}
	fmt.Fprintf(out, "perfbench %s seed=%d %s/%s %s GOMAXPROCS=%d parallel=%d decode=%d ingest=%d encode=%d\n",
		sp.name, o.seed, runtime.GOOS, runtime.GOARCH, runtime.Version(), runtime.GOMAXPROCS(0),
		cfg.parallel, cfg.decode, cfg.ingest, cfg.encode)
	fmt.Fprintf(out, "%d operations per pass, %d passes in %.2fs\n", b.numOps(), win.passes, win.wall.Seconds())
	printTable(out, "end-to-end", e2e)
	p95 := opPercentile(win, 95)
	fmt.Fprintf(out, "  (op_ms.p95 %.6g ms: a per-layer metric, see README.md)\n", p95)

	if o.trace == 0 {
		res.Metrics = e2e
	} else {
		pl, failed, attempted, err := perLayer(o, b, cfg, win, out)
		if err != nil {
			return nil, err
		}
		res.Attempted += attempted
		res.Failed += failed
		pl["ops"] = value{float64(res.Attempted), "count"}
		pl["ops_failed"] = value{float64(res.Failed), "count"}
		pl["op_ms.p95"] = value{p95, "ms"}
		res.Metrics = pl
		printTable(out, "per-layer", pl)
	}
	for n, v := range res.Metrics {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return nil, fmt.Errorf("metric %s is %v", n, v.Value)
		}
	}
	res.Correct = res.Failed == 0
	return res, nil
}

// endToEnd derives the end-to-end metrics of an untraced window.
// Rates are medians over passes, so one pass disturbed by the machine
// does not move them.
func endToEnd(win *window, setupSecs []float64) map[string]value {
	ev := float64(win.events)
	slow := make([]float64, len(win.bare))
	for i, s := range win.bare {
		slow[i] = win.opSums[i] / s
	}
	m := map[string]value{
		"setup_s":                 {median(setupSecs), "s"},
		"events_per_s":            {median(win.rates), "1/s"},
		"cpu_s_per_Mevent":        {median(win.cpuME), "s/Mevent"},
		"alloc_bytes_per_event":   {float64(win.meter.alloc) / ev, "B/event"},
		"peak_rss_mb":             {peakRSSMB(), "MiB"},
		"trace_bytes_per_event":   {float64(win.bytes) / ev, "B/event"},
		"instrumented_slowdown_x": {median(slow), "x"},
	}
	m["op_ms.p50"] = value{opPercentile(win, 50), "ms"}
	return m
}

// opPercentile splits the window's operation times, in pass order,
// into groups of whole passes holding at least minTailOps operations,
// so that even p95 has minTail samples beyond it in every group. It
// returns the median over the groups of each group's p-th percentile.
// A burst of machine noise during a few passes then moves the result
// less than it moves a percentile of all samples pooled, whose tail is
// set by the slowest passes.
func opPercentile(win *window, p float64) float64 {
	perPass := win.ops / win.passes
	size := perPass * ((minTailOps + perPass - 1) / perPass)
	var vals []float64
	for i := 0; i+size <= len(win.opMS); i += size {
		v, _ := percentile(win.opMS[i:i+size], p)
		vals = append(vals, v)
	}
	return median(vals)
}

// perLayer runs the serial and layer-by-layer passes of a --trace 1
// run and derives the per-layer metrics. It returns the operations it
// verified and how many failed.
func perLayer(o options, b *bench, cfg stageConfig, win *window, out io.Writer) (map[string]value, int, int, error) {
	serial, err := timeWindow(b, serialConfig, seconds(o.seconds*0.2), 0, false)
	if err != nil {
		return nil, 0, 0, err
	}
	failed, attempted := serial.failed, serial.ops

	// Alternate untraced and traced layer-by-layer passes, so both
	// sides see the same machine conditions.
	epoch := time.Now()
	var plain, traced window
	var spans []span
	st := &layerStats{}
	for traced.passes == 0 || plain.wall+traced.wall < seconds(o.seconds*0.4) {
		p, _, _, err := b.layeredPass(cfg, false, epoch, 0)
		if err != nil {
			return nil, 0, 0, err
		}
		plain.add(b, p)
		base := traced.passes * (b.numOps() + len(b.groups))
		p, sp, s, err := b.layeredPass(cfg, true, epoch, base)
		if err != nil {
			return nil, 0, 0, err
		}
		traced.add(b, p)
		spans = append(spans, sp...)
		st.add(s)
	}
	failed += plain.failed + traced.failed
	attempted += plain.ops + traced.ops

	path := o.spans
	if path == "" {
		path = filepath.Join(".bench_build", "spans-"+b.spec.name+".jsonl")
	}
	if err := saveSpans(path, spans); err != nil {
		return nil, 0, 0, err
	}

	lt := selfTimes(spans)
	passes := float64(traced.passes)
	perSpan := func(l layer, unit float64) float64 {
		if lt[l].spans == 0 {
			return 0
		}
		return float64(lt[l].total) / float64(lt[l].spans) / unit
	}
	var applied, runs uint64
	for k := range st.kindN {
		applied += st.kindN[k]
		runs += st.kindRuns[k]
	}
	clock := clockCost()
	var bareEvents uint64
	for i := 0; i < b.numOps(); i++ {
		bareEvents += b.opEvents(i)
	}
	hitFrac := 0.0
	if h, f := win.stats.hits, win.stats.fallbacks; h+f > 0 {
		hitFrac = float64(h) / float64(h+f)
	}
	ops := float64(win.ops)
	missed, falseAlarms, findings := 0, 0, 0
	if !b.spec.train {
		missed, falseAlarms, findings = b.detection()
	}
	m := map[string]value{
		"workloads.run_ns_per_event":      {median(win.bare) * 1e9 / float64(bareEvents), "ns"},
		"trace.encode_ns_per_event":       {ratio(float64(lt[layerEncode].total), float64(st.encoded)), "ns"},
		"trace.decode_ns_per_event":       {ratio(float64(lt[layerDecode].total), float64(st.decoded)), "ns"},
		"trace.decode.scanner_stalls":     {float64(win.stats.scanner) / ops, "count/op"},
		"trace.decode.resequencer_stalls": {float64(win.stats.reseq) / ops, "count/op"},
		"logger.setup_us_per_op":          {perSpan(layerLogSetup, 1e3), "us"},
		"logger.report_us_per_op":         {perSpan(layerLogReport, 1e3), "us"},
		"logger.apply_ns_per_event":       {ratio(float64(lt[layerApply].self)-clock*float64(runs), float64(applied)), "ns"},
		"trace_clock_ns":                  {clock, "ns"},
		"metrics.point_us":                {perSpan(layerPoint, 1e3), "us"},
		"metrics.points":                  {float64(st.points) / passes, "count/pass"},
		"heapgraph.vertices_max":          {float64(st.vmax), "count"},
		"heapgraph.edges_max":             {float64(st.emax), "count"},
		"ingest.speculation_hit_frac":     {hitFrac, "frac"},
		"ingest.mutator_stalls":           {float64(win.stats.mutStalls) / ops, "count/op"},
		"ingest.pre_resolve_stalls":       {float64(win.stats.preStalls) / ops, "count/op"},
		"detect.check_us_per_op":          {perSpan(layerDetect, 1e3), "us"},
		"detect.findings":                 {float64(findings), "count/pass"},
		"detect.missed":                   {float64(missed), "count"},
		"detect.false_alarms":             {float64(falseAlarms), "count"},
		"model.build_ms_per_program":      {perSpan(layerBuild, 1e6), "ms"},
		"sched.workers.parallel":          {float64(cfg.parallel), "count"},
		"sched.workers.decode":            {float64(cfg.decode), "count"},
		"sched.workers.ingest":            {float64(cfg.ingest), "count"},
		"sched.workers.encode":            {float64(cfg.encode), "count"},
		"sched.busy_frac":                 {win.busySeconds() / (win.wall.Seconds() * float64(cfg.parallel)), "frac"},
		"sched.speedup_vs_serial":         {median(win.rates) / median(serial.rates), "x"},
		"runtime.gc_cpu_frac":             {ratio(win.meter.gcCPU, win.meter.totalCPU), "frac"},
		"runtime.gc_cycles":               {float64(win.meter.gcCycles) / float64(win.events) * 1e6, "1/Mevent"},
		"trace_overhead_frac":             {1 - median(traced.rates)/median(plain.rates), "frac"},
		"workloads.unstable_streams":      {float64(b.unstable()), "count"},
	}
	for k := eventKind(0); k < numKinds; k++ {
		// A kind's apply time, less one clock read per run.
		ns := float64(st.kindNS[k]) - clock*float64(st.kindRuns[k])
		m["logger.apply_ns."+kindNames[k]] = value{ratio(ns, float64(st.kindN[k])), "ns"}
		m["logger.events."+kindNames[k]] = value{float64(st.kindN[k]) / passes, "count/pass"}
	}
	var opTotal int64
	for _, s := range spans {
		if s.parent < 0 {
			opTotal += s.end - s.start
		}
	}
	printSelfTimes(out, lt, opTotal, traced.wall.Seconds()*float64(cfg.parallel))
	for l := layer(0); l < numLayers; l++ {
		name := "self_frac." + l.String()
		if l == layerOp {
			name = "self_frac.unaccounted"
		}
		m[name] = value{ratio(float64(lt[l].self), float64(opTotal)), "frac"}
	}
	return m, failed, attempted, nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func saveSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := writeSpans(f, spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printTable prints metrics sorted by name, with their units.
func printTable(out io.Writer, title string, m map[string]value) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(out, "\n%s metrics\n", title)
	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', 0)
	for _, n := range names {
		v := m[n]
		fmt.Fprintf(tw, "  %s\t%.6g\t%s\n", n, v.Value, v.Unit)
	}
	tw.Flush()
}

// printSelfTimes prints the traced run's per-layer table: spans, total
// and self time per layer, and each layer's share of all operation
// time. The op row's self time is the time no layer accounts for;
// sched idle is worker time the traced passes spent outside any
// operation.
func printSelfTimes(out io.Writer, lt [numLayers]layerTime, opTotal int64, workerSeconds float64) {
	fmt.Fprintf(out, "\ntraced self time per layer (%.3fs of operations)\n", float64(opTotal)/1e9)
	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "  layer\tspans\ttotal ms\tself ms\tself share\t")
	for l := layer(0); l < numLayers; l++ {
		name := l.String()
		if l == layerOp {
			name = "unaccounted (op)"
		}
		fmt.Fprintf(tw, "  %s\t%d\t%.1f\t%.1f\t%.4f\t\n", name, lt[l].spans,
			float64(lt[l].total)/1e6, float64(lt[l].self)/1e6, ratio(float64(lt[l].self), float64(opTotal)))
	}
	idle := workerSeconds*1e9 - float64(opTotal)
	fmt.Fprintf(tw, "  sched idle\t\t\t%.1f\t%.4f\t\n", idle/1e6, ratio(idle, float64(opTotal)))
	tw.Flush()
}
