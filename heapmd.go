// Package heapmd is a reproduction of "HeapMD: Identifying Heap-based
// Bugs using Anomaly Detection" (Chilimbi & Ganapathy, ASPLOS 2006):
// a dynamic-analysis tool that finds heap bugs by noticing when
// normally-stable degree metrics of the heap-graph leave their
// calibrated ranges.
//
// The package is a facade over the internal implementation. The
// pipeline mirrors the paper's two-phase architecture:
//
//	                ┌────────────┐   reports   ┌────────────┐
//	instrumented ──▶│ exec logger│────────────▶│ summarizer │──▶ Model
//	  program       └────────────┘  (training) └────────────┘
//	                ┌────────────┐    model    ┌────────────┐
//	instrumented ──▶│ exec logger│────────────▶│  detector  │──▶ findings
//	  program       └────────────┘  (checking) └────────────┘
//
// A minimal training-and-checking session:
//
//	sess := heapmd.NewSession(heapmd.Options{})
//	for _, input := range trainingInputs {
//		run := sess.NewRun("myprog", input)
//		execute(run.Process()) // your program, against run.Process()
//		sess.AddTraining(run)
//	}
//	model, summary, err := sess.Build()
//	...
//	run := sess.NewRun("myprog", testInput)
//	execute(run.Process())
//	findings := heapmd.Check(model, run.Report())
//
// Programs execute against a simulated heap (heapmd.Process), which
// plays the role of the paper's Vulcan-instrumented x86 binary: every
// allocation, free, pointer write and function entry is observed by
// the execution logger.
package heapmd

import (
	"io"

	"heapmd/internal/detect"
	"heapmd/internal/event"
	"heapmd/internal/faults"
	"heapmd/internal/health"
	"heapmd/internal/heapgraph"
	"heapmd/internal/logger"
	"heapmd/internal/metrics"
	"heapmd/internal/model"
	"heapmd/internal/prog"
	"heapmd/internal/sched"
	"heapmd/internal/stats"
	"heapmd/internal/trace"
)

// Core pipeline types, re-exported from the implementation packages.
type (
	// Process is the simulated program context: a heap plus call
	// tracking whose activity is fully observable.
	Process = prog.Process

	// Report is one execution's raw metric report.
	Report = logger.Report

	// Model is the calibrated heap-behaviour model: the ranges of
	// the globally stable metrics.
	Model = model.Model

	// Thresholds are the summarizer's stability thresholds.
	Thresholds = model.Thresholds

	// BuildResult couples a Model with per-metric classification
	// evidence.
	BuildResult = model.BuildResult

	// Finding is one anomaly-detector report.
	Finding = detect.Finding

	// Detector is the online execution checker.
	Detector = detect.Detector

	// FaultPlan configures fault injection for the bundled
	// workloads and data structures.
	FaultPlan = faults.Plan

	// MetricID identifies one heap-graph metric.
	MetricID = metrics.ID

	// Range is a calibrated [min, max] interval.
	Range = stats.Range

	// Event is one instrumentation record.
	Event = event.Event

	// Symtab resolves function IDs in findings and traces.
	Symtab = event.Symtab

	// HealthCounters tallies instrumentation the logger observed but
	// could not interpret (double frees, wild stores, ...); carried
	// in every Report and checked by the detector.
	HealthCounters = health.Counters

	// SalvageInfo describes what trace salvage recovered from a
	// damaged trace.
	SalvageInfo = trace.SalvageInfo

	// TraceStats is the storage accounting replay gathers: format
	// version, bytes per event, compression ratio.
	TraceStats = trace.Stats

	// Pipeline is the concurrent monitoring pipeline: a multi-
	// producer/single-consumer batched event channel in front of the
	// execution logger, with configurable backpressure.
	Pipeline = logger.Pipeline

	// PipelineProducer is one goroutine's batching front-end to a
	// Pipeline; it implements the event sink interface.
	PipelineProducer = logger.Producer

	// PipelineOptions configures batching, queue depth and the
	// backpressure policy of a Pipeline.
	PipelineOptions = logger.PipelineOptions

	// ConnectivityMode selects how a component extension metric
	// (Components via Options.Connectivity, SCCs via Options.SCC)
	// obtains its count: an incremental tracker, optionally checked
	// against a graph walk.
	ConnectivityMode = heapgraph.ConnectivityMode
)

// Connectivity modes for Options.Connectivity and
// ReplayOptions.Connectivity.
const (
	// ConnectivityIncremental maintains the component count under
	// mutation, costing metric points by churn instead of heap size
	// (the zero value).
	ConnectivityIncremental = heapgraph.ConnectivityIncremental
	// ConnectivityVerify also walks the graph at every metric point
	// and panics on divergence; a differential-oracle mode for tests
	// and CI.
	ConnectivityVerify = heapgraph.ConnectivityVerify
)

// ParseConnectivity resolves a -connectivity flag value
// ("incremental" or "verify").
func ParseConnectivity(s string) (ConnectivityMode, error) {
	return heapgraph.ParseConnectivity(s)
}

// ParseSCC resolves a -scc flag value (same spellings as
// ParseConnectivity).
func ParseSCC(s string) (ConnectivityMode, error) {
	return heapgraph.ParseSCC(s)
}

// Backpressure policies for PipelineOptions.Policy.
const (
	// BlockWhenFull stalls producers until the consumer catches up;
	// no events are lost (default).
	BlockWhenFull = logger.Block
	// DropWhenFull sheds batches under overload and tallies the loss
	// in the report's health counters (DroppedEvents).
	DropWhenFull = logger.Drop
)

// SimulationFrequency is the default sampling frequency for simulated
// runs and trace replay; see logger.SimulationFrequency for why it
// differs from the paper's frq = 1/100,000.
const SimulationFrequency = logger.SimulationFrequency

// Trace format versions for TraceOptions.Version. Replay auto-detects
// the version from the header, so these matter only when recording.
const (
	// TraceFormatV2 is the framed fixed-width format: CRC32-protected
	// frames of 37-byte records.
	TraceFormatV2 = trace.Version
	// TraceFormatV3 is the columnar delta-encoded format: same frame
	// envelope, several times smaller on real event streams, with
	// optional per-frame compression. The default for new recordings.
	TraceFormatV3 = trace.VersionV3
)

// The paper's seven degree-based metrics.
const (
	Roots   = metrics.Roots
	InDeg1  = metrics.InDeg1
	InDeg2  = metrics.InDeg2
	Leaves  = metrics.Leaves
	OutDeg1 = metrics.OutDeg1
	OutDeg2 = metrics.OutDeg2
	InEqOut = metrics.InEqOut
)

// DefaultThresholds returns the paper's stability thresholds: average
// change within ±1%, standard deviation of change below 5, 10%
// startup/shutdown trim, and the 40%-of-inputs rule.
func DefaultThresholds() Thresholds { return model.Defaults() }

// Options configures a Session.
type Options struct {
	// Frequency samples metrics once every Frequency function
	// entries; 0 means a simulation-appropriate default.
	Frequency uint64
	// Thresholds override the paper defaults when non-zero.
	Thresholds Thresholds
	// FieldGranularity builds the heap-graph with one vertex per
	// word instead of per object (paper Figure 3 ablation).
	FieldGranularity bool
	// Connectivity selects how the Components metric obtains the
	// weak component count; see logger.Options.Connectivity. The zero
	// value is the incremental tracker.
	Connectivity ConnectivityMode
	// SCC selects the same for the SCCs metric's strong component
	// count; see logger.Options.SCC. The zero value is the
	// incremental tracker.
	SCC ConnectivityMode
	// RebuildThreshold is the incremental trackers' dirty budget
	// between amortized rebuilds (shared by the WCC and SCC
	// trackers); zero selects the default.
	RebuildThreshold int
}

// Session manages model construction across training runs.
type Session struct {
	opts    Options
	reports []*Report
}

// NewSession creates an empty training session.
func NewSession(opts Options) *Session { return &Session{opts: opts} }

// Run couples a Process with the execution logger observing it.
type Run struct {
	process *Process
	log     *logger.Logger
}

// NewRun creates an instrumented process for one execution of the
// named program on the named input. seed drives the process RNG.
func (s *Session) NewRun(program, input string, seed int64) *Run {
	return s.newRun(program, input, seed, nil)
}

// NewFaultyRun is NewRun with a fault-injection plan, for testing the
// detector against known bugs.
func (s *Session) NewFaultyRun(program, input string, seed int64, plan *FaultPlan) *Run {
	return s.newRun(program, input, seed, plan)
}

func (s *Session) newRun(program, input string, seed int64, plan *FaultPlan) *Run {
	p := prog.NewProcess(prog.Options{Seed: seed, Plan: plan})
	gran := logger.ObjectGranularity
	if s.opts.FieldGranularity {
		gran = logger.FieldGranularity
	}
	freq := s.opts.Frequency
	if freq == 0 {
		freq = logger.SimulationFrequency
	}
	l := logger.New(logger.Options{
		Frequency:        freq,
		Granularity:      gran,
		Connectivity:     s.opts.Connectivity,
		SCC:              s.opts.SCC,
		RebuildThreshold: s.opts.RebuildThreshold,
	})
	l.SetRun(program, input, 1)
	p.Subscribe(l)
	return &Run{process: p, log: l}
}

// Pipeline puts a concurrent ingestion pipeline in front of a run's
// logger: hand each producing goroutine its own PipelineProducer (an
// event sink), close every producer, then Close the pipeline before
// calling Report. The run's own simulated process remains subscribed
// directly; the pipeline is for additional concurrent event sources
// (replayed traces, instrumented workload threads).
func (r *Run) Pipeline(opts PipelineOptions) *Pipeline {
	return logger.NewPipeline(r.log, opts)
}

// Process returns the simulated program context to execute against.
func (r *Run) Process() *Process { return r.process }

// Observe attaches a sample observer (e.g. an online Detector) to the
// run's logger. Must be called before executing the program.
func (r *Run) Observe(d *Detector) { r.log.Observe(d) }

// Report finalizes the run's metric report.
func (r *Run) Report() *Report { return r.log.Report() }

// AddTraining adds a completed run's report to the training set.
func (s *Session) AddTraining(r *Run) { s.reports = append(s.reports, r.Report()) }

// AddReport adds a previously produced report (e.g. replayed from a
// trace) to the training set.
func (s *Session) AddReport(rep *Report) { s.reports = append(s.reports, rep) }

// TrainingInput names one training execution and seeds its process.
type TrainingInput struct {
	Name string
	Seed int64
}

// TrainMany executes body once per input — each against a fresh
// instrumented Run — and adds the resulting reports to the training
// set in input order. parallel is the worker count: 0 or 1 runs
// serially, negative uses GOMAXPROCS. Because every run owns its
// process and logger, the collected reports (and the error, if any
// body fails) are identical to a serial loop at any worker count; on
// error no reports are added. body must not touch shared state without
// its own synchronization.
func (s *Session) TrainMany(program string, inputs []TrainingInput, parallel int, body func(*Run, TrainingInput) error) error {
	reports, err := sched.Map(parallel, len(inputs), func(i int) (*Report, error) {
		run := s.newRun(program, inputs[i].Name, inputs[i].Seed, nil)
		if err := body(run, inputs[i]); err != nil {
			return nil, err
		}
		return run.Report(), nil
	})
	if err != nil {
		return err
	}
	s.reports = append(s.reports, reports...)
	return nil
}

// Build runs the metric summarizer over the training reports and
// returns the model with its classification evidence. Each zero
// threshold field is defaulted individually, so a caller overriding
// only (say) TrimFrac or MinStableFraction keeps the paper defaults
// for everything else instead of having the overrides silently
// replaced wholesale.
func (s *Session) Build() (*Model, *BuildResult, error) {
	res, err := model.Build(s.reports, fillThresholds(s.opts.Thresholds))
	if err != nil {
		return nil, nil, err
	}
	return res.Model, res, nil
}

// fillThresholds replaces each zero field of th with the paper
// default for that field, preserving the fields the caller did set.
// Zero is treated as "unset" throughout (a MaxAvgChange of 0 would
// classify every metric unstable, so no meaningful configuration is
// lost).
func fillThresholds(th Thresholds) Thresholds {
	def := model.Defaults()
	if th.MaxAvgChange == 0 {
		th.MaxAvgChange = def.MaxAvgChange
	}
	if th.MaxStdDev == 0 {
		th.MaxStdDev = def.MaxStdDev
	}
	if th.TrimFrac == 0 {
		th.TrimFrac = def.TrimFrac
	}
	if th.MinStableFraction == 0 {
		th.MinStableFraction = def.MinStableFraction
	}
	if th.MinSamples == 0 {
		th.MinSamples = def.MinSamples
	}
	if th.GuardFrac == 0 {
		th.GuardFrac = def.GuardFrac
	}
	return th
}

// Check performs offline checking of a report against a model and
// returns the findings — the paper's post-mortem usage mode.
func Check(m *Model, rep *Report) []*Finding {
	return detect.CheckReport(m, rep, detect.Options{})
}

// NewDetector builds an online detector for the model; attach it to a
// Run with Observe before executing, then call Finish after. The
// detector skips the startup window the model's summarizer also
// trimmed.
func NewDetector(m *Model) *Detector {
	return detect.New(m, metrics.DefaultSuite(), detect.Options{SkipStart: m.SkipStartSamples()})
}

// SaveModel serializes a model as JSON.
func SaveModel(m *Model, w io.Writer) error { return m.Save(w) }

// LoadModel deserializes a model written by SaveModel.
func LoadModel(r io.Reader) (*Model, error) { return model.Load(r) }

// TraceOptions configure RecordTraceWith.
type TraceOptions struct {
	// Version selects the trace format (TraceFormatV2 or
	// TraceFormatV3). Zero means TraceFormatV3.
	Version uint32
	// Compress flate-compresses v3 event frames when that makes them
	// smaller; replay output is identical. Only valid with v3.
	Compress bool
}

// RecordTrace attaches a trace writer to a run so its event stream
// can be replayed later (post-mortem analysis). The writer is handed
// the run's symbol table up front, so the framed formats checkpoint
// it periodically and a run that crashes before the returned close
// function runs still leaves a salvageable, symbolized trace. Call
// the close function after execution for a cleanly-terminated trace.
// The trace is written in the v2 format for compatibility; use
// RecordTraceWith for the smaller v3 format.
func RecordTrace(r *Run, w io.Writer) (func() error, error) {
	return RecordTraceWith(r, w, TraceOptions{Version: TraceFormatV2})
}

// RecordTraceWith is RecordTrace with format control; the zero
// options record columnar v3, uncompressed.
func RecordTraceWith(r *Run, w io.Writer, opts TraceOptions) (func() error, error) {
	tw, err := trace.NewWriterWith(w, trace.WriterOptions{Version: opts.Version, Compress: opts.Compress})
	if err != nil {
		return nil, err
	}
	tw.SetSymtab(r.process.Sym())
	r.process.Subscribe(tw)
	return func() error { return tw.Close(r.process.Sym()) }, nil
}

// ReplayOptions configures trace ingestion.
type ReplayOptions struct {
	// Frequency samples metrics every Frequency-th function entry;
	// it must match the recording session's frequency for comparable
	// reports. 0 means SimulationFrequency, the session default.
	Frequency uint64
	// Salvage recovers the longest valid prefix of a truncated or
	// corrupted trace instead of failing; the loss is described in
	// the returned SalvageInfo and tallied in the report's health
	// counters.
	Salvage bool
	// Suite selects the metric suite for the replay; zero value
	// means the default seven-metric suite.
	Suite metrics.Suite
	// Stats, when non-nil, is filled with storage accounting for the
	// replayed trace: format version, bytes per event, compression
	// ratio.
	Stats *TraceStats
	// Connectivity selects how the Components metric obtains the
	// weak component count during replay; see Options.Connectivity.
	Connectivity ConnectivityMode
	// SCC selects the same for the SCCs metric's strong component
	// count; see Options.SCC.
	SCC ConnectivityMode
	// RebuildThreshold is the incremental trackers' dirty budget;
	// see Options.RebuildThreshold.
	RebuildThreshold int
	// Deprecated: ignored; kept so perfbench compiles — remove in the next benchmark PR
	DecodeWorkers int
	// Deprecated: ignored; kept so perfbench compiles — remove in the next benchmark PR
	IngestWorkers int
}

// ReplayTrace replays a recorded trace into a fresh logger and
// returns the reconstructed report; see ReplayOptions.Frequency.
func ReplayTrace(rd io.ReadSeeker, program, input string, frequency uint64) (*Report, *Symtab, error) {
	rep, sym, _, err := ReplayTraceWith(rd, program, input, ReplayOptions{Frequency: frequency})
	return rep, sym, err
}

// ReplayTraceWith replays a recorded trace into a fresh logger with
// full control over ingestion. With Salvage set, a damaged trace
// yields the report reconstructed from its longest valid prefix plus
// a SalvageInfo describing the loss; without it, damage yields an
// error wrapping trace.ErrCorrupt.
func ReplayTraceWith(rd io.ReadSeeker, program, input string, opts ReplayOptions) (*Report, *Symtab, *SalvageInfo, error) {
	freq := opts.Frequency
	if freq == 0 {
		freq = logger.SimulationFrequency
	}
	l := logger.New(logger.Options{
		Frequency:        freq,
		Suite:            opts.Suite,
		Connectivity:     opts.Connectivity,
		SCC:              opts.SCC,
		RebuildThreshold: opts.RebuildThreshold,
	})
	l.SetRun(program, input, 1)
	var (
		sym  *Symtab
		info *SalvageInfo
		err  error
	)
	ropts := trace.ReadOptions{Stats: opts.Stats}
	if opts.Salvage {
		sym, info, err = trace.SalvageWith(rd, l, ropts)
	} else {
		var n uint64
		sym, n, err = trace.ReplayWith(rd, l, ropts)
		info = &SalvageInfo{EventsRecovered: n}
	}
	// The logger never escapes: the decoder is done with the sink once
	// replay returns, and the report owns its snapshots.
	if err != nil {
		l.Release()
		return nil, nil, nil, err
	}
	if info.Salvaged() {
		h := l.Health()
		h.SalvagedGaps++
		h.SalvagedBytes += info.BytesDropped
	}
	rep := l.Report()
	l.Release()
	return rep, sym, info, nil
}

// NewFaultPlan returns an empty fault-injection plan; see package
// internal/faults for the catalogue of fault names.
func NewFaultPlan() *FaultPlan { return faults.NewPlan() }
