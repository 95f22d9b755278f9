// Package soak is the chaos harness: it drives workloads through the
// full concurrent ingestion pipeline for a wall-clock budget while
// injecting catalogued faults on a phase schedule, and scores the
// detector's behaviour per failure mode.
//
// Each cell (fault × workload × config, see DefaultCells) runs a
// warmup → fault window → recovery schedule of complete workload
// iterations. Warmup and recovery are fault-free; any detection
// signal there is a false positive. The fault window enables the
// cell's fault on a fresh plan each iteration and records detection
// latency — the distance in metric computation points from the first
// fault trigger to the first finding. The verdict compares what
// happened against the paper's taxonomy: systemic, indirect and
// poorly-disguised faults must be detected; well-disguised and
// invisible faults must stay quiet (detecting one would be a
// false alarm against the taxonomy, i.e. the harness's expectations
// are miscalibrated).
//
// Every iteration runs the real MPSC pipeline — the workload goroutine
// produces events through a logger.Producer while the pipeline's
// consumer applies them — so the soak also exercises backpressure:
// under the Drop policy, shed events surface in the scoreboard's
// dropped-event accounting, and health-based detections (wild-store
// counters) are no longer guaranteed, which downgrades the
// expectation for catalog entries marked HealthBased.
package soak

import (
	"fmt"
	"io"
	"sync"
	"time"

	"heapmd/internal/detect"
	"heapmd/internal/faults"
	"heapmd/internal/heapgraph"
	"heapmd/internal/logger"
	"heapmd/internal/metrics"
	"heapmd/internal/model"
	"heapmd/internal/prog"
	"heapmd/internal/sched"
	"heapmd/internal/workloads"
)

// Options configures a soak run.
type Options struct {
	// Duration is the wall-clock budget for extra iterations beyond
	// the minimum schedule; 0 runs the minimum schedule only (the
	// short mode used by tests and CI smoke).
	Duration time.Duration
	// Seed perturbs the held-out input seeds so different soak runs
	// explore different executions while staying deterministic.
	Seed int64
	// Faults optionally restricts the run to the named catalog
	// entries; empty means the full default cell set.
	Faults []string
	// Policy is the pipeline backpressure policy (Block default).
	Policy logger.BackpressurePolicy
	// QueueDepth is the pipeline queue depth in batches (default
	// 256). Soak iterations are bounded — 50..150 batches each — so
	// the default buffers a whole iteration: under Drop, shed events
	// then indicate genuine saturation, not the transient
	// producer/consumer rate mismatch every run begins with. Set it
	// low (e.g. logger.DefaultQueueDepth) to study exactly that
	// mismatch; the scoreboard accounts the shed events either way.
	QueueDepth int
	// Parallel is the number of cells soaked concurrently: 0 or 1
	// serial, <0 GOMAXPROCS.
	Parallel int
	// TrainInputs is the number of training inputs per workload
	// model (default 12; at 8 the calibrated ranges are tight enough
	// that held-out clean runs occasionally graze them).
	TrainInputs int
	// Warmup, FaultIters and Recovery are the minimum iteration
	// counts per phase (defaults 2, 3, 2). With a Duration budget the
	// phases extend beyond the minimums in a 1:2:1 time split.
	Warmup, FaultIters, Recovery int
	// Thresholds are the model-construction thresholds; the zero
	// value means model.Defaults().
	Thresholds model.Thresholds
	// Extended soaks (and trains) with the extended metric suite —
	// the degree metrics plus the WCC/SCC structure metrics. Required
	// for the Connectivity and SCC settings to be observable: only the
	// structure metrics consult the trackers.
	Extended bool
	// Connectivity selects how the Components metric obtains the
	// weak component count in every iteration's logger (and during
	// training, so models and soak runs see the same path); see
	// heapgraph.ConnectivityMode. Zero value is the incremental
	// tracker.
	Connectivity heapgraph.ConnectivityMode
	// SCC selects the same for the SCCs metric's strong component
	// count. Zero value is the incremental tracker.
	SCC heapgraph.ConnectivityMode
	// RebuildThreshold is the incremental trackers' dirty budget
	// between amortized rebuilds; 0 selects the default.
	RebuildThreshold int
	// Progress, when set, receives one line per completed cell.
	Progress io.Writer
}

func (o Options) withDefaults() Options {
	if o.TrainInputs == 0 {
		o.TrainInputs = 12
	}
	if o.Warmup == 0 {
		o.Warmup = 2
	}
	if o.FaultIters == 0 {
		o.FaultIters = 3
	}
	if o.Recovery == 0 {
		o.Recovery = 2
	}
	if o.QueueDepth == 0 {
		o.QueueDepth = 256
	}
	if o.Thresholds == (model.Thresholds{}) {
		o.Thresholds = model.Defaults()
	}
	return o
}

// heldPool is the number of held-out inputs each cell cycles through;
// they come after the training inputs in the workload's input
// sequence, so training and soak never share an input.
const heldPool = 8

type runner struct {
	opts     Options
	models   map[string]*model.Model
	deadline time.Time     // zero when Duration is 0
	share    time.Duration // per-cell time budget

	mu sync.Mutex // guards Progress writes
}

// Run executes the soak schedule and returns the scoreboard.
func Run(opts Options) (*Scoreboard, error) {
	opts = opts.withDefaults()
	cells, err := selectCells(opts.Faults)
	if err != nil {
		return nil, err
	}

	var wl []string
	seen := map[string]bool{}
	for _, c := range cells {
		if !seen[c.Workload] {
			seen[c.Workload] = true
			wl = append(wl, c.Workload)
		}
	}

	r := &runner{opts: opts, models: make(map[string]*model.Model, len(wl))}

	// Calibrate one clean model per distinct workload. Training time
	// is excluded from the soak budget: the budget buys fault
	// exposure, not setup.
	trained, err := sched.Map(opts.Parallel, len(wl), func(i int) (*model.Model, error) {
		w, err := workloads.Get(wl[i])
		if err != nil {
			return nil, err
		}
		reps, err := workloads.Train(w, opts.TrainInputs, workloads.RunConfig{Logger: r.loggerOptions()})
		if err != nil {
			return nil, fmt.Errorf("soak: training %s: %w", wl[i], err)
		}
		br, err := model.Build(reps, opts.Thresholds)
		if err != nil {
			return nil, fmt.Errorf("soak: building model for %s: %w", wl[i], err)
		}
		return br.Model, nil
	})
	if err != nil {
		return nil, err
	}
	for i, m := range trained {
		r.models[wl[i]] = m
	}

	if opts.Duration > 0 {
		r.deadline = time.Now().Add(opts.Duration)
		// sched.Map soaks this many cells at once.
		inFlight := 1
		if opts.Parallel != 0 {
			inFlight = sched.Workers(opts.Parallel)
		}
		r.share = time.Duration(int64(opts.Duration) * int64(inFlight) / int64(len(cells)))
	}

	results, err := sched.Map(opts.Parallel, len(cells), func(i int) (CellResult, error) {
		return r.runCell(cells[i])
	})
	if err != nil {
		return nil, err
	}

	sb := &Scoreboard{
		Seed:        opts.Seed,
		Policy:      opts.Policy.String(),
		Duration:    opts.Duration.String(),
		TrainInputs: opts.TrainInputs,
		Cells:       results,
	}
	sb.summarize()
	return sb, nil
}

// heldInputs returns the cell's input cycle: the held-out tail of the
// workload's input sequence, seed-shifted by the soak seed. Only the
// seed moves — name, scale and class are preserved, so every input
// stays inside a training-covered class (the property behind the
// zero-false-positive expectation).
func (r *runner) heldInputs(w workloads.Workload) []workloads.Input {
	all := w.Inputs(r.opts.TrainInputs + heldPool)
	held := append([]workloads.Input(nil), all[r.opts.TrainInputs:]...)
	for i := range held {
		held[i].Seed += r.opts.Seed * 1000003
	}
	return held
}

// signal reports whether a finding counts as a detection for
// scoreboard purposes. Range violations and extreme stability are the
// paper's bug signals. Instrumentation anomalies count only under the
// Block policy: with Drop, the health counters run on an incomplete
// event stream, so they are evidence but not a reliable verdict
// input. Unexpected stability is excluded entirely — it is a
// run-level curiosity report, not a bug claim.
func (r *runner) signal(f *detect.Finding) bool {
	switch f.Kind {
	case detect.RangeViolation, detect.ExtremeStability:
		return true
	case detect.InstrumentationAnomaly:
		return r.opts.Policy == logger.Block
	default:
		return false
	}
}

// loggerOptions builds the logger configuration shared by training
// runs and soak iterations: suite and connectivity must match so the
// calibrated model and the soaked runs measure the same thing.
func (r *runner) loggerOptions() logger.Options {
	opts := logger.Options{
		Frequency:        workloads.DefaultFrequency,
		Connectivity:     r.opts.Connectivity,
		SCC:              r.opts.SCC,
		RebuildThreshold: r.opts.RebuildThreshold,
	}
	if r.opts.Extended {
		opts.Suite = metrics.ExtendedSuite()
	}
	return opts
}

// iteration executes one complete workload run through the concurrent
// pipeline. The returned bool reports whether the workload crashed on
// a simulator fault (the report then covers the prefix).
func (r *runner) iteration(w workloads.Workload, in workloads.Input, plan *faults.Plan) (*logger.Report, bool, error) {
	p := prog.NewProcess(prog.Options{Seed: in.Seed, Plan: plan})
	l := logger.New(r.loggerOptions())
	l.SetRun(w.Name(), in.Name, 1)
	pipe := logger.NewPipeline(l, logger.PipelineOptions{
		Policy:     r.opts.Policy,
		QueueDepth: r.opts.QueueDepth,
	})
	prod := pipe.NewProducer()
	p.Subscribe(prod)
	err := prog.Run(func() { w.Run(p, in, 1) })
	prod.Close()
	if cerr := pipe.Close(); cerr != nil {
		return nil, false, cerr
	}
	return l.Report(), err != nil, nil
}

func (r *runner) runCell(c Cell) (CellResult, error) {
	entry, ok := faults.Lookup(c.Fault)
	if !ok {
		return CellResult{}, fmt.Errorf("soak: fault %q not in catalog", c.Fault)
	}
	w, err := workloads.Get(c.Workload)
	if err != nil {
		return CellResult{}, err
	}
	mdl := r.models[c.Workload]
	held := r.heldInputs(w)

	res := CellResult{
		Fault:                 c.Fault,
		Workload:              c.Workload,
		Class:                 entry.Class.String(),
		Mechanism:             entry.Mechanism,
		DetectionLatencyTicks: -1,
	}
	expect := entry.ExpectDetect
	if entry.HealthBased && r.opts.Policy == logger.Drop {
		// The fault's only footprint is in health counters, which the
		// Drop policy makes approximate; don't demand detection.
		expect = false
	}
	res.ExpectDetect = expect

	var cum uint64 // metric computation points elapsed across iterations
	var faultEpoch uint64
	epochSet := false // first observed trigger
	var windowStart uint64
	windowSet := false // first fault-window iteration
	iter := 0

	runOne := func(ph *PhaseStats, faulty bool) error {
		in := held[iter%len(held)]
		iter++
		var plan *faults.Plan
		if faulty {
			plan = faults.NewPlan().Enable(c.Fault, c.Config)
		}
		rep, crashed, err := r.iteration(w, in, plan)
		if err != nil {
			return err
		}
		ph.Iterations++
		if crashed {
			ph.Crashes++
		}
		var iterTicks uint64
		if n := len(rep.Snapshots); n > 0 {
			iterTicks = rep.Snapshots[n-1].Tick
		}
		ph.Ticks += iterTicks
		res.Health.Add(rep.Health)
		res.DroppedEvents += rep.Health.DroppedEvents

		if faulty {
			if !windowSet {
				windowStart = cum
				windowSet = true
			}
			if t := plan.Triggers(c.Fault); t > 0 {
				res.Triggers += t
				if !epochSet {
					faultEpoch = cum
					epochSet = true
				}
			}
		}
		for _, f := range detect.CheckReport(mdl, rep, detect.Options{}) {
			if !r.signal(f) {
				continue
			}
			ph.Findings++
			if !faulty {
				ph.FalsePositives++
				continue
			}
			if !res.Detected {
				res.Detected = true
				res.DetectedKind = f.Kind.String()
				res.DetectedMetric = f.Metric
				at := f.Tick
				if at == 0 {
					// Run-level finding (extreme stability,
					// instrumentation anomaly): the evidence is only
					// complete at the end of the iteration.
					at = iterTicks
				}
				// Mode faults (consulted via Plan().Enabled, never
				// incrementing Triggers) are active from the start of
				// the fault window; anchor their latency there.
				base := faultEpoch
				if !epochSet {
					base = windowStart
				}
				res.DetectionLatencyTicks = int64(cum + at - base)
			}
		}
		cum += iterTicks
		return nil
	}

	// Phase time budgets split the cell's share 1:2:1; each phase
	// always runs its minimum iterations, then spends budget while the
	// global deadline holds.
	runPhase := func(ph *PhaseStats, min int, budget time.Duration, faulty bool) error {
		start := time.Now()
		for i := 0; ; i++ {
			if i >= min {
				if r.deadline.IsZero() || time.Since(start) >= budget || !time.Now().Before(r.deadline) {
					break
				}
			}
			if err := runOne(ph, faulty); err != nil {
				return err
			}
		}
		return nil
	}

	wBudget := r.share / 4
	fBudget := r.share / 2
	rBudget := r.share - wBudget - fBudget
	if err := runPhase(&res.Warmup, r.opts.Warmup, wBudget, false); err != nil {
		return CellResult{}, err
	}
	if err := runPhase(&res.FaultWindow, r.opts.FaultIters, fBudget, true); err != nil {
		return CellResult{}, err
	}
	if err := runPhase(&res.Recovery, r.opts.Recovery, rBudget, false); err != nil {
		return CellResult{}, err
	}

	res.Verdict, res.OK = verdictOf(res.ExpectDetect, res.Detected)
	r.progress("soak %-22s on %-11s %-12s triggers=%-6d latency=%d\n",
		c.Fault, c.Workload, res.Verdict, res.Triggers, res.DetectionLatencyTicks)
	return res, nil
}

func (r *runner) progress(format string, args ...any) {
	if r.opts.Progress == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	fmt.Fprintf(r.opts.Progress, format, args...)
}
