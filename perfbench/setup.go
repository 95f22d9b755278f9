package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"time"

	"heapmd/internal/detect"
	"heapmd/internal/faults"
	"heapmd/internal/health"
	"heapmd/internal/logger"
	"heapmd/internal/metrics"
	"heapmd/internal/model"
	"heapmd/internal/prog"
	"heapmd/internal/sched"
	"heapmd/internal/soak"
	"heapmd/internal/trace"
	"heapmd/internal/workloads"
)

const (
	// trainInputs is the training-set size per program, soak's
	// default: the held-out inputs that follow it stay inside the
	// size classes training covered.
	trainInputs = 12
	// seedStride shifts Input.Seed by the benchmark seed, as soak does.
	seedStride = 1000003
)

// spec describes one benchmark workload.
type spec struct {
	name string
	why  string
	// train selects the write path (live training with recording);
	// otherwise the workload is a post-mortem check of recorded traces.
	train bool
	// extended uses metrics.ExtendedSuite (WCC/SCC) for models and
	// replay.
	extended bool
	// compress records flate v3 traces instead of raw v3.
	compress bool
	// programs restricts the clean programs (nil = all 13).
	programs []string
	// held is the number of held-out inputs recorded per program and
	// per fault cell on the check workloads.
	held int
}

var specs = []spec{
	{
		name: "check-corpus",
		why:  "post-mortem check of raw v3 traces of all 13 programs plus every fault cell; decode and apply dominate",
		held: 8,
	},
	{
		name:     "train-record",
		why:      "live training of all 13 programs with flate v3 recording and model.Build; execution, apply and encode dominate",
		train:    true,
		compress: true,
	},
	{
		name:     "check-extended",
		why:      "check-corpus with the WCC/SCC suite on flate traces of the six programs it costs most; metric points dominate",
		extended: true,
		compress: true,
		programs: []string{"multimedia", "twolf", "game_sim", "game_action", "parser", "webapp"},
		// Four inputs, not eight: an operation costs several times
		// more here, and smaller passes give the per-pass medians
		// more passes to work with in the same window.
		held: 4,
	},
}

func specByName(name string) (spec, error) {
	for _, s := range specs {
		if s.name == name {
			return s, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q", name)
}

func (s spec) suite() metrics.Suite {
	if s.extended {
		return metrics.ExtendedSuite()
	}
	return metrics.DefaultSuite()
}

// stageConfig is one resolution of the CLI's worker knobs.
type stageConfig struct {
	parallel int // runs or traces in flight (sched.Map workers)
	decode   int // trace.ReadOptions.DecodeWorkers per trace
	ingest   int // ingest workers per run or trace
	encode   int // trace encode workers per recorded run
}

// defaultConfig resolves the CLI defaults (-parallel 0,
// -decode-workers 0, -ingest-workers 0, -trace-workers 0) through the
// same sched resolvers the heapmd command uses.
func defaultConfig() (stageConfig, error) {
	var c stageConfig
	var err error
	if c.parallel, err = sched.ParseParallel(0); err != nil {
		return c, err
	}
	if c.decode, err = sched.ParseDecodeWorkers(0); err != nil {
		return c, err
	}
	if c.ingest, err = sched.ParseIngestWorkers(0); err != nil {
		return c, err
	}
	if c.encode, err = sched.ParseEncodeWorkers(0); err != nil {
		return c, err
	}
	return c, nil
}

// serialConfig is the all-serial reference: one run at a time,
// synchronous decode, the direct logger and synchronous encode.
var serialConfig = stageConfig{parallel: 1, decode: 0, ingest: 1, encode: 0}

// checkOp is one recorded trace and what checking it needs.
type checkOp struct {
	w      workloads.Workload
	input  workloads.Input
	cell   int // index into soak.DefaultCells(), -1 for a clean trace
	mdl    *model.Model
	data   []byte
	events uint64
	// stable reports whether every run of the program recorded the
	// same bytes in every set-up; see setupRepeated.
	stable bool
}

// checkRef is the all-serial reference outcome of one checkOp.
type checkRef struct {
	report   [32]byte
	findings [32]byte
	health   health.Counters
	salvage  trace.SalvageInfo
	nFind    int
	signal   bool
}

// trainOp is one training run.
type trainOp struct {
	w     workloads.Workload
	input workloads.Input
	group int
}

// trainRef is the all-serial reference outcome of one trainOp.
type trainRef struct {
	trace  []byte
	report [32]byte
	health health.Counters
	events uint64
	// stable reports whether every run of the program recorded the
	// same trace bytes in every set-up. Where one did not, the
	// program's event order is not a function of its seed, so its
	// traces are verified by replaying them to the reference report
	// instead of byte for byte.
	stable bool
}

// bench is one workload's inputs and their reference outcomes.
type bench struct {
	spec  spec
	cells []soak.Cell

	checks    []checkOp
	checkRefs []checkRef

	trains    []trainOp
	groups    [][]int // train op indices per program, in program order
	trainRefs []trainRef
	modelRefs [][]byte // model JSON per group
}

// shifted returns inputs [from, to) of w with the seeds moved by the
// benchmark seed; names, scales and classes are unchanged.
func shifted(w workloads.Workload, from, to int, seed int64) []workloads.Input {
	in := append([]workloads.Input(nil), w.Inputs(to)[from:]...)
	for i := range in {
		in[i].Seed += seed * seedStride
	}
	return in
}

func programs(names []string) ([]workloads.Workload, error) {
	if names == nil {
		return workloads.All(), nil
	}
	out := make([]workloads.Workload, len(names))
	for i, n := range names {
		w, err := workloads.Get(n)
		if err != nil {
			return nil, err
		}
		out[i] = w
	}
	return out, nil
}

// setup builds the workload's inputs and the all-serial reference.
func setup(sp spec, seed int64, cfg stageConfig) (*bench, error) {
	b := &bench{spec: sp}
	ws, err := programs(sp.programs)
	if err != nil {
		return nil, err
	}
	if sp.train {
		for g, w := range ws {
			var idx []int
			for _, in := range shifted(w, 0, trainInputs, seed) {
				idx = append(idx, len(b.trains))
				b.trains = append(b.trains, trainOp{w: w, input: in, group: g})
			}
			b.groups = append(b.groups, idx)
		}
		return b, b.trainReference()
	}
	mdls, err := trainModels(ws, sp.suite(), cfg)
	if err != nil {
		return nil, err
	}
	// Every default cell lives on a program of each check workload; a
	// cell on another program (a reduced test spec) is left out.
	for _, c := range soak.DefaultCells() {
		if mdls[c.Workload] != nil {
			b.cells = append(b.cells, c)
		}
	}
	for _, w := range ws {
		for _, in := range shifted(w, trainInputs, trainInputs+sp.held, seed) {
			b.checks = append(b.checks, checkOp{w: w, input: in, cell: -1, mdl: mdls[w.Name()]})
		}
	}
	for ci, c := range b.cells {
		w, err := workloads.Get(c.Workload)
		if err != nil {
			return nil, err
		}
		for _, in := range shifted(w, trainInputs, trainInputs+sp.held, seed) {
			b.checks = append(b.checks, checkOp{w: w, input: in, cell: ci, mdl: mdls[c.Workload]})
		}
	}
	if err := b.record(cfg); err != nil {
		return nil, err
	}
	return b, b.checkReference()
}

// trainModels builds one model per program as `heapmd train
// -ingest-workers 1` does, on the first trainInputs inputs. Models are
// identical at any ingest setting; the serial one is the quicker here.
func trainModels(ws []workloads.Workload, suite metrics.Suite, cfg stageConfig) (map[string]*model.Model, error) {
	out := make(map[string]*model.Model, len(ws))
	for _, w := range ws {
		reps, err := workloads.Train(w, trainInputs, workloads.RunConfig{
			Parallel: cfg.parallel,
			Logger:   logger.Options{Suite: suite},
		})
		if err != nil {
			return nil, fmt.Errorf("training %s: %w", w.Name(), err)
		}
		br, err := model.Build(reps, model.Defaults())
		if err != nil {
			return nil, fmt.Errorf("building model for %s: %w", w.Name(), err)
		}
		out[w.Name()] = br.Model
	}
	return out, nil
}

// plan returns a fresh fault plan for the op's cell, nil when clean.
func (b *bench) plan(cell int) *faults.Plan {
	if cell < 0 {
		return nil
	}
	c := b.cells[cell]
	return faults.NewPlan().Enable(c.Fault, c.Config)
}

// record executes every check op's program once and keeps its v3
// trace in memory.
func (b *bench) record(cfg stageConfig) error {
	opts := trace.WriterOptions{Version: trace.VersionV3, Compress: b.spec.compress}
	_, err := sched.Map(cfg.parallel, len(b.checks), func(i int) (struct{}, error) {
		op := &b.checks[i]
		data, n, err := recordBare(op.w, op.input, b.plan(op.cell), opts)
		op.data, op.events = data, n
		return struct{}{}, err
	})
	return err
}

// recordBare runs w on in with only a trace writer subscribed and
// returns the trace and its event count. A crash ends the trace early
// but cleanly: it is part of the recorded behaviour.
func recordBare(w workloads.Workload, in workloads.Input, plan *faults.Plan, opts trace.WriterOptions) ([]byte, uint64, error) {
	p := prog.NewProcess(prog.Options{Seed: in.Seed, Plan: plan})
	var buf bytes.Buffer
	tw, err := trace.NewWriterWith(&buf, opts)
	if err != nil {
		return nil, 0, err
	}
	tw.SetSymtab(p.Sym())
	p.Subscribe(tw)
	_ = prog.Run(func() { w.Run(p, in, 1) })
	if err := tw.Close(p.Sym()); err != nil {
		return nil, 0, fmt.Errorf("recording %s: %w", in.Name, err)
	}
	return buf.Bytes(), tw.Events(), nil
}

// checkReference checks every trace with the all-serial settings.
func (b *bench) checkReference() error {
	outs, err := b.checkPass(serialConfig)
	if err != nil {
		return err
	}
	b.checkRefs = make([]checkRef, len(outs.check))
	for i, o := range outs.check {
		if o.err != nil {
			return fmt.Errorf("reference check of %s: %w", b.checks[i].input.Name, o.err)
		}
		b.checkRefs[i] = refOf(o)
	}
	return nil
}

func refOf(o checkOut) checkRef {
	r := checkRef{
		report:   digest(o.rep),
		findings: digest(o.findings),
		health:   o.rep.Health,
		salvage:  o.info,
		nFind:    len(o.findings),
	}
	for _, f := range o.findings {
		if isSignal(f) {
			r.signal = true
		}
	}
	return r
}

// trainReference runs every training run and model build serially.
func (b *bench) trainReference() error {
	outs, err := b.trainPass(serialConfig)
	if err != nil {
		return err
	}
	b.trainRefs = make([]trainRef, len(outs.train))
	for i, o := range outs.train {
		if o.err != nil {
			return fmt.Errorf("reference run of %s: %w", b.trains[i].input.Name, o.err)
		}
		b.trainRefs[i] = trainRef{trace: o.trace, report: digest(o.rep), health: o.rep.Health, events: o.rep.Events}
	}

	for g, m := range outs.models {
		if m == nil {
			return fmt.Errorf("reference model build for %s failed", b.trains[b.groups[g][0]].w.Name())
		}
	}
	b.modelRefs = outs.models
	return nil
}

// sameAs reports whether two set-ups produced the same operations and
// reference outcomes, i.e. set-up is deterministic for the seed. Trace
// bytes are left to diffStreams.
func (b *bench) sameAs(o *bench) bool {
	if len(b.checks) != len(o.checks) || len(b.trains) != len(o.trains) {
		return false
	}
	for i := range b.checks {
		if b.checkRefs[i] != o.checkRefs[i] || b.checks[i].events != o.checks[i].events {
			return false
		}
	}
	for i, x := range b.trainRefs {
		y := o.trainRefs[i]
		if x.report != y.report || x.health != y.health || x.events != y.events {
			return false
		}
	}
	for g := range b.modelRefs {
		if !bytes.Equal(b.modelRefs[g], o.modelRefs[g]) {
			return false
		}
	}
	return true
}

// diffStreams marks in unstable every program with a run whose trace
// bytes differ between b and o: its event order is not a function of
// its seed. One differing run marks the whole program, since two
// recordings can agree by chance.
func (b *bench) diffStreams(o *bench, unstable map[string]bool) {
	for i, op := range b.checks {
		if !bytes.Equal(op.data, o.checks[i].data) {
			unstable[op.w.Name()] = true
		}
	}
	for i, r := range b.trainRefs {
		if !bytes.Equal(r.trace, o.trainRefs[i].trace) {
			unstable[b.trains[i].w.Name()] = true
		}
	}
}

// markStable sets every operation's stable flag from unstable.
func (b *bench) markStable(unstable map[string]bool) {
	for i := range b.checks {
		b.checks[i].stable = !unstable[b.checks[i].w.Name()]
	}
	for i := range b.trainRefs {
		b.trainRefs[i].stable = !unstable[b.trains[i].w.Name()]
	}
}

// unstable counts the operations whose program produced different
// event streams on two runs with the same seed.
func (b *bench) unstable() int {
	n := 0
	for _, op := range b.checks {
		if !op.stable {
			n++
		}
	}
	for _, r := range b.trainRefs {
		if !r.stable {
			n++
		}
	}
	return n
}

// setupRepeated sets the workload up reps (at least two) times,
// checks that every repetition agrees with the first, and returns the
// first with each repetition's wall time. Comparing the repetitions'
// trace bytes also tells which programs record unstable streams.
func setupRepeated(sp spec, seed int64, cfg stageConfig, reps int) (*bench, []float64, error) {
	var first *bench
	var secs []float64
	unstable := map[string]bool{}
	for r := 0; r < max(reps, 2); r++ {
		t0 := time.Now()
		b, err := setup(sp, seed, cfg)
		if err != nil {
			return nil, nil, err
		}
		secs = append(secs, time.Since(t0).Seconds())
		if first == nil {
			first = b
			continue
		}
		if !first.sameAs(b) {
			return nil, nil, fmt.Errorf("set-up is not deterministic: repetition %d differs from the first", r+1)
		}
		first.diffStreams(b, unstable)
	}
	first.markStable(unstable)
	return first, secs, nil
}

// detection scores the reference verdicts the way soak does, per
// fault cell: a cell expected to be detected is missed when none of
// its traces carries a signal; a false alarm is a clean trace with a
// signal, or a signal on a cell expected to stay quiet.
func (b *bench) detection() (missed, falseAlarms, findings int) {
	fired := make([]bool, len(b.cells))
	for i, op := range b.checks {
		r := b.checkRefs[i]
		findings += r.nFind
		if !r.signal {
			continue
		}
		if op.cell < 0 {
			falseAlarms++
		} else {
			fired[op.cell] = true
		}
	}
	for ci, c := range b.cells {
		e, _ := faults.Lookup(c.Fault)
		switch {
		case e.ExpectDetect && !fired[ci]:
			missed++
		case !e.ExpectDetect && fired[ci]:
			falseAlarms++
		}
	}
	return missed, falseAlarms, findings
}

// isSignal reports whether a finding counts as a detection: a range
// violation, extreme stability or an instrumentation anomaly, as in
// soak under the blocking pipeline.
func isSignal(f *detect.Finding) bool {
	switch f.Kind {
	case detect.RangeViolation, detect.ExtremeStability, detect.InstrumentationAnomaly:
		return true
	}
	return false
}

// digest hashes the JSON encoding of v.
func digest(v any) [32]byte {
	js, err := json.Marshal(v)
	if err != nil {
		// Reports and findings are plain data; failing to encode one
		// is a bug in this benchmark.
		panic(fmt.Sprintf("digest: %v", err))
	}
	return sha256.Sum256(js)
}
