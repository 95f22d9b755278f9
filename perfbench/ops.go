package main

import (
	"bytes"
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"

	"heapmd"
	"heapmd/internal/detect"
	"heapmd/internal/logger"
	"heapmd/internal/model"
	"heapmd/internal/prog"
	"heapmd/internal/sched"
	"heapmd/internal/trace"
	"heapmd/internal/workloads"
)

// checkOut is the outcome of one trace replay+check.
type checkOut struct {
	dur      time.Duration
	rep      *logger.Report
	findings []*detect.Finding
	info     trace.SalvageInfo
	stats    trace.Stats
	err      error
}

// trainOut is the outcome of one recorded training run.
type trainOut struct {
	dur   time.Duration
	rep   *logger.Report
	trace []byte
	err   error
}

// passOut is one pass over the whole operation set.
type passOut struct {
	wall   time.Duration
	meter  meterDelta
	check  []checkOut
	train  []trainOut
	models [][]byte // train: model JSON per group, nil where the build failed
}

// checkOne is the check operation as the heapmd CLI composes it for
// `replay -model`: heapmd.ReplayTraceWith, then heapmd.Check.
func (b *bench) checkOne(op *checkOp, cfg stageConfig) checkOut {
	t0 := time.Now()
	var out checkOut
	opts := heapmd.ReplayOptions{
		Suite:         b.spec.suite(),
		DecodeWorkers: cfg.decode,
		IngestWorkers: cfg.ingest,
		Stats:         &out.stats,
	}
	rep, _, info, err := heapmd.ReplayTraceWith(bytes.NewReader(op.data), op.w.Name(), op.input.Name, opts)
	if err != nil {
		out.err = err
		out.dur = time.Since(t0)
		return out
	}
	out.rep, out.info = rep, *info
	out.findings = heapmd.Check(op.mdl, rep)
	out.dur = time.Since(t0)
	return out
}

// checkPass checks every trace once, fanned out over cfg.parallel
// workers. Operation errors are kept per operation, not returned.
func (b *bench) checkPass(cfg stageConfig) (*passOut, error) {
	m0 := readMeter()
	t0 := time.Now()
	outs, err := sched.Map(cfg.parallel, len(b.checks), func(i int) (checkOut, error) {
		return b.checkOne(&b.checks[i], cfg), nil
	})
	wall := time.Since(t0)
	if err != nil {
		return nil, err
	}
	return &passOut{wall: wall, meter: readMeter().since(m0), check: outs}, nil
}

// recorder returns a workloads.RunConfig.Record hook writing a v3
// trace into buf, as `heapmd train -record-traces -compress` does into
// a file.
func recorder(buf *bytes.Buffer, opts trace.WriterOptions) func(workloads.Input, *prog.Process) (func() error, error) {
	return func(_ workloads.Input, p *prog.Process) (func() error, error) {
		tw, err := trace.NewWriterWith(buf, opts)
		if err != nil {
			return nil, err
		}
		tw.SetSymtab(p.Sym())
		p.Subscribe(tw)
		return func() error { return tw.Close(p.Sym()) }, nil
	}
}

func (b *bench) writerOptions(cfg stageConfig) trace.WriterOptions {
	return trace.WriterOptions{Version: trace.VersionV3, Compress: b.spec.compress, Workers: cfg.encode}
}

// trainOne is one training run as `heapmd train` executes it.
func (b *bench) trainOne(op *trainOp, cfg stageConfig) trainOut {
	t0 := time.Now()
	var buf bytes.Buffer
	rep, _, err := workloads.RunLogged(op.w, op.input, workloads.RunConfig{
		Version:       1,
		Logger:        logger.Options{Suite: b.spec.suite()},
		IngestWorkers: cfg.ingest,
		Record:        recorder(&buf, b.writerOptions(cfg)),
	})
	return trainOut{dur: time.Since(t0), rep: rep, trace: buf.Bytes(), err: err}
}

// trainPass trains every program in turn: its runs fanned out over
// cfg.parallel workers, then model.Build and Save.
func (b *bench) trainPass(cfg stageConfig) (*passOut, error) {
	m0 := readMeter()
	t0 := time.Now()
	out, err := b.trainGroups(cfg.parallel,
		func(i int) trainOut { return b.trainOne(&b.trains[i], cfg) },
		func(_ int, reps []*logger.Report) []byte { return buildModel(reps) })
	if err != nil {
		return nil, err
	}
	out.wall = time.Since(t0)
	out.meter = readMeter().since(m0)
	return out, nil
}

// trainGroups runs every training op program by program: run(i) for
// the program's runs on parallel workers, then build over their
// reports once all of them succeeded.
func (b *bench) trainGroups(parallel int, run func(i int) trainOut, build func(g int, reps []*logger.Report) []byte) (*passOut, error) {
	out := &passOut{train: make([]trainOut, len(b.trains)), models: make([][]byte, len(b.groups))}
	for g, idx := range b.groups {
		outs, err := sched.Map(parallel, len(idx), func(k int) (trainOut, error) { return run(idx[k]), nil })
		if err != nil {
			return nil, err
		}
		reps := make([]*logger.Report, 0, len(idx))
		for k, o := range outs {
			out.train[idx[k]] = o
			if o.err == nil {
				reps = append(reps, o.rep)
			}
		}
		if len(reps) == len(idx) {
			out.models[g] = build(g, reps)
		}
	}
	return out, nil
}

// buildModel runs the summarizer and returns the saved model JSON, or
// nil on failure.
func buildModel(reps []*logger.Report) []byte {
	br, err := model.Build(reps, model.Defaults())
	if err != nil {
		return nil
	}
	var js bytes.Buffer
	if err := br.Model.Save(&js); err != nil {
		return nil
	}
	return js.Bytes()
}

// pass runs one pass of the workload's operation set.
func (b *bench) pass(cfg stageConfig) (*passOut, error) {
	if b.spec.train {
		return b.trainPass(cfg)
	}
	return b.checkPass(cfg)
}

// verify compares every operation of a pass with the all-serial
// reference and returns the number that failed: errored, or differ
// in report, findings, health, salvage info, trace bytes or model.
func (b *bench) verify(p *passOut) (failed int) {
	for i, o := range p.check {
		ref := b.checkRefs[i]
		if o.err != nil || digest(o.rep) != ref.report || digest(o.findings) != ref.findings ||
			o.rep.Health != ref.health || o.info != ref.salvage {
			failed++
		}
	}
	if p.train == nil {
		return failed
	}
	bad := make([]bool, len(b.trains))
	for i, o := range p.train {
		ref := b.trainRefs[i]
		bad[i] = o.err != nil || digest(o.rep) != ref.report || o.rep.Health != ref.health || !b.sameTrace(i, o.trace)
	}
	// A wrong model is a wrong product of every run of its program.
	for g, idx := range b.groups {
		if !bytes.Equal(p.models[g], b.modelRefs[g]) {
			for _, i := range idx {
				bad[i] = true
			}
		}
	}
	for _, x := range bad {
		if x {
			failed++
		}
	}
	return failed
}

// sameTrace reports whether data is a correct recording of training
// run i: byte for byte the reference trace, or, for a program whose
// event order is not a function of its seed, a trace that replays to
// the reference report.
func (b *bench) sameTrace(i int, data []byte) bool {
	ref := b.trainRefs[i]
	if ref.stable {
		return bytes.Equal(data, ref.trace)
	}
	op := &b.trains[i]
	rep, _, _, err := heapmd.ReplayTraceWith(bytes.NewReader(data), op.w.Name(), op.input.Name, heapmd.ReplayOptions{Suite: b.spec.suite()})
	return err == nil && digest(rep) == ref.report
}

// events and bytes of operation i: events processed, and trace bytes
// read (check) or written (train).
func (b *bench) opEvents(i int) uint64 {
	if b.spec.train {
		return b.trainRefs[i].events
	}
	return b.checks[i].events
}

func (b *bench) opBytes(i int) uint64 {
	if b.spec.train {
		return uint64(len(b.trainRefs[i].trace))
	}
	return uint64(len(b.checks[i].data))
}

func (b *bench) numOps() int {
	if b.spec.train {
		return len(b.trains)
	}
	return len(b.checks)
}

// barePass runs every operation's program on its input with nothing
// subscribed — no logger, no recorder — and returns each run's time.
func (b *bench) barePass(cfg stageConfig) ([]time.Duration, error) {
	return sched.Map(cfg.parallel, b.numOps(), func(i int) (time.Duration, error) {
		var w workloads.Workload
		var in workloads.Input
		p := prog.Options{}
		if b.spec.train {
			w, in = b.trains[i].w, b.trains[i].input
		} else {
			w, in = b.checks[i].w, b.checks[i].input
			p.Plan = b.plan(b.checks[i].cell)
		}
		p.Seed = in.Seed
		t0 := time.Now()
		proc := prog.NewProcess(p)
		_ = prog.Run(func() { w.Run(proc, in, 1) }) // crashes are part of the program's behaviour
		return time.Since(t0), nil
	})
}

// meterSnap is a reading of process-wide counters.
type meterSnap struct {
	cpu      time.Duration // user + system CPU of the process
	alloc    uint64        // cumulative Go heap bytes allocated
	gcCycles uint64
	gcCPU    float64 // estimated GC CPU seconds
	totalCPU float64 // estimated total CPU seconds available to Go
}

type meterDelta meterSnap

var meterNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readMeter() meterSnap {
	var s meterSnap
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		s.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	samples := make([]metrics.Sample, len(meterNames))
	for i, n := range meterNames {
		samples[i].Name = n
	}
	metrics.Read(samples)
	s.alloc = samples[0].Value.Uint64()
	s.gcCycles = samples[1].Value.Uint64()
	s.gcCPU = samples[2].Value.Float64()
	s.totalCPU = samples[3].Value.Float64()
	return s
}

func (s meterSnap) since(o meterSnap) meterDelta {
	return meterDelta{
		cpu:      s.cpu - o.cpu,
		alloc:    s.alloc - o.alloc,
		gcCycles: s.gcCycles - o.gcCycles,
		gcCPU:    s.gcCPU - o.gcCPU,
		totalCPU: s.totalCPU - o.totalCPU,
	}
}

func (d *meterDelta) add(o meterDelta) {
	d.cpu += o.cpu
	d.alloc += o.alloc
	d.gcCycles += o.gcCycles
	d.gcCPU += o.gcCPU
	d.totalCPU += o.totalCPU
}

// peakRSSMB is the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	unit := 1024.0 // Rusage.Maxrss is in kilobytes on Linux...
	if runtime.GOOS == "darwin" {
		unit = 1 // ...and in bytes on Darwin.
	}
	return float64(ru.Maxrss) * unit / (1 << 20)
}
