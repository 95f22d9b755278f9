package main

import (
	"bytes"
	"math"
	"time"

	"heapmd/internal/detect"
	"heapmd/internal/event"
	"heapmd/internal/logger"
	"heapmd/internal/metrics"
	"heapmd/internal/prog"
	"heapmd/internal/sched"
	"heapmd/internal/trace"
)

// The layer-by-layer variant of each operation calls the same public
// functions as the end-to-end operation, one layer at a time, so a
// span can time each call: decode the whole trace into memory, then
// apply it, then report and check. Stages inside one operation run
// serially; operations still fan out over sched.Map. Run with a nil
// tracer it is the untraced baseline that trace_overhead_frac is
// measured against, and either way its outputs are verified against
// the all-serial reference.

// eventKind groups event types for per-kind apply timing.
type eventKind uint8

const (
	kindAlloc eventKind = iota
	kindFree
	kindRealloc
	kindStore
	kindEnter
	kindOther // Leave, Load and unknown types
	numKinds
)

var kindNames = [numKinds]string{"alloc", "free", "realloc", "store", "enter", "other"}

func kindOf(t event.Type) eventKind {
	switch t {
	case event.Alloc:
		return kindAlloc
	case event.Free:
		return kindFree
	case event.Realloc:
		return kindRealloc
	case event.Store:
		return kindStore
	case event.Enter:
		return kindEnter
	}
	return kindOther
}

// layerStats are the counts the traced run records alongside spans.
type layerStats struct {
	kindNS   [numKinds]int64  // EmitBatch time per event kind
	kindN    [numKinds]uint64 // events per kind
	kindRuns [numKinds]uint64 // same-kind runs (clock reads) per kind
	points   uint64           // metric points computed
	vmax     int              // largest heap-graph seen at a point
	emax     int
	decoded  uint64 // events decoded
	encoded  uint64 // events encoded
}

func (s *layerStats) add(o *layerStats) {
	for k := range s.kindNS {
		s.kindNS[k] += o.kindNS[k]
		s.kindN[k] += o.kindN[k]
		s.kindRuns[k] += o.kindRuns[k]
	}
	s.points += o.points
	s.vmax = max(s.vmax, o.vmax)
	s.emax = max(s.emax, o.emax)
	s.decoded += o.decoded
	s.encoded += o.encoded
}

// capture is an event sink that keeps a copy of every event.
type capture struct{ evs []event.Event }

func (c *capture) Emit(e event.Event)            { c.evs = append(c.evs, e) }
func (c *capture) EmitBatch(batch []event.Event) { c.evs = append(c.evs, batch...) }

// noSampling is a logger frequency no run reaches: the layer-by-layer
// apply takes metric points itself, so they can be timed apart from
// event application.
const noSampling = math.MaxUint64

// apply feeds evs to l in maximal same-kind runs through EmitBatch,
// ending a run after every logger.SimulationFrequency-th function
// entry to compute the metric point there with suite.Compute, exactly
// where the logger itself would. It returns the snapshots the logger
// would have recorded. With a tracer, each run is timed per kind and
// each metric point is a span under parent.
//
// Real streams alternate kinds every one or two events, so the clock
// read per run is a visible share of apply time; perLayer subtracts
// its calibrated cost (clockCost) from the per-kind figures.
func apply(l *logger.Logger, evs []event.Event, suite metrics.Suite, tr *opTracer, st *layerStats, parent int) []metrics.Snapshot {
	var snaps []metrics.Snapshot
	var entries, tick uint64
	var last int64
	if tr != nil {
		last = tr.now()
	}
	const frq = logger.SimulationFrequency
	for i := 0; i < len(evs); {
		k := kindOf(evs[i].Type)
		j, point := i, false
		for j < len(evs) && kindOf(evs[j].Type) == k {
			j++
			if k == kindEnter {
				if entries++; entries%frq == 0 {
					point = true
					break
				}
			}
		}
		l.EmitBatch(evs[i:j])
		if tr != nil {
			// One clock read per run: the interval since the previous
			// read is this run's, loop overhead and one read included.
			t := tr.now()
			st.kindNS[k] += t - last
			st.kindN[k] += uint64(j - i)
			st.kindRuns[k]++
			last = t
		}
		if point {
			tick++
			sp := tr.begin(layerPoint, parent)
			snap := suite.Compute(l.Graph(), tick)
			tr.end(sp)
			if tr != nil {
				last = tr.spans[sp].end
			}
			snaps = append(snaps, snap)
			st.points++
			st.vmax = max(st.vmax, snap.Vertices)
			st.emax = max(st.emax, snap.Edges)
		}
		i = j
	}
	return snaps
}

// logReport runs the logger stages shared by both operations: set-up,
// apply and report.
func (b *bench) logReport(evs []event.Event, program, input string, tr *opTracer, st *layerStats, root int) *logger.Report {
	suite := b.spec.suite()
	sp := tr.begin(layerLogSetup, root)
	l := logger.New(logger.Options{Frequency: noSampling, Suite: suite})
	l.SetRun(program, input, 1)
	tr.end(sp)

	sp = tr.begin(layerApply, root)
	snaps := apply(l, evs, suite, tr, st, sp)
	tr.end(sp)

	sp = tr.begin(layerLogReport, root)
	rep := l.Report()
	rep.Snapshots = snaps
	tr.end(sp)
	return rep
}

// checkLayered is checkOne one layer at a time.
func (b *bench) checkLayered(op *checkOp, tr *opTracer, st *layerStats) checkOut {
	t0 := time.Now()
	var out checkOut
	root := tr.begin(layerOp, -1)
	defer func() {
		tr.end(root)
		out.dur = time.Since(t0)
	}()

	sp := tr.begin(layerDecode, root)
	c := &capture{evs: make([]event.Event, 0, op.events)}
	_, n, err := trace.ReplayWith(bytes.NewReader(op.data), c, trace.ReadOptions{Stats: &out.stats})
	tr.end(sp)
	if err != nil {
		out.err = err
		return out
	}
	st.decoded += n
	out.info = trace.SalvageInfo{EventsRecovered: n}

	out.rep = b.logReport(c.evs, op.w.Name(), op.input.Name, tr, st, root)

	sp = tr.begin(layerDetect, root)
	out.findings = detect.CheckReport(op.mdl, out.rep, detect.Options{})
	tr.end(sp)
	return out
}

// trainLayered is trainOne one layer at a time: run the program into
// a capture, encode the captured stream, then log it.
func (b *bench) trainLayered(op *trainOp, hint uint64, cfg stageConfig, tr *opTracer, st *layerStats) trainOut {
	t0 := time.Now()
	var out trainOut
	root := tr.begin(layerOp, -1)
	defer func() {
		tr.end(root)
		out.dur = time.Since(t0)
	}()

	sp := tr.begin(layerRun, root)
	p := prog.NewProcess(prog.Options{Seed: op.input.Seed})
	c := &capture{evs: make([]event.Event, 0, hint)}
	p.Subscribe(c)
	out.err = prog.Run(func() { op.w.Run(p, op.input, 1) })
	tr.end(sp)
	if out.err != nil {
		return out
	}

	sp = tr.begin(layerEncode, root)
	out.trace, out.err = encode(c.evs, p.Sym(), b.writerOptions(cfg))
	tr.end(sp)
	if out.err != nil {
		return out
	}
	st.encoded += uint64(len(c.evs))

	out.rep = b.logReport(c.evs, op.w.Name(), op.input.Name, tr, st, root)
	return out
}

// encode writes evs as a trace. The writer checkpoints the symbol
// table as it grows, so the table is rebuilt in step with the stream:
// a process interns a function name just before emitting the first
// Enter of its new ID, and so does this loop. The bytes are then
// identical to recording the live run.
func encode(evs []event.Event, final *event.Symtab, opts trace.WriterOptions) ([]byte, error) {
	var buf bytes.Buffer
	tw, err := trace.NewWriterWith(&buf, opts)
	if err != nil {
		return nil, err
	}
	sym := event.NewSymtab()
	tw.SetSymtab(sym)
	for _, e := range evs {
		if e.Type == event.Enter && int(e.Fn) == sym.Len()+1 {
			sym.Intern(final.Name(e.Fn))
		}
		tw.Emit(e)
	}
	if err := tw.Close(sym); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// layeredPass runs the layer-by-layer variant of every operation,
// traced when traced is set, and returns the pass with its spans and
// counts.
func (b *bench) layeredPass(cfg stageConfig, traced bool, epoch time.Time, opBase int) (*passOut, []span, *layerStats, error) {
	n := b.numOps()
	// Each operation owns its tracer and counts, which the pass merges
	// after sched.Map returns.
	tracers := make([]*opTracer, n)
	if traced {
		for i := range tracers {
			tracers[i] = newOpTracer(epoch, opBase+i)
		}
	}
	stats := make([]layerStats, n)
	var builds []*opTracer
	m0 := readMeter()
	t0 := time.Now()
	var out *passOut
	var err error
	if b.spec.train {
		out, err = b.trainGroups(cfg.parallel,
			func(i int) trainOut {
				return b.trainLayered(&b.trains[i], b.opEvents(i), cfg, tracers[i], &stats[i])
			},
			func(g int, reps []*logger.Report) []byte {
				var tr *opTracer
				if traced {
					tr = newOpTracer(epoch, opBase+n+g)
					builds = append(builds, tr)
				}
				sp := tr.begin(layerBuild, -1)
				defer tr.end(sp)
				return buildModel(reps)
			})
	} else {
		var outs []checkOut
		outs, err = sched.Map(cfg.parallel, n, func(i int) (checkOut, error) {
			return b.checkLayered(&b.checks[i], tracers[i], &stats[i]), nil
		})
		out = &passOut{check: outs}
	}
	if err != nil {
		return nil, nil, nil, err
	}
	out.wall = time.Since(t0)
	out.meter = readMeter().since(m0)

	var spans []span
	st := &layerStats{}
	for i := range stats {
		st.add(&stats[i])
	}
	for _, tr := range append(tracers, builds...) {
		if tr != nil {
			spans = append(spans, tr.spans...)
		}
	}
	return out, spans, st, nil
}
