package main

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"time"
)

// layer names one span kind: a call from the benchmark into one of the
// repository's modules, or the benchmark's own operation root.
type layer uint8

const (
	layerOp        layer = iota // root: one operation (trace check or training run)
	layerRun                    // workloads: Workload.Run under prog.Run
	layerEncode                 // trace: Writer.Emit + Close
	layerDecode                 // trace: ReplayWith into a capturing sink
	layerLogSetup               // logger: New + SetRun
	layerApply                  // logger: EmitBatch over same-kind runs
	layerPoint                  // metrics: Suite.Compute at a sample point
	layerLogReport              // logger: Report
	layerDetect                 // detect: CheckReport
	layerBuild                  // model: Build (root of its own operation)
	numLayers
)

var layerNames = [numLayers]string{
	"op", "workloads.run", "trace.encode", "trace.decode", "logger.setup",
	"logger.apply", "metrics.point", "logger.report", "detect.check", "model.build",
}

func (l layer) String() string { return layerNames[l] }

// span is one timed call at a layer boundary. All spans of one
// operation share op; parent indexes the causing span within the
// operation (-1 for the root). Times are nanoseconds since the
// recorder's epoch.
type span struct {
	op         int32
	id, parent int32
	layer      layer
	start, end int64
}

// opTracer records the spans of one operation. Each operation owns
// its tracer, so operations fanned out across workers never share
// one; the pass merges them afterwards. A nil *opTracer records
// nothing, which is how the untraced variant of the same code runs.
type opTracer struct {
	epoch time.Time
	op    int32
	spans []span
}

func newOpTracer(epoch time.Time, op int) *opTracer {
	return &opTracer{epoch: epoch, op: int32(op)}
}

func (t *opTracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin opens a span under parent (-1 for the root) and returns its id.
func (t *opTracer) begin(l layer, parent int) int {
	if t == nil {
		return -1
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{op: t.op, id: int32(id), parent: int32(parent), layer: l, start: t.now()})
	return id
}

// end closes span id.
func (t *opTracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].end = t.now()
}

// clockCost measures the cost of one clock read as the tracer makes
// it, in nanoseconds: the median over a few batches of back-to-back
// reads.
func clockCost() float64 {
	t := newOpTracer(time.Now(), 0)
	const reads = 20000
	var per []float64
	for b := 0; b < 9; b++ {
		start := t.now()
		for i := 0; i < reads; i++ {
			t.now()
		}
		per = append(per, float64(t.now()-start)/reads)
	}
	return median(per)
}

// layerTime is one row of the per-layer table.
type layerTime struct {
	spans int
	total int64 // Σ span durations, ns
	self  int64 // Σ durations minus the parts child spans cover, ns
}

// selfTimes computes, per layer, the span count, total time and self
// time of spans. A span's self time is its duration minus the length
// of the union of its children's intervals clipped to it, so
// overlapping children are not subtracted twice. The root layer's
// self time is the time no layer accounts for.
func selfTimes(spans []span) [numLayers]layerTime {
	type key struct{ op, id int32 }
	children := make(map[key][]span)
	for _, s := range spans {
		if s.parent >= 0 {
			k := key{s.op, s.parent}
			children[k] = append(children[k], s)
		}
	}
	var out [numLayers]layerTime
	for _, s := range spans {
		d := s.end - s.start
		row := &out[s.layer]
		row.spans++
		row.total += d
		row.self += d - covered(s.start, s.end, children[key{s.op, s.id}])
	}
	return out
}

// covered returns how much of [start, end) the union of the children's
// intervals covers.
func covered(start, end int64, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.start, start), min(k.end, end)
		if b > a {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var sum, curA, curB int64
	open := false
	for _, x := range iv {
		switch {
		case !open:
			curA, curB, open = x[0], x[1], true
		case x[0] <= curB:
			curB = max(curB, x[1])
		default:
			sum += curB - curA
			curA, curB = x[0], x[1]
		}
	}
	if open {
		sum += curB - curA
	}
	return sum
}

// writeSpans writes spans as JSON lines, one span per line.
func writeSpans(w io.Writer, spans []span) error {
	bw := bufio.NewWriter(w)
	for _, s := range spans {
		fmt.Fprintf(bw, `{"op":%d,"id":%d,"parent":%d,"name":%q,"start_ns":%d,"end_ns":%d}`+"\n",
			s.op, s.id, s.parent, s.layer, s.start, s.end)
	}
	return bw.Flush()
}
