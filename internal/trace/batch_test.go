package trace

import (
	"bytes"
	"testing"

	"heapmd/internal/event"
)

// emitOnly wraps a sink so it does NOT satisfy event.BatchSink,
// forcing the per-event fallback in event.EmitAll.
type emitOnly struct{ s event.Sink }

func (w emitOnly) Emit(e event.Event) { w.s.Emit(e) }

// batchCollector records events and counts EmitBatch calls, copying
// each borrowed batch before returning as the contract requires.
type batchCollector struct {
	events  []event.Event
	batches int
	singles int
}

func (c *batchCollector) Emit(e event.Event) {
	c.singles++
	c.events = append(c.events, e)
}

func (c *batchCollector) EmitBatch(batch []event.Event) {
	c.batches++
	c.events = append(c.events, batch...)
}

// TestBatchSinkEquivalence checks that batch delivery reaches the sink
// through EmitBatch (not per-event Emit) and yields exactly the event
// sequence the per-event path yields.
func TestBatchSinkEquivalence(t *testing.T) {
	sym := event.NewSymtab()
	sym.Intern("alpha")
	sym.Intern("beta")
	evs := testEvents(3 * DefaultBatchRecords / 2) // multiple frames, last partial
	data := writeV2(t, evs, sym, 0)

	var perEvent []event.Event
	_, nSerial, err := Replay(bytes.NewReader(data), emitOnly{collectSink(&perEvent)})
	if err != nil {
		t.Fatal(err)
	}

	var bc batchCollector
	_, nBatch, err := Replay(bytes.NewReader(data), &bc)
	if err != nil {
		t.Fatal(err)
	}
	if bc.batches == 0 {
		t.Fatal("BatchSink.EmitBatch was never called")
	}
	if bc.singles != 0 {
		t.Fatalf("batch-capable sink received %d per-event Emit calls", bc.singles)
	}
	if nSerial != nBatch || len(perEvent) != len(bc.events) {
		t.Fatalf("per-event replayed %d/%d, batch replayed %d/%d",
			nSerial, len(perEvent), nBatch, len(bc.events))
	}
	for i := range perEvent {
		if perEvent[i] != bc.events[i] {
			t.Fatalf("event %d: per-event %+v, batch %+v", i, perEvent[i], bc.events[i])
		}
	}
}

// TestReplayFrameDecodeAllocs is the zero-alloc gate for the frame
// decode loop: replaying a trace with 64x more event frames must cost
// exactly the same number of allocations as a small one, proving the
// payload and batch buffers are reused across frames and batch
// delivery allocates nothing per frame. (The fixed per-call overhead —
// bufio.Reader, decoder, symtab, info — is allowed; scaling with frame
// count is not.)
func TestReplayFrameDecodeAllocs(t *testing.T) {
	mkTrace := func(frames int, wopts WriterOptions) []byte {
		var buf bytes.Buffer
		w, err := NewWriterWith(&buf, wopts)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range testEvents(frames * DefaultBatchRecords) {
			w.Emit(e)
		}
		// Close with no symtab: checkpoint frames would legitimately
		// allocate (interned name strings), clouding the measurement.
		if err := w.Close(nil); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	measure := func(data []byte) float64 {
		var c event.Counter
		return testing.AllocsPerRun(20, func() {
			if _, _, err := Replay(bytes.NewReader(data), &c); err != nil {
				t.Fatal(err)
			}
		})
	}
	for _, w := range []struct {
		name string
		opts WriterOptions
		// flate's inflater keeps per-stream state the stdlib may top up
		// lazily; allow a handful of allocs, never one per frame.
		slack float64
	}{
		{"v2", WriterOptions{Version: Version}, 0},
		{"v3", WriterOptions{Version: VersionV3}, 0},
		{"v3-flate", WriterOptions{Version: VersionV3, Compress: true}, 8},
	} {
		aSmall, aLarge := measure(mkTrace(2, w.opts)), measure(mkTrace(128, w.opts))
		if aLarge > aSmall+w.slack {
			t.Errorf("%s: 128-frame replay allocates %.0f, 2-frame allocates %.0f — decode loop allocates per frame",
				w.name, aLarge, aSmall)
		}
	}
}
