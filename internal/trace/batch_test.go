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

// TestSingleDecodeWorkerEquivalence checks that the read-ahead
// decoder (DecodeWorkers: 1) produces outcomes identical to the
// synchronous reader — same events, same counts, same errors in strict
// mode, same SalvageInfo in salvage mode — on a clean trace, on every
// possible truncation, and on a bit flip.
func TestSingleDecodeWorkerEquivalence(t *testing.T) {
	sym := event.NewSymtab()
	sym.Intern("alpha")
	evs := testEvents(4 * DefaultBatchRecords)
	clean := writeV2(t, evs, sym, DefaultBatchRecords)

	variants := [][]byte{clean}
	for cut := 9; cut < len(clean); cut += 97 {
		variants = append(variants, clean[:cut])
	}
	flipped := bytes.Clone(clean)
	flipped[len(flipped)/2] ^= 0x40
	variants = append(variants, flipped)

	for vi, data := range variants {
		var syncEvents, raEvents []event.Event
		syncSym, syncN, syncErr := ReplayWith(bytes.NewReader(data), collectSink(&syncEvents), ReadOptions{})
		raSym, raN, raErr := ReplayWith(bytes.NewReader(data), collectSink(&raEvents), ReadOptions{DecodeWorkers: 1})
		if (syncErr == nil) != (raErr == nil) ||
			(syncErr != nil && syncErr.Error() != raErr.Error()) {
			t.Fatalf("variant %d strict: sync err %v, readahead err %v", vi, syncErr, raErr)
		}
		if syncN != raN || len(syncEvents) != len(raEvents) {
			t.Fatalf("variant %d strict: sync %d/%d events, readahead %d/%d",
				vi, syncN, len(syncEvents), raN, len(raEvents))
		}
		for i := range syncEvents {
			if syncEvents[i] != raEvents[i] {
				t.Fatalf("variant %d strict: event %d differs", vi, i)
			}
		}
		if syncErr == nil && syncSym.Len() != raSym.Len() {
			t.Fatalf("variant %d strict: symtab %d vs %d", vi, syncSym.Len(), raSym.Len())
		}

		var syncSalv, raSalv []event.Event
		_, syncInfo, syncErr2 := SalvageWith(bytes.NewReader(data), collectSink(&syncSalv), ReadOptions{})
		_, raInfo, raErr2 := SalvageWith(bytes.NewReader(data), collectSink(&raSalv), ReadOptions{DecodeWorkers: 1})
		if syncErr2 != nil || raErr2 != nil {
			t.Fatalf("variant %d salvage: errs %v, %v", vi, syncErr2, raErr2)
		}
		if *syncInfo != *raInfo {
			t.Fatalf("variant %d salvage: info %+v vs %+v", vi, *syncInfo, *raInfo)
		}
		if len(syncSalv) != len(raSalv) {
			t.Fatalf("variant %d salvage: %d vs %d events", vi, len(syncSalv), len(raSalv))
		}
		for i := range syncSalv {
			if syncSalv[i] != raSalv[i] {
				t.Fatalf("variant %d salvage: event %d differs", vi, i)
			}
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
	measure := func(data []byte, opts ReadOptions) float64 {
		var c event.Counter
		return testing.AllocsPerRun(20, func() {
			if _, _, err := ReplayWith(bytes.NewReader(data), &c, opts); err != nil {
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
		small, large := mkTrace(2, w.opts), mkTrace(128, w.opts)
		for _, tc := range []struct {
			name  string
			opts  ReadOptions
			slack float64
		}{
			{"sync", ReadOptions{}, 0},
			// The read-ahead path blocks on channels, and the runtime may
			// allocate a sudog per park; allow a few allocs of noise but
			// nothing near one per frame (126 extra frames).
			{"readahead", ReadOptions{DecodeWorkers: 1}, 8},
			// The decode pipeline allocates its channels, ring, and
			// per-worker decoder state once per replay — O(workers), not
			// O(frames). Parking on channels adds runtime noise.
			{"pipeline-3", ReadOptions{DecodeWorkers: 3}, 24},
		} {
			aSmall, aLarge := measure(small, tc.opts), measure(large, tc.opts)
			if aLarge > aSmall+tc.slack+w.slack {
				t.Errorf("%s/%s: 128-frame replay allocates %.0f, 2-frame allocates %.0f — decode loop allocates per frame",
					w.name, tc.name, aLarge, aSmall)
			}
		}
	}
}
