package trace

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"testing"

	"heapmd/internal/event"
)

// collect replays/salvages data into a slice of events.
func collectSink(dst *[]event.Event) event.Sink {
	return event.SinkFunc(func(e event.Event) { *dst = append(*dst, e) })
}

// writeV2 builds a v2 trace from evs with sym attached, flushing
// after every flushEvery events (0 = never).
func writeV2(t *testing.T, evs []event.Event, sym *event.Symtab, flushEvery int) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	w.SetSymtab(sym)
	for i, e := range evs {
		w.Emit(e)
		if flushEvery > 0 && (i+1)%flushEvery == 0 {
			if err := w.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := w.Close(sym); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// boundary is what is durable at the end of one frame of a
// well-formed trace: the ground truth a salvage of any prefix ending
// there — or of any trace damaged in the frame after it — must
// reproduce, Stats included.
type boundary struct {
	offset int
	events uint64
	// Event-frame accounting through this frame, as Stats reports it.
	frames, compressed uint64
	stored, raw        uint64
	// syms is the symbol count of the last symtab checkpoint.
	syms int
}

// frameBoundaries walks a well-formed v2 or v3 trace and returns one
// boundary per frame end. The first element is the header (offset 8,
// nothing durable).
func frameBoundaries(t *testing.T, data []byte) []boundary {
	t.Helper()
	version := binary.LittleEndian.Uint32(data[4:])
	cur := boundary{offset: 8}
	bounds := []boundary{cur}
	for cur.offset < len(data) {
		if cur.offset+frameHeaderSize > len(data) {
			t.Fatalf("ragged frame header at %d", cur.offset)
		}
		kind := data[cur.offset]
		payloadLen := int(binary.LittleEndian.Uint32(data[cur.offset+1:]))
		payload := data[cur.offset+frameHeaderSize : cur.offset+frameHeaderSize+payloadLen]
		if kind == frameEvents {
			cur.frames++
			cur.stored += uint64(payloadLen)
			switch {
			case version == Version:
				cur.events += uint64(payloadLen / recordSize)
				cur.raw += uint64(payloadLen)
			case payload[0] == codecFlate:
				cur.events += uint64(binary.LittleEndian.Uint32(payload[1:]))
				body, err := io.ReadAll(flate.NewReader(bytes.NewReader(payload[v3EventHeaderSize:])))
				if err != nil {
					t.Fatalf("frame at %d: %v", cur.offset, err)
				}
				cur.raw += uint64(v3EventHeaderSize + len(body))
				cur.compressed++
			default:
				cur.events += uint64(binary.LittleEndian.Uint32(payload[1:]))
				cur.raw += uint64(payloadLen)
			}
		}
		if kind == frameSymtab {
			cur.syms = int(binary.LittleEndian.Uint32(payload))
		}
		cur.offset += frameHeaderSize + payloadLen
		bounds = append(bounds, cur)
	}
	return bounds
}

// prefixAt returns the last boundary at or before offset: for a cut at
// offset, what survives; for damage at offset, what precedes the
// damaged frame.
func prefixAt(bounds []boundary, offset int) boundary {
	best := bounds[0]
	for _, b := range bounds {
		if b.offset <= offset {
			best = b
		}
	}
	return best
}

// checkDamaged replays a damaged trace (a cut, a flipped byte, or
// bytes after the end frame) whose longest valid prefix ends at want,
// and checks both modes exactly: salvage recovers precisely evs up to
// want with the matching SalvageInfo and Stats; strict replay fails
// with ErrCorrupt after delivering the same prefix and the same Stats.
// Both return the last symtab checkpoint in the prefix.
func checkDamaged(t *testing.T, label string, data []byte, evs []event.Event, want boundary, truncated bool) {
	t.Helper()
	wantStats := Stats{
		Version:          binary.LittleEndian.Uint32(data[4:]),
		TotalBytes:       uint64(len(data)),
		Events:           want.events,
		EventFrames:      want.frames,
		CompressedFrames: want.compressed,
		StoredEventBytes: want.stored,
		RawEventBytes:    want.raw,
	}
	wantInfo := SalvageInfo{
		EventsRecovered: want.events,
		BytesDropped:    uint64(len(data) - want.offset),
		Truncated:       truncated,
	}
	checkPrefix := func(mode string, got []event.Event, sym *event.Symtab) {
		t.Helper()
		if sym.Len() != want.syms {
			t.Fatalf("%s %s: symtab has %d names, want %d", label, mode, sym.Len(), want.syms)
		}
		if uint64(len(got)) != want.events {
			t.Fatalf("%s %s: delivered %d events, want %d", label, mode, len(got), want.events)
		}
		for i := range got {
			if got[i] != evs[i] {
				t.Fatalf("%s %s: event %d corrupted", label, mode, i)
			}
		}
	}

	var salvaged []event.Event
	var salvageStats Stats
	sym, info, err := SalvageWith(bytes.NewReader(data), collectSink(&salvaged), ReadOptions{Stats: &salvageStats})
	if err != nil {
		t.Fatalf("%s: salvage failed: %v", label, err)
	}
	if *info != wantInfo {
		t.Fatalf("%s: salvage info %+v, want %+v", label, *info, wantInfo)
	}
	checkPrefix("salvage", salvaged, sym)
	if salvageStats != wantStats {
		t.Fatalf("%s: salvage stats %+v, want %+v", label, salvageStats, wantStats)
	}

	var strict []event.Event
	var strictStats Stats
	sym, n, err := ReplayWith(bytes.NewReader(data), collectSink(&strict), ReadOptions{Stats: &strictStats})
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("%s: strict replay err = %v, want ErrCorrupt", label, err)
	}
	if n != want.events {
		t.Fatalf("%s: strict replay counted %d events, want %d", label, n, want.events)
	}
	checkPrefix("strict", strict, sym)
	if strictStats != wantStats {
		t.Fatalf("%s: strict stats %+v, want %+v", label, strictStats, wantStats)
	}
}

func testEvents(n int) []event.Event {
	evs := make([]event.Event, n)
	for i := range evs {
		evs[i] = event.Event{
			Type:  event.Type(i % int(event.NumTypes)),
			Fn:    event.FnID(i%3 + 1),
			Addr:  uint64(0x1000 + i*8),
			Value: uint64(i),
			Old:   uint64(i / 2),
			Size:  uint64(16 + i%32),
		}
	}
	return evs
}

func TestV2CleanSalvageIsLossless(t *testing.T) {
	sym := event.NewSymtab()
	sym.Intern("alpha")
	sym.Intern("beta")
	evs := testEvents(100)
	data := writeV2(t, evs, sym, 7)

	var got []event.Event
	gotSym, info, err := Salvage(bytes.NewReader(data), collectSink(&got))
	if err != nil {
		t.Fatal(err)
	}
	if info.Salvaged() {
		t.Errorf("clean trace reported salvage: %v", info)
	}
	if info.EventsRecovered != uint64(len(evs)) || len(got) != len(evs) {
		t.Fatalf("recovered %d events, want %d", info.EventsRecovered, len(evs))
	}
	for i := range evs {
		if got[i] != evs[i] {
			t.Fatalf("event %d = %+v, want %+v", i, got[i], evs[i])
		}
	}
	if gotSym.Len() != 2 {
		t.Errorf("symtab len = %d, want 2", gotSym.Len())
	}
}

// TestV2TruncationAtEveryOffset is the crash-safety acceptance test:
// a v2 trace cut at ANY byte offset past the header must salvage
// without panicking, recovering exactly the events of every complete
// frame before the cut.
func TestV2TruncationAtEveryOffset(t *testing.T) {
	sym := event.NewSymtab()
	sym.Intern("fn")
	evs := testEvents(60)
	data := writeV2(t, evs, sym, 5)
	bounds := frameBoundaries(t, data)
	for cut := 8; cut < len(data); cut++ {
		checkDamaged(t, fmt.Sprintf("cut=%d", cut), data[:cut], evs, prefixAt(bounds, cut), true)
	}
}

// TestV2BitFlipDetected flips every byte of a v2 trace body in turn:
// each mutant fails at exactly the frame holding the flipped byte, in
// strict and salvage mode alike.
func TestV2BitFlipDetected(t *testing.T) {
	evs := testEvents(20)
	data := writeV2(t, evs, nil, 6)
	bounds := frameBoundaries(t, data)
	for i := 8; i < len(data); i++ {
		mut := bytes.Clone(data)
		mut[i] ^= 0x40
		checkDamaged(t, fmt.Sprintf("flip at %d", i), mut, evs, prefixAt(bounds, i), true)
	}
}

func TestV2SymtabCheckpointSurvivesCrash(t *testing.T) {
	sym := event.NewSymtab()
	sym.Intern("durable")
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	w.SetSymtab(sym)
	// Enough events to force DefaultCheckpointFrames event frames and
	// therefore at least one symtab checkpoint.
	n := DefaultBatchRecords * DefaultCheckpointFrames
	for i := 0; i < n; i++ {
		w.Emit(event.Event{Type: event.Enter, Fn: 1})
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	// Crash: no Close. The trailer-based v1 format would lose every
	// symbol here.
	var c event.Counter
	gotSym, info, err := Salvage(bytes.NewReader(buf.Bytes()), &c)
	if err != nil {
		t.Fatal(err)
	}
	if !info.Truncated {
		t.Error("crashed trace not reported truncated")
	}
	if info.EventsRecovered != uint64(n) || c.Total != uint64(n) {
		t.Errorf("recovered %d events, want %d", info.EventsRecovered, n)
	}
	if gotSym.Len() != 1 || gotSym.Name(1) != "durable" {
		t.Errorf("symtab checkpoint lost: len=%d", gotSym.Len())
	}
}

func TestV2TrailingGarbage(t *testing.T) {
	evs := testEvents(10)
	data := writeV2(t, evs, nil, 0)
	bounds := frameBoundaries(t, data)
	data = append(data, []byte("garbage after a clean end frame")...)
	checkDamaged(t, "trailing garbage", data, evs, bounds[len(bounds)-1], false)
}

func TestV1RoundTripCompat(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriterV1(&buf)
	if err != nil {
		t.Fatal(err)
	}
	sym := event.NewSymtab()
	f1 := sym.Intern("legacy")
	evs := testEvents(50)
	for _, e := range evs {
		w.Emit(e)
	}
	if err := w.Close(sym); err != nil {
		t.Fatal(err)
	}
	var got []event.Event
	gotSym, n, err := Replay(bytes.NewReader(buf.Bytes()), collectSink(&got))
	if err != nil {
		t.Fatal(err)
	}
	if n != uint64(len(evs)) {
		t.Fatalf("replayed %d events, want %d", n, len(evs))
	}
	for i := range evs {
		if got[i] != evs[i] {
			t.Fatalf("event %d did not round-trip through v1", i)
		}
	}
	if gotSym.Name(f1) != "legacy" {
		t.Error("v1 symtab did not round-trip")
	}
	// Salvage of a clean v1 trace is also lossless.
	var got2 []event.Event
	_, info, err := Salvage(bytes.NewReader(buf.Bytes()), collectSink(&got2))
	if err != nil {
		t.Fatal(err)
	}
	if info.Salvaged() || len(got2) != len(evs) {
		t.Errorf("clean v1 salvage: %d events, info=%v", len(got2), info)
	}
}

// TestV1TruncatedSalvage exercises the motivating failure: a v1 trace
// whose writer died before Close, losing the symtab trailer. Strict
// replay fails wholesale; salvage reinterprets every complete record.
func TestV1TruncatedSalvage(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriterV1(&buf)
	if err != nil {
		t.Fatal(err)
	}
	evs := testEvents(30)
	for _, e := range evs {
		w.Emit(e)
	}
	if err := w.Close(nil); err != nil {
		t.Fatal(err)
	}
	// Simulate the crash: cut mid-record, before the trailer was
	// durable.
	data := buf.Bytes()[:8+len(evs)*recordSize-5]

	devNull := event.SinkFunc(func(event.Event) {})
	if _, _, err := Replay(bytes.NewReader(data), devNull); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("strict replay of truncated v1: err = %v, want ErrCorrupt", err)
	}
	var got []event.Event
	sym, info, err := Salvage(bytes.NewReader(data), collectSink(&got))
	if err != nil {
		t.Fatal(err)
	}
	if !info.Truncated {
		t.Error("truncated v1 not reported truncated")
	}
	if want := len(evs) - 1; len(got) != want {
		t.Fatalf("salvaged %d events, want %d", len(got), want)
	}
	for i := range got {
		if got[i] != evs[i] {
			t.Fatalf("event %d corrupted in v1 salvage", i)
		}
	}
	if sym.Len() != 0 {
		t.Error("v1 salvage cannot recover symbols, yet symtab is nonempty")
	}
	if info.BytesDropped != recordSize-5 {
		t.Errorf("BytesDropped = %d, want %d", info.BytesDropped, recordSize-5)
	}
}

func TestSalvageHeaderGarbage(t *testing.T) {
	for _, data := range [][]byte{nil, []byte("HM"), []byte("XXXXYYYY and then some")} {
		if _, _, err := Salvage(bytes.NewReader(data), event.SinkFunc(func(event.Event) {})); !errors.Is(err, ErrCorrupt) {
			t.Errorf("Salvage(%q) err = %v, want ErrCorrupt", data, err)
		}
	}
	// Unknown version is an explicit error, not a salvage case.
	bad := append([]byte("HMDT"), 9, 0, 0, 0)
	if _, _, err := Salvage(bytes.NewReader(bad), event.SinkFunc(func(event.Event) {})); err == nil {
		t.Error("unknown version accepted by salvage")
	}
}

func TestWriterFlushEstablishesSalvagePoint(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	w.Emit(event.Event{Type: event.Alloc, Addr: 0x10, Size: 8})
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	durable := buf.Len()
	w.Emit(event.Event{Type: event.Free, Addr: 0x10, Size: 8})
	// Second event never flushed: only the first survives the crash.
	var got []event.Event
	_, info, err := Salvage(bytes.NewReader(buf.Bytes()[:durable]), collectSink(&got))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || info.EventsRecovered != 1 {
		t.Errorf("salvaged %d events, want 1", len(got))
	}
}
