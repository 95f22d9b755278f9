package trace

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"heapmd/internal/event"
)

// fuzzSeeds builds the seed corpus: clean and damaged traces in both
// format versions, plus outright garbage. The fuzzer mutates from
// here into the interesting corners (flipped CRCs, ragged frames,
// lying length fields, truncated trailers).
func fuzzSeeds(f *testing.F) {
	f.Helper()
	sym := event.NewSymtab()
	sym.Intern("fuzz")
	evs := make([]event.Event, 40)
	for i := range evs {
		evs[i] = event.Event{
			Type: event.Type(i % 9), // includes unknown types
			Fn:   event.FnID(i), Addr: uint64(i * 64), Value: uint64(i), Size: 8,
		}
	}
	// Clean v2 with several frames.
	var v2 bytes.Buffer
	w, err := NewWriter(&v2)
	if err != nil {
		f.Fatal(err)
	}
	w.SetSymtab(sym)
	for i, e := range evs {
		w.Emit(e)
		if i%7 == 6 {
			w.Flush()
		}
	}
	if err := w.Close(sym); err != nil {
		f.Fatal(err)
	}
	// Clean v1.
	var v1 bytes.Buffer
	w1, err := NewWriterV1(&v1)
	if err != nil {
		f.Fatal(err)
	}
	for _, e := range evs {
		w1.Emit(e)
	}
	if err := w1.Close(sym); err != nil {
		f.Fatal(err)
	}
	// Clean v3, raw and compressed, several frames each.
	var v3, v3z bytes.Buffer
	for _, dst := range []struct {
		buf      *bytes.Buffer
		compress bool
	}{{&v3, false}, {&v3z, true}} {
		w3, err := NewWriterWith(dst.buf, WriterOptions{Version: VersionV3, Compress: dst.compress})
		if err != nil {
			f.Fatal(err)
		}
		w3.SetSymtab(sym)
		for i, e := range evs {
			w3.Emit(e)
			if i%7 == 6 {
				w3.Flush()
			}
		}
		if err := w3.Close(sym); err != nil {
			f.Fatal(err)
		}
	}
	// Many tiny frames: one event per frame, so mutations land on
	// frame envelopes far more often than on column data.
	var v3many bytes.Buffer
	wm, err := NewWriterWith(&v3many, WriterOptions{Version: VersionV3})
	if err != nil {
		f.Fatal(err)
	}
	wm.SetSymtab(sym)
	for _, e := range evs {
		wm.Emit(e)
		wm.Flush()
	}
	if err := wm.Close(sym); err != nil {
		f.Fatal(err)
	}
	f.Add(v2.Bytes())
	f.Add(v1.Bytes())
	f.Add(v3many.Bytes())
	f.Add(v3many.Bytes()[:v3many.Len()-13])
	f.Add(v3.Bytes())
	f.Add(v3z.Bytes())
	f.Add(v3.Bytes()[:v3.Len()*2/3])          // truncated v3
	f.Add(v3z.Bytes()[:v3z.Len()/2])          // truncated compressed v3
	f.Add(append([]byte("HMDT"), 3, 0, 0, 0)) // bare v3 header
	f.Add(v2.Bytes()[:v2.Len()/2])            // truncated v2
	f.Add(v1.Bytes()[:v1.Len()-25])           // v1 missing trailer
	f.Add(v1.Bytes()[:11])                    // mid-record v1
	f.Add([]byte("HMDT"))                     // header alone, short
	f.Add(append([]byte("HMDT"), 2, 0, 0, 0)) // bare v2 header
	f.Add(append([]byte("HMDT"), 1, 0, 0, 0)) // bare v1 header
	f.Add([]byte("not a trace at all, definitely longer than a header"))
	f.Add([]byte{})
}

// acceptable reports whether a replay error is one of the declared
// failure modes: corruption or an unsupported version. Anything else
// (a panic is caught by the fuzzer itself) is a bug.
func acceptable(err error) bool {
	return errors.Is(err, ErrCorrupt) || strings.Contains(err.Error(), "unsupported version")
}

// FuzzReplay feeds arbitrary bytes to strict replay: it must never
// panic and must either succeed or fail with ErrCorrupt/unsupported-
// version.
func FuzzReplay(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		var c event.Counter
		_, n, err := Replay(bytes.NewReader(data), &c)
		if err != nil {
			if !acceptable(err) {
				t.Fatalf("unexpected error class: %v", err)
			}
			return
		}
		if c.Total != n {
			t.Fatalf("replay count %d != delivered events %d", n, c.Total)
		}
	})
}

// FuzzSalvage feeds arbitrary bytes to salvage: it must never panic,
// and must either recover a (possibly empty) prefix with a coherent
// SalvageInfo or fail with ErrCorrupt/unsupported-version. Strict
// success must imply lossless salvage.
func FuzzSalvage(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		var c event.Counter
		sym, info, err := Salvage(bytes.NewReader(data), &c)
		if err != nil {
			if !acceptable(err) {
				t.Fatalf("unexpected error class: %v", err)
			}
			return
		}
		if sym == nil || info == nil {
			t.Fatal("salvage succeeded with nil symtab or info")
		}
		if info.EventsRecovered != c.Total {
			t.Fatalf("info says %d events, sink saw %d", info.EventsRecovered, c.Total)
		}
		if info.BytesDropped > uint64(len(data)) {
			t.Fatalf("dropped %d bytes of a %d-byte trace", info.BytesDropped, len(data))
		}
		// Cross-check strict mode: if strict accepts, salvage must
		// have reported a clean, equally-sized replay.
		var c2 event.Counter
		if _, n2, err2 := Replay(bytes.NewReader(data), &c2); err2 == nil {
			if info.Salvaged() {
				t.Fatalf("strict replay clean but salvage reported loss: %v", info)
			}
			if n2 != info.EventsRecovered {
				t.Fatalf("strict replayed %d, salvage %d", n2, info.EventsRecovered)
			}
		}
	})
}
