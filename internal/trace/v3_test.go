package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand"
	"testing"

	"heapmd/internal/event"
)

// writeV3 builds a v3 trace from evs with sym attached, flushing
// after every flushEvery events (0 = never).
func writeV3(t testing.TB, evs []event.Event, sym *event.Symtab, flushEvery int, compress bool) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewWriterWith(&buf, WriterOptions{Version: VersionV3, Compress: compress})
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

// v3TestEvents builds an event mix with the clustering real traces
// have (nearby addresses, small fn deltas) plus occasional jumps, so
// both the one-byte varint fast path and the multi-byte path run.
func v3TestEvents(n int) []event.Event {
	evs := make([]event.Event, n)
	addr := uint64(0x10000)
	for i := range evs {
		if i%97 == 13 {
			addr += 1 << 33 // new arena: a large positive delta
		}
		if i%53 == 7 {
			addr -= 4096 // backwards jump: negative delta, zigzag path
		}
		evs[i] = event.Event{
			Type:  event.Type(i % int(event.NumTypes)),
			Fn:    event.FnID(i%5 + 1),
			Addr:  addr + uint64(i%16)*8,
			Value: addr ^ uint64(i),
			Old:   uint64(i / 3),
			Size:  uint64(16 + i%48),
		}
	}
	return evs
}

func TestV3RoundTrip(t *testing.T) {
	for _, compress := range []bool{false, true} {
		name := "raw"
		if compress {
			name = "flate"
		}
		t.Run(name, func(t *testing.T) {
			sym := event.NewSymtab()
			f1 := sym.Intern("alpha")
			f2 := sym.Intern("beta")
			evs := v3TestEvents(3*DefaultBatchRecords + 17) // multiple frames, ragged tail
			data := writeV3(t, evs, sym, 0, compress)

			var got []event.Event
			gotSym, n, err := Replay(bytes.NewReader(data), collectSink(&got))
			if err != nil {
				t.Fatal(err)
			}
			if n != uint64(len(evs)) || len(got) != len(evs) {
				t.Fatalf("replayed %d events, want %d", n, len(evs))
			}
			for i := range evs {
				if got[i] != evs[i] {
					t.Fatalf("event %d = %+v, want %+v", i, got[i], evs[i])
				}
			}
			if gotSym.Name(f1) != "alpha" || gotSym.Name(f2) != "beta" {
				t.Error("symtab did not round-trip")
			}
			// Salvage of a clean v3 trace is lossless.
			var got2 []event.Event
			_, info, err := Salvage(bytes.NewReader(data), collectSink(&got2))
			if err != nil {
				t.Fatal(err)
			}
			if info.Salvaged() || len(got2) != len(evs) {
				t.Errorf("clean v3 salvage: %d events, info=%v", len(got2), info)
			}
		})
	}
}

func TestV3EmptyTrace(t *testing.T) {
	data := writeV3(t, nil, event.NewSymtab(), 0, true)
	var c event.Counter
	sym, n, err := Replay(bytes.NewReader(data), &c)
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 || c.Total != 0 || sym.Len() != 0 {
		t.Errorf("empty v3 replay: n=%d total=%d syms=%d", n, c.Total, sym.Len())
	}
}

// TestV3SmallerThanV2 pins the point of the format: on clustered
// event streams the columnar encoding is at least 3x smaller than
// v2's fixed-width records.
func TestV3SmallerThanV2(t *testing.T) {
	evs := v3TestEvents(8 * DefaultBatchRecords)
	v2 := writeV2(t, evs, nil, 0)
	v3 := writeV3(t, evs, nil, 0, false)
	if len(v3)*3 > len(v2) {
		t.Errorf("v3 = %d bytes, v2 = %d bytes: less than 3x smaller", len(v3), len(v2))
	}
	v3z := writeV3(t, evs, nil, 0, true)
	if len(v3z) > len(v3) {
		t.Errorf("compressed v3 = %d bytes > uncompressed %d", len(v3z), len(v3))
	}
}

// TestV3IncompressibleStaysRaw checks the per-frame compression flag
// is adaptive: frames whose flate output would be larger are stored
// raw, so -compress never inflates a trace beyond its raw v3 size.
// Single-event frames of random words make flate reliably lose — its
// per-stream framing overhead exceeds any saving on a ~30-byte body.
func TestV3IncompressibleStaysRaw(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	evs := make([]event.Event, 16)
	for i := range evs {
		evs[i] = event.Event{
			Type: event.Type(i % int(event.NumTypes)), Fn: event.FnID(rng.Uint32()),
			Addr: rng.Uint64(), Value: rng.Uint64(), Old: rng.Uint64(), Size: rng.Uint64(),
		}
	}
	data := writeV3(t, evs, nil, 1, true)
	var st Stats
	var c event.Counter
	if _, _, err := ReplayWith(bytes.NewReader(data), &c, ReadOptions{Stats: &st}); err != nil {
		t.Fatal(err)
	}
	if st.CompressedFrames != 0 {
		t.Errorf("%d incompressible frames stored compressed", st.CompressedFrames)
	}
	if st.StoredEventBytes != st.RawEventBytes || st.CompressionRatio() != 1 {
		t.Errorf("raw-stored trace reports ratio %.3f", st.CompressionRatio())
	}
}

// v3DamageCase is one trace the v3 damage tests cut and flip: a
// short trace damaged at every offset, or a many-frame one (92 event
// frames, far more than a symtab checkpoint interval, each of them
// compressed under flate) damaged at a stride.
type v3DamageCase struct {
	name       string
	evs        []event.Event
	flushEvery int
	compress   bool
	stride     int
}

func v3DamageCases(short, flushEvery int) []v3DamageCase {
	few, many := v3TestEvents(short), v3TestEvents(3*DefaultBatchRecords+17)
	return []v3DamageCase{
		{"raw", few, flushEvery, false, 1},
		{"flate", few, flushEvery, true, 1},
		{"raw-many-frames", many, 17, false, 7},
		{"flate-many-frames", many, 17, true, 7},
	}
}

func (tc v3DamageCase) write(t *testing.T) []byte {
	sym := event.NewSymtab()
	sym.Intern("fn")
	return writeV3(t, tc.evs, sym, tc.flushEvery, tc.compress)
}

// TestV3TruncationAtEveryOffset is the v3 crash-safety acceptance
// test, mirroring TestV2TruncationAtEveryOffset: cut anywhere, and
// salvage recovers exactly the events of every complete frame before
// the cut — compressed or not — while strict replay fails after the
// same prefix, with the same Stats.
func TestV3TruncationAtEveryOffset(t *testing.T) {
	for _, tc := range v3DamageCases(60, 5) {
		t.Run(tc.name, func(t *testing.T) {
			data := tc.write(t)
			bounds := frameBoundaries(t, data)
			for cut := 8; cut < len(data); cut += tc.stride {
				checkDamaged(t, fmt.Sprintf("cut=%d", cut), data[:cut], tc.evs, prefixAt(bounds, cut), true)
			}
		})
	}
}

// TestV3BitFlipDetected flips every body byte of v3 traces (raw and
// compressed): each mutant fails at exactly the frame holding the
// flipped byte, in strict and salvage mode alike, with the Stats of
// the intact prefix.
func TestV3BitFlipDetected(t *testing.T) {
	for _, tc := range v3DamageCases(40, 6) {
		t.Run(tc.name, func(t *testing.T) {
			data := tc.write(t)
			bounds := frameBoundaries(t, data)
			for i := 8; i < len(data); i += tc.stride {
				mut := bytes.Clone(data)
				mut[i] ^= 0x40
				checkDamaged(t, fmt.Sprintf("flip at %d", i), mut, tc.evs, prefixAt(bounds, i), true)
			}
		})
	}
}

// TestV3TrailingGarbage: bytes after a valid end frame make strict
// replay fail after delivering every event, and salvage keep the whole
// trace, report the garbage as dropped, and not call it truncated.
func TestV3TrailingGarbage(t *testing.T) {
	for _, tc := range v3DamageCases(60, 5) {
		t.Run(tc.name, func(t *testing.T) {
			data := tc.write(t)
			bounds := frameBoundaries(t, data)
			data = append(data, 0xde, 0xad, 0xbe, 0xef)
			checkDamaged(t, "trailing garbage", data, tc.evs, bounds[len(bounds)-1], false)
		})
	}
}

// corruptV3Frame rewrites the first event frame of a v3 trace with a
// payload-mangling function and a fresh (valid) CRC, simulating
// writer-side damage the checksum cannot catch.
func corruptV3Frame(t *testing.T, data []byte, mangle func(payload []byte) []byte) []byte {
	t.Helper()
	off := 8
	for off < len(data) {
		kind := data[off]
		payloadLen := int(binary.LittleEndian.Uint32(data[off+1:]))
		if kind != frameEvents {
			off += frameHeaderSize + payloadLen
			continue
		}
		payload := mangle(bytes.Clone(data[off+frameHeaderSize : off+frameHeaderSize+payloadLen]))
		out := bytes.Clone(data[:off])
		var hdr [frameHeaderSize]byte
		hdr[0] = frameEvents
		binary.LittleEndian.PutUint32(hdr[1:], uint32(len(payload)))
		binary.LittleEndian.PutUint32(hdr[5:], crc32.Checksum(payload, crcTable))
		out = append(out, hdr[:]...)
		out = append(out, payload...)
		out = append(out, data[off+frameHeaderSize+payloadLen:]...)
		return out
	}
	t.Fatal("no event frame found")
	return nil
}

// TestV3StructuralCorruption exercises CRC-valid but structurally
// damaged v3 event frames: unknown codec, lying counts, ragged
// columns, short headers. Strict replay must reject each; salvage
// must stop cleanly before the bad frame.
func TestV3StructuralCorruption(t *testing.T) {
	evs := v3TestEvents(3 * DefaultBatchRecords)
	data := writeV3(t, evs, nil, 0, false)
	cases := map[string]func(p []byte) []byte{
		"unknown codec":  func(p []byte) []byte { p[0] = 0x7f; return p },
		"oversize count": func(p []byte) []byte { binary.LittleEndian.PutUint32(p[1:], maxFrameRecords+1); return p },
		"lying count":    func(p []byte) []byte { binary.LittleEndian.PutUint32(p[1:], 9999); return p },
		"short header":   func(p []byte) []byte { return p[:3] },
		"trailing bytes": func(p []byte) []byte { return append(p, 0, 0, 0) },
		"truncated columns": func(p []byte) []byte {
			return p[:len(p)-4]
		},
		"bad compressed body": func(p []byte) []byte {
			p[0] = codecFlate // declare flate over what is raw column data
			return p
		},
	}
	for name, mangle := range cases {
		t.Run(name, func(t *testing.T) {
			mut := corruptV3Frame(t, data, mangle)
			if _, _, err := Replay(bytes.NewReader(mut), event.SinkFunc(func(event.Event) {})); !errors.Is(err, ErrCorrupt) {
				t.Errorf("strict replay err = %v, want ErrCorrupt", err)
			}
			var got []event.Event
			_, info, err := Salvage(bytes.NewReader(mut), collectSink(&got))
			if err != nil {
				t.Fatalf("salvage errored: %v", err)
			}
			if !info.Truncated && info.BytesDropped == 0 {
				t.Error("salvage reported a damaged trace clean")
			}
			for i := range got {
				if got[i] != evs[i] {
					t.Fatalf("salvage delivered corrupted event %d", i)
				}
			}
		})
	}
}

// TestV3Stats checks the replay accounting a clean v3 trace reports:
// version, totals, frame counts, and a compression ratio > 1 when the
// flate pass actually ran.
func TestV3Stats(t *testing.T) {
	evs := v3TestEvents(4 * DefaultBatchRecords)
	for _, tc := range []struct {
		name     string
		compress bool
	}{{"raw", false}, {"flate", true}} {
		t.Run(tc.name, func(t *testing.T) {
			data := writeV3(t, evs, nil, 0, tc.compress)
			var st Stats
			var c event.Counter
			_, n, err := ReplayWith(bytes.NewReader(data), &c, ReadOptions{Stats: &st})
			if err != nil {
				t.Fatal(err)
			}
			if st.Version != VersionV3 || st.TotalBytes != uint64(len(data)) || st.Events != n {
				t.Errorf("stats = %+v, want version 3, %d bytes, %d events", st, len(data), n)
			}
			if st.EventFrames != 4 {
				t.Errorf("EventFrames = %d, want 4", st.EventFrames)
			}
			if st.BytesPerEvent() <= 0 || st.BytesPerEvent() > recordSize {
				t.Errorf("BytesPerEvent = %.2f out of range", st.BytesPerEvent())
			}
			if tc.compress {
				if st.CompressedFrames == 0 || st.CompressionRatio() <= 1 {
					t.Errorf("compressed trace: frames=%d ratio=%.2f", st.CompressedFrames, st.CompressionRatio())
				}
			} else if st.CompressedFrames != 0 || st.CompressionRatio() != 1 {
				t.Errorf("raw trace: frames=%d ratio=%.2f", st.CompressedFrames, st.CompressionRatio())
			}
		})
	}
}

// TestWriterEmitAllocs is the encode-path counterpart of
// TestReplayFrameDecodeAllocs: emitting 64x more event frames may not
// cost more allocations than a short run, proving the batch, columnar
// and compression scratch buffers are reused across frames.
func TestWriterEmitAllocs(t *testing.T) {
	evs := v3TestEvents(DefaultBatchRecords)
	measure := func(opts WriterOptions, frames int) float64 {
		return testing.AllocsPerRun(10, func() {
			w, err := NewWriterWith(io.Discard, opts)
			if err != nil {
				t.Fatal(err)
			}
			for f := 0; f < frames; f++ {
				for _, e := range evs {
					w.Emit(e)
				}
			}
			if err := w.Close(nil); err != nil {
				t.Fatal(err)
			}
		})
	}
	for _, tc := range []struct {
		name  string
		opts  WriterOptions
		slack float64
	}{
		{"v2", WriterOptions{Version: Version}, 0},
		{"v3", WriterOptions{Version: VersionV3}, 0},
		// flate's Reset keeps its state but the stdlib may still grow
		// internal tables once; allow a few allocs, nothing per frame.
		{"v3-flate", WriterOptions{Version: VersionV3, Compress: true}, 8},
	} {
		aSmall, aLarge := measure(tc.opts, 2), measure(tc.opts, 128)
		if aLarge > aSmall+tc.slack {
			t.Errorf("%s: 128-frame write allocates %.0f, 2-frame allocates %.0f — encode path allocates per frame",
				tc.name, aLarge, aSmall)
		}
	}
}
