// Package trace records and replays instrumentation event streams,
// enabling HeapMD's second usage mode (paper Section 2): post-mortem
// analysis, where the program's execution trace is captured online and
// compared against the model offline. Offline analysis can use whole-
// trace information and avoids perturbing the monitored program beyond
// the cost of logging.
//
// Because HeapMD runs against *buggy* programs, the trace is written
// by a process that may crash, corrupt its own output, or be killed
// mid-run. Format v2 is therefore crash-safe: events travel in framed
// record batches, each frame carrying a CRC32 over its payload, and
// the symbol table is checkpointed periodically instead of living
// only in an end-of-file trailer. Replay of a truncated or corrupted
// v2 trace can salvage every complete, checksum-valid frame before
// the damage (see Salvage and SalvageInfo) instead of failing
// wholesale.
//
// Format v2 (all integers little-endian):
//
//	header:  magic "HMDT" | version u32 (=2)
//	frames:  kind u8 | payloadLen u32 | crc32(payload) u32 | payload
//	  kind 1 (events): payload is n records of 37 bytes each:
//	         type u8 | fn u32 | addr u64 | value u64 | old u64 | size u64
//	  kind 2 (symtab): full symbol-table snapshot:
//	         count u32, then count length-prefixed names.
//	         Later checkpoints supersede earlier ones.
//	  kind 3 (end): eventCount u64 — marks a clean close.
//
// Format v3 (written by NewWriterWith) keeps the v2 envelope — the
// same header shape, frame kinds, CRC32C framing, symtab checkpoints
// and end frame, so frame walking and salvage are version-independent
// — but lays event-frame payloads out columnarly:
//
//	header:  magic "HMDT" | version u32 (=3)
//	  kind 1 (events): flags u8 | count u32 | body
//	         body: one array per Event field, delta+varint encoded
//	         (see columnar.go); flags selects the body codec —
//	         0 = raw, 1 = flate-compressed (only when smaller).
//	  kinds 2 and 3: byte-identical to v2.
//
// Clustered addresses and near-monotonic columns collapse to one or
// two bytes per event (~6x smaller than v2's fixed-width records on
// recorded workload traces), and each frame's delta chains restart at
// zero, so salvage still recovers every complete frame independently.
//
// Format v1 (still readable; written by NewWriterV1):
//
//	header:  magic "HMDT" | version u32 (=1)
//	events:  n records of 37 bytes each (as above, unframed)
//	trailer: symtab (count u32, then count length-prefixed names)
//	         | symtabLen u64 | eventCount u64 | magic "TDMH"
//
// v1 keeps the symbol table solely in the trailer, so a run that
// crashes before Close loses it — and, because nothing in the body is
// checksummed, the best v1 salvage can do is reinterpret the bytes
// after the header as records.
package trace

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"heapmd/internal/event"
)

var (
	headerMagic  = [4]byte{'H', 'M', 'D', 'T'}
	trailerMagic = [4]byte{'T', 'D', 'M', 'H'}
)

// Version is the v2 (crash-safe, fixed-width records) trace format
// version: what NewWriter emits and the default interchange format.
const Version uint32 = 2

// VersionV1 is the legacy trailer-based format, still readable.
const VersionV1 uint32 = 1

// VersionV3 is the columnar delta-encoded format (optionally
// flate-compressed per frame), written by NewWriterWith. It shares
// v2's frame envelope and salvage semantics.
const VersionV3 uint32 = 3

const recordSize = 1 + 4 + 8 + 8 + 8 + 8

// Frame kinds (v2).
const (
	frameEvents byte = 1
	frameSymtab byte = 2
	frameEnd    byte = 3
)

const frameHeaderSize = 1 + 4 + 4

// maxFramePayload bounds a single frame so that a corrupted length
// field cannot demand a multi-gigabyte allocation.
const maxFramePayload = 1 << 24

// DefaultBatchRecords is how many event records accumulate before the
// Writer seals them into a checksummed frame. Larger batches amortize
// frame overhead; smaller batches lose less data when the monitored
// process dies mid-batch.
const DefaultBatchRecords = 512

// DefaultCheckpointFrames is how many event frames elapse between
// symbol-table checkpoints (when the Writer has a symtab attached).
const DefaultCheckpointFrames = 8

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// ErrCorrupt indicates a malformed trace file.
var ErrCorrupt = errors.New("trace: corrupt trace")

// SalvageInfo describes what salvage recovered from a damaged trace.
// A clean replay yields the zero value (Truncated false, nothing
// dropped).
type SalvageInfo struct {
	// EventsRecovered is the number of events delivered to the sink.
	EventsRecovered uint64
	// BytesDropped is the size of the unreadable region that salvage
	// skipped (always a suffix: salvage keeps the longest valid
	// prefix).
	BytesDropped uint64
	// Truncated reports that the trace did not end cleanly — the v2
	// end frame (or v1 trailer) was missing or damaged, typically
	// because the monitored process crashed mid-run.
	Truncated bool
}

// Salvaged reports whether anything was lost.
func (s *SalvageInfo) Salvaged() bool { return s.Truncated || s.BytesDropped > 0 }

func (s *SalvageInfo) String() string {
	if !s.Salvaged() {
		return "clean"
	}
	return fmt.Sprintf("salvaged %d events, dropped %d bytes (truncated=%v)",
		s.EventsRecovered, s.BytesDropped, s.Truncated)
}

// Writer streams events to an underlying writer in format v2 or v3.
// It implements event.Sink; I/O errors are sticky and surfaced by
// Close.
//
// Events accumulate into record batches that are sealed into CRC32-
// framed chunks every DefaultBatchRecords events; if the process dies
// between batches, everything already framed remains salvageable.
// Attach the run's symbol table with SetSymtab to also checkpoint it
// periodically, so function names survive a crash too.
type Writer struct {
	w       *bufio.Writer
	version uint32
	n       uint64 // events emitted
	err     error
	batch   []byte       // v2: pending, not-yet-framed records
	evs     event.Batch  // v3: pending, not-yet-framed events
	enc     []byte       // v3: columnar body scratch, reused per frame
	payload []byte       // v3: assembled frame payload scratch
	comp    bytes.Buffer // v3: compressed body scratch
	cdc     codec        // v3: nil = never compress
	frames  int          // event frames since the last symtab checkpoint
	sym     *event.Symtab
	// hdr is the frame-header scratch. A local array would be moved to
	// the heap on every writeFrame call (bufio may hand the slice to
	// the underlying io.Writer, so it escapes); keeping it on the
	// Writer makes the steady-state emit path allocation-free.
	hdr [frameHeaderSize]byte
}

// WriterOptions configure NewWriterWith.
type WriterOptions struct {
	// Version selects the trace format: Version (v2, fixed-width
	// records) or VersionV3 (columnar delta-encoded batches). Zero
	// means VersionV3 — callers reaching for options want the compact
	// format; NewWriter keeps writing v2.
	Version uint32
	// Compress flate-compresses each v3 event-frame body, for traces
	// headed to cold storage. The flag is per frame on the wire: a
	// frame is stored compressed only when that is actually smaller,
	// and replay output is identical either way. Only valid with v3.
	Compress bool

	// Deprecated: ignored; kept so perfbench compiles — remove in the next benchmark PR
	Workers int
}

// NewWriter writes the v2 header and returns a Writer.
func NewWriter(w io.Writer) (*Writer, error) {
	return NewWriterWith(w, WriterOptions{Version: Version})
}

// NewWriterWith writes the header for the selected format version and
// returns a Writer for it.
func NewWriterWith(w io.Writer, opts WriterOptions) (*Writer, error) {
	v := opts.Version
	if v == 0 {
		v = VersionV3
	}
	if v != Version && v != VersionV3 {
		return nil, fmt.Errorf("trace: cannot write format version %d", v)
	}
	if opts.Compress && v != VersionV3 {
		return nil, errors.New("trace: compression requires format v3")
	}
	bw := bufio.NewWriterSize(w, 1<<16)
	if err := writeHeader(bw, v); err != nil {
		return nil, err
	}
	tw := &Writer{w: bw, version: v}
	if v == Version {
		tw.batch = make([]byte, 0, DefaultBatchRecords*recordSize)
	}
	if opts.Compress {
		tw.cdc = &flateCodec{}
	}
	return tw, nil
}

// Version returns the format version this Writer emits.
func (tw *Writer) Version() uint32 { return tw.version }

func writeHeader(w io.Writer, version uint32) error {
	if _, err := w.Write(headerMagic[:]); err != nil {
		return err
	}
	var v [4]byte
	binary.LittleEndian.PutUint32(v[:], version)
	_, err := w.Write(v[:])
	return err
}

// SetSymtab attaches the run's live symbol table; the Writer snapshots
// it into the trace every DefaultCheckpointFrames event frames, so a
// crashed run still replays with symbolized functions. Without it,
// symbols are written only by Close.
func (tw *Writer) SetSymtab(sym *event.Symtab) { tw.sym = sym }

// Emit implements event.Sink.
func (tw *Writer) Emit(e event.Event) {
	if tw.err != nil {
		return
	}
	if tw.version == VersionV3 {
		tw.evs.Append(e)
		tw.n++
		if tw.evs.Len() >= DefaultBatchRecords {
			tw.flushBatch()
		}
		return
	}
	var rec [recordSize]byte
	b := rec[:]
	b[0] = byte(e.Type)
	binary.LittleEndian.PutUint32(b[1:], uint32(e.Fn))
	binary.LittleEndian.PutUint64(b[5:], e.Addr)
	binary.LittleEndian.PutUint64(b[13:], e.Value)
	binary.LittleEndian.PutUint64(b[21:], e.Old)
	binary.LittleEndian.PutUint64(b[29:], e.Size)
	tw.batch = append(tw.batch, b...)
	tw.n++
	if len(tw.batch) >= DefaultBatchRecords*recordSize {
		tw.flushBatch()
	}
}

// flushBatch seals the pending records into an event frame and, when
// due, follows it with a symtab checkpoint.
func (tw *Writer) flushBatch() {
	if tw.err != nil {
		return
	}
	switch {
	case tw.version == VersionV3 && tw.evs.Len() > 0:
		payload := tw.encodeEventsV3()
		if tw.err != nil {
			return
		}
		tw.writeFrame(frameEvents, payload)
		tw.evs.Reset()
	case tw.version == Version && len(tw.batch) > 0:
		tw.writeFrame(frameEvents, tw.batch)
		tw.batch = tw.batch[:0]
	default:
		return
	}
	tw.frames++
	if tw.sym != nil && tw.frames >= DefaultCheckpointFrames {
		tw.writeFrame(frameSymtab, encodeSymtab(tw.sym))
		tw.frames = 0
	}
}

// encodeEventsV3 assembles the pending batch into a v3 event-frame
// payload (flags | count | body), reusing the Writer's scratch
// buffers. With a codec attached, the body is stored compressed only
// when that is smaller — the flags byte records the choice per frame.
func (tw *Writer) encodeEventsV3() []byte {
	evs := tw.evs.Events()
	tw.enc = encodeColumns(tw.enc[:0], evs)
	body := tw.enc
	flags := codecRaw
	if tw.cdc != nil {
		tw.comp.Reset()
		if err := tw.cdc.Compress(&tw.comp, body); err != nil {
			tw.err = err
			return nil
		}
		if tw.comp.Len() < len(body) {
			body = tw.comp.Bytes()
			flags = tw.cdc.ID()
		}
	}
	var count [4]byte
	binary.LittleEndian.PutUint32(count[:], uint32(len(evs)))
	tw.payload = append(tw.payload[:0], flags)
	tw.payload = append(tw.payload, count[:]...)
	tw.payload = append(tw.payload, body...)
	return tw.payload
}

func (tw *Writer) writeFrame(kind byte, payload []byte) {
	if tw.err != nil {
		return
	}
	tw.hdr[0] = kind
	binary.LittleEndian.PutUint32(tw.hdr[1:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(tw.hdr[5:], crc32.Checksum(payload, crcTable))
	if _, err := tw.w.Write(tw.hdr[:]); err != nil {
		tw.err = err
		return
	}
	if _, err := tw.w.Write(payload); err != nil {
		tw.err = err
	}
}

// Events returns the number of events written so far.
func (tw *Writer) Events() uint64 { return tw.n }

// Flush seals any pending batch into a frame and flushes buffered
// bytes to the underlying writer, establishing a salvage point. The
// Writer remains usable.
func (tw *Writer) Flush() error {
	tw.flushBatch()
	if tw.err == nil {
		tw.err = tw.w.Flush()
	}
	return tw.err
}

// Close seals pending events, writes the final symbol-table
// checkpoint and the end frame, and flushes. The Writer is unusable
// afterwards. sym may be nil if SetSymtab was used (or there are no
// symbols).
func (tw *Writer) Close(sym *event.Symtab) error {
	if tw.err != nil {
		return tw.err
	}
	tw.flushBatch()
	if sym == nil {
		sym = tw.sym
	}
	tw.writeFrame(frameSymtab, encodeSymtab(sym))
	var end [8]byte
	binary.LittleEndian.PutUint64(end[:], tw.n)
	tw.writeFrame(frameEnd, end[:])
	if tw.err == nil {
		tw.err = tw.w.Flush()
	}
	return tw.err
}

// encodeSymtab renders a full symbol-table snapshot (count, then
// length-prefixed names). A nil symtab encodes as zero entries.
func encodeSymtab(sym *event.Symtab) []byte {
	count := 0
	if sym != nil {
		count = sym.Len()
	}
	size := 4
	for id := event.FnID(1); id <= event.FnID(count); id++ {
		size += 4 + len(sym.Name(id))
	}
	buf := make([]byte, 0, size)
	var u [4]byte
	binary.LittleEndian.PutUint32(u[:], uint32(count))
	buf = append(buf, u[:]...)
	for id := event.FnID(1); id <= event.FnID(count); id++ {
		name := sym.Name(id)
		binary.LittleEndian.PutUint32(u[:], uint32(len(name)))
		buf = append(buf, u[:]...)
		buf = append(buf, name...)
	}
	return buf
}

// decodeSymtab parses an encodeSymtab payload.
func decodeSymtab(payload []byte) (*event.Symtab, error) {
	if len(payload) < 4 {
		return nil, fmt.Errorf("%w: symtab count", ErrCorrupt)
	}
	count := binary.LittleEndian.Uint32(payload)
	rest := payload[4:]
	sym := event.NewSymtab()
	for i := uint32(0); i < count; i++ {
		if len(rest) < 4 {
			return nil, fmt.Errorf("%w: symtab entry", ErrCorrupt)
		}
		n := binary.LittleEndian.Uint32(rest)
		rest = rest[4:]
		if uint64(n) > uint64(len(rest)) {
			return nil, fmt.Errorf("%w: symtab name", ErrCorrupt)
		}
		sym.Intern(string(rest[:n]))
		rest = rest[n:]
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("%w: symtab trailing bytes", ErrCorrupt)
	}
	return sym, nil
}

func decodeRecord(b []byte) event.Event {
	return event.Event{
		Type:  event.Type(b[0]),
		Fn:    event.FnID(binary.LittleEndian.Uint32(b[1:])),
		Addr:  binary.LittleEndian.Uint64(b[5:]),
		Value: binary.LittleEndian.Uint64(b[13:]),
		Old:   binary.LittleEndian.Uint64(b[21:]),
		Size:  binary.LittleEndian.Uint64(b[29:]),
	}
}

// Stats describes the physical shape of a replayed trace: which
// format it was written in and what the bytes cost per event — the
// numbers the replay CLI surfaces and the trace-size regression gate
// checks. Populated via ReadOptions.Stats; in salvage mode it covers
// the recovered prefix.
type Stats struct {
	// Version is the format version from the trace header.
	Version uint32
	// TotalBytes is the size of the trace file.
	TotalBytes uint64
	// Events is the number of events delivered to the sink.
	Events uint64
	// EventFrames counts decoded event frames (framed formats only).
	EventFrames uint64
	// CompressedFrames counts v3 event frames stored flate-compressed.
	CompressedFrames uint64
	// StoredEventBytes sums the on-disk payload bytes of event frames.
	StoredEventBytes uint64
	// RawEventBytes sums what those payloads occupy uncompressed —
	// equal to StoredEventBytes when no frame is compressed.
	RawEventBytes uint64

	// Deprecated: ignored; kept so perfbench compiles — remove in the next benchmark PR
	ScannerStalls uint64
	// Deprecated: ignored; kept so perfbench compiles — remove in the next benchmark PR
	ResequencerStalls uint64
	// Deprecated: ignored; kept so perfbench compiles — remove in the next benchmark PR
	SpeculationHits uint64
	// Deprecated: ignored; kept so perfbench compiles — remove in the next benchmark PR
	SpeculationFallbacks uint64
	// Deprecated: ignored; kept so perfbench compiles — remove in the next benchmark PR
	PreResolveStalls uint64
	// Deprecated: ignored; kept so perfbench compiles — remove in the next benchmark PR
	MutatorStalls uint64
}

// BytesPerEvent is the trace's whole-file storage cost per event.
func (s *Stats) BytesPerEvent() float64 {
	if s.Events == 0 {
		return 0
	}
	return float64(s.TotalBytes) / float64(s.Events)
}

// CompressionRatio is raw-over-stored for the event payloads: 1 when
// nothing is compressed, >1 when the per-frame flate pass saved space.
func (s *Stats) CompressionRatio() float64 {
	if s.StoredEventBytes == 0 {
		return 1
	}
	return float64(s.RawEventBytes) / float64(s.StoredEventBytes)
}

// ReadOptions configure replay; the zero value is plain replay.
type ReadOptions struct {
	// Stats, when non-nil, is filled with the trace's format and size
	// accounting as replay proceeds.
	Stats *Stats
}

// Replay reads a trace (either format version) and delivers every
// event to sink in order. It returns the reconstructed symbol table
// and the number of events replayed. Replay is strict: any damage
// yields ErrCorrupt (events before the damage may already have been
// delivered). Use Salvage to recover the valid prefix of a damaged
// trace instead.
//
// Events are delivered a frame at a time through event.EmitAll: a sink
// implementing event.BatchSink receives each frame's records as one
// borrowed []event.Event batch instead of one Emit call per record.
// The frame-decode loop reuses its payload and batch buffers, so
// steady-state replay allocates nothing per frame.
func Replay(r io.ReadSeeker, sink event.Sink) (*event.Symtab, uint64, error) {
	return ReplayWith(r, sink, ReadOptions{})
}

// ReplayWith is Replay with options (see ReadOptions).
func ReplayWith(r io.ReadSeeker, sink event.Sink, opts ReadOptions) (*event.Symtab, uint64, error) {
	sym, n, _, err := replay(r, sink, false, opts)
	return sym, n, err
}

// Salvage reads a possibly-damaged trace, delivering every event from
// the longest valid prefix to sink, and reports what was recovered
// and what was lost. It fails only when not even the 8-byte header
// survives (nothing to salvage) or the version is unknown.
func Salvage(r io.ReadSeeker, sink event.Sink) (*event.Symtab, *SalvageInfo, error) {
	return SalvageWith(r, sink, ReadOptions{})
}

// SalvageWith is Salvage with options (see ReadOptions).
func SalvageWith(r io.ReadSeeker, sink event.Sink, opts ReadOptions) (*event.Symtab, *SalvageInfo, error) {
	sym, _, info, err := replay(r, sink, true, opts)
	return sym, info, err
}

func replay(r io.ReadSeeker, sink event.Sink, salvage bool, opts ReadOptions) (*event.Symtab, uint64, *SalvageInfo, error) {
	size, err := r.Seek(0, io.SeekEnd)
	if err != nil {
		return nil, 0, nil, err
	}
	if _, err := r.Seek(0, io.SeekStart); err != nil {
		return nil, 0, nil, err
	}
	var hdr [8]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, 0, nil, fmt.Errorf("%w: short header", ErrCorrupt)
	}
	if [4]byte(hdr[:4]) != headerMagic {
		return nil, 0, nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	v := binary.LittleEndian.Uint32(hdr[4:])
	if opts.Stats != nil {
		*opts.Stats = Stats{Version: v, TotalBytes: uint64(size)}
	}
	switch v {
	case VersionV1:
		return replayV1(r, sink, size, salvage, opts)
	case Version, VersionV3:
		return replayFramed(r, sink, v, size, salvage, opts)
	default:
		if opts.Stats != nil {
			opts.Stats.Version = 0
		}
		return nil, 0, nil, fmt.Errorf("trace: unsupported version %d", v)
	}
}

// frameMsg is one fully-validated, fully-decoded frame, or the reason
// decoding stopped (err != nil).
type frameMsg struct {
	kind       byte
	events     []event.Event // frameEvents: decoded records (borrowed from the decoder)
	sym        *event.Symtab // frameSymtab: decoded checkpoint
	declared   uint64        // frameEnd: writer's event count
	err        error         // corruption, message-compatible with strict mode
	stored     int           // frameEvents: on-disk payload bytes
	raw        int           // frameEvents: payload bytes before compression
	compressed bool          // frameEvents: body was stored flate-compressed
}

// frameDecoder reads, CRC-checks, and decodes v2/v3 frames in order.
// Its payload, batch, decompression and flate scratch are reused
// across frames, so steady-state frame decoding performs no
// allocation.
type frameDecoder struct {
	br      *bufio.Reader
	version uint32
	offset  int64 // consumed through the last fully-valid frame
	size    int64
	hdr     [frameHeaderSize]byte // scratch; a local would escape via io.ReadFull
	payload []byte                // raw frame payload, reused per frame
	events  event.Batch           // decoded records, reused per frame
	decomp  []byte                // v3: decompressed body scratch, reused per frame
	inflate flateCodec            // v3: reusable flate state
}

// next decodes the next frame. On success the decoder's offset moves
// past it; on failure the offset stays at the frame's start.
func (d *frameDecoder) next() frameMsg {
	var msg frameMsg
	hdr := d.hdr[:]
	if _, err := io.ReadFull(d.br, hdr); err != nil {
		if err == io.EOF && d.offset == d.size {
			// Clean EOF at a frame boundary but no end frame:
			// the writer was killed between batches.
			msg.err = errors.New("missing end frame")
		} else {
			msg.err = errors.New("truncated frame header")
		}
		return msg
	}
	kind := hdr[0]
	payloadLen := binary.LittleEndian.Uint32(hdr[1:])
	wantCRC := binary.LittleEndian.Uint32(hdr[5:])
	if payloadLen > maxFramePayload {
		msg.err = fmt.Errorf("implausible frame length %d", payloadLen)
		return msg
	}
	if cap(d.payload) < int(payloadLen) {
		// Grow geometrically: v3 frame payloads vary in size (delta
		// content determines length), and exact-fit growth would
		// reallocate on every slightly-larger frame.
		d.payload = make([]byte, max(int(payloadLen), 2*cap(d.payload)))
	}
	payload := d.payload[:payloadLen]
	if _, err := io.ReadFull(d.br, payload); err != nil {
		msg.err = errors.New("truncated frame payload")
		return msg
	}
	if crc32.Checksum(payload, crcTable) != wantCRC {
		msg.err = errors.New("frame checksum mismatch")
		return msg
	}
	d.decodePayload(kind, payload, &msg)
	if msg.err == nil {
		d.offset += int64(frameHeaderSize) + int64(payloadLen)
	}
	return msg
}

// decodePayload validates and decodes a CRC-valid payload into msg,
// filling msg.kind and the kind-specific fields, or msg.err.
func (d *frameDecoder) decodePayload(kind byte, payload []byte, msg *frameMsg) {
	msg.kind = kind
	switch kind {
	case frameEvents:
		if d.version == VersionV3 {
			msg.err = d.decodeEventsV3(payload, msg)
			return
		}
		if len(payload)%recordSize != 0 {
			msg.err = errors.New("ragged event frame")
			return
		}
		n := len(payload) / recordSize
		evs := d.events.Grow(n)
		for i := 0; i < n; i++ {
			evs[i] = decodeRecord(payload[i*recordSize : (i+1)*recordSize])
		}
		msg.events = evs
		msg.stored = len(payload)
		msg.raw = len(payload)
	case frameSymtab:
		s, err := decodeSymtab(payload)
		if err != nil {
			msg.err = errors.New("bad symtab checkpoint")
			return
		}
		msg.sym = s
	case frameEnd:
		if len(payload) != 8 {
			msg.err = errors.New("bad end frame")
			return
		}
		msg.declared = binary.LittleEndian.Uint64(payload)
	default:
		msg.err = fmt.Errorf("unknown frame kind %d", kind)
	}
}

// v3 event-frame payload prefix: flags u8 | count u32.
const v3EventHeaderSize = 5

// decodeEventsV3 decodes a CRC-valid v3 event-frame payload into the
// decoder's reusable batch. The CRC already vouches for the bytes, so
// any structural failure here (unknown codec, lying count, ragged
// columns) is writer-side damage and reported as corruption.
func (d *frameDecoder) decodeEventsV3(payload []byte, msg *frameMsg) error {
	if len(payload) < v3EventHeaderSize {
		return errors.New("short event frame")
	}
	flags := payload[0]
	count := binary.LittleEndian.Uint32(payload[1:])
	if count > maxFrameRecords {
		return fmt.Errorf("implausible event count %d", count)
	}
	body := payload[v3EventHeaderSize:]
	msg.stored = len(payload)
	msg.raw = len(payload)
	if flags != codecRaw {
		if flags != codecFlate {
			return fmt.Errorf("unknown event frame codec %d", flags)
		}
		var err error
		d.decomp, err = d.inflate.Decompress(d.decomp, body, int(count)*maxEncodedRecord+v3EventHeaderSize)
		if err != nil {
			return errors.New("bad compressed event frame")
		}
		body = d.decomp
		msg.raw = v3EventHeaderSize + len(body)
		msg.compressed = true
	}
	evs, err := decodeColumns(body, int(count), d.events.Grow(int(count)))
	if err != nil {
		return err
	}
	msg.events = evs
	return nil
}

// replayFramed walks the frame sequence of a v2 or v3 trace — the
// envelope is shared, only the event-frame payload decoding differs.
// Strict mode demands every frame intact plus a matching end frame;
// salvage mode stops at the first damaged frame and keeps everything
// before it.
func replayFramed(r io.ReadSeeker, sink event.Sink, version uint32, size int64, salvage bool, opts ReadOptions) (*event.Symtab, uint64, *SalvageInfo, error) {
	dec := &frameDecoder{
		br:      bufio.NewReaderSize(r, 1<<16),
		version: version,
		offset:  8,
		size:    size,
	}
	info := &SalvageInfo{Truncated: true}
	sym := event.NewSymtab()
	var replayed uint64
	var declared uint64

	corrupt := func(format string, args ...any) (*event.Symtab, uint64, *SalvageInfo, error) {
		if opts.Stats != nil {
			opts.Stats.Events = replayed
		}
		if salvage {
			info.EventsRecovered = replayed
			info.BytesDropped = uint64(size - dec.offset)
			return sym, replayed, info, nil
		}
		return sym, replayed, nil, fmt.Errorf("%w: "+format, append([]any{ErrCorrupt}, args...)...)
	}

	for sawEnd := false; !sawEnd; {
		msg := dec.next()
		if msg.err != nil {
			return corrupt("%s", msg.err)
		}
		switch msg.kind {
		case frameEvents:
			event.EmitAll(sink, msg.events)
			replayed += uint64(len(msg.events))
			if st := opts.Stats; st != nil {
				st.EventFrames++
				st.StoredEventBytes += uint64(msg.stored)
				st.RawEventBytes += uint64(msg.raw)
				if msg.compressed {
					st.CompressedFrames++
				}
			}
		case frameSymtab:
			sym = msg.sym
		case frameEnd:
			declared = msg.declared
			sawEnd = true
		}
	}
	if opts.Stats != nil {
		opts.Stats.Events = replayed
	}
	if declared != replayed {
		return corrupt("end frame declares %d events, replayed %d", declared, replayed)
	}
	if offset := dec.offset; offset != size {
		// Bytes after a valid end frame: a concatenation accident or
		// scribbling. The prefix through the end frame is intact.
		if salvage {
			info.Truncated = false
			info.EventsRecovered = replayed
			info.BytesDropped = uint64(size - offset)
			return sym, replayed, info, nil
		}
		return sym, replayed, nil, fmt.Errorf("%w: %d trailing bytes after end frame", ErrCorrupt, size-offset)
	}
	info.Truncated = false
	info.EventsRecovered = replayed
	return sym, replayed, info, nil
}

// replayV1 reads the legacy trailer-based format. Strict mode is the
// original seed behaviour. Salvage mode falls back to a prefix scan
// when the trailer is unusable: with no framing or checksums in v1,
// every complete 37-byte record after the header is reinterpreted as
// an event and the symbol table is lost.
func replayV1(r io.ReadSeeker, sink event.Sink, size int64, salvage bool, opts ReadOptions) (*event.Symtab, uint64, *SalvageInfo, error) {
	v1Stats := func(n uint64) {
		if opts.Stats != nil {
			opts.Stats.Events = n
			opts.Stats.StoredEventBytes = n * recordSize
			opts.Stats.RawEventBytes = n * recordSize
		}
	}
	sym, nEvents, symStart, err := readV1Trailer(r, size)
	if err != nil {
		if !salvage {
			return nil, 0, nil, err
		}
		s, n, info, err := salvageV1Prefix(r, sink, size)
		v1Stats(n)
		return s, n, info, err
	}
	// Replay events.
	if _, err := r.Seek(8, io.SeekStart); err != nil {
		return nil, 0, nil, err
	}
	er := bufio.NewReaderSize(io.LimitReader(r, int64(nEvents)*recordSize), 1<<16)
	var rec [recordSize]byte
	for i := uint64(0); i < nEvents; i++ {
		if _, err := io.ReadFull(er, rec[:]); err != nil {
			v1Stats(i)
			if salvage {
				return sym, i, &SalvageInfo{
					EventsRecovered: i,
					BytesDropped:    uint64(symStart - 8 - int64(i)*recordSize),
					Truncated:       true,
				}, nil
			}
			return sym, i, nil, fmt.Errorf("%w: truncated events", ErrCorrupt)
		}
		sink.Emit(decodeRecord(rec[:]))
	}
	v1Stats(nEvents)
	return sym, nEvents, &SalvageInfo{EventsRecovered: nEvents}, nil
}

// readV1Trailer locates and validates the v1 trailer, returning the
// symbol table, the declared event count, and the symtab start offset.
func readV1Trailer(r io.ReadSeeker, size int64) (*event.Symtab, uint64, int64, error) {
	end := size - 20
	if end < 8 {
		return nil, 0, 0, fmt.Errorf("%w: missing trailer", ErrCorrupt)
	}
	if _, err := r.Seek(end, io.SeekStart); err != nil {
		return nil, 0, 0, fmt.Errorf("%w: missing trailer", ErrCorrupt)
	}
	var tail [20]byte
	if _, err := io.ReadFull(r, tail[:]); err != nil {
		return nil, 0, 0, fmt.Errorf("%w: short trailer", ErrCorrupt)
	}
	if [4]byte(tail[16:]) != trailerMagic {
		return nil, 0, 0, fmt.Errorf("%w: bad trailer magic", ErrCorrupt)
	}
	symLen := binary.LittleEndian.Uint64(tail[0:])
	nEvents := binary.LittleEndian.Uint64(tail[8:])
	if symLen > uint64(end) {
		return nil, 0, 0, fmt.Errorf("%w: implausible symtab length", ErrCorrupt)
	}
	symStart := end - int64(symLen)
	if symStart < 8 {
		return nil, 0, 0, fmt.Errorf("%w: implausible symtab length", ErrCorrupt)
	}
	if nEvents > uint64(symStart-8)/recordSize {
		return nil, 0, 0, fmt.Errorf("%w: implausible event count", ErrCorrupt)
	}
	if int64(8)+int64(nEvents)*recordSize != symStart {
		return nil, 0, 0, fmt.Errorf("%w: event region size mismatch", ErrCorrupt)
	}
	// Read symbol table.
	if _, err := r.Seek(symStart, io.SeekStart); err != nil {
		return nil, 0, 0, err
	}
	payload := make([]byte, symLen)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, 0, 0, fmt.Errorf("%w: short symtab", ErrCorrupt)
	}
	sym, err := decodeSymtab(payload)
	if err != nil {
		return nil, 0, 0, err
	}
	return sym, nEvents, symStart, nil
}

// salvageV1Prefix recovers what it can from a v1 trace whose trailer
// is gone: every complete record after the header.
func salvageV1Prefix(r io.ReadSeeker, sink event.Sink, size int64) (*event.Symtab, uint64, *SalvageInfo, error) {
	if _, err := r.Seek(8, io.SeekStart); err != nil {
		return nil, 0, nil, err
	}
	body := size - 8
	n := uint64(body / recordSize)
	er := bufio.NewReaderSize(io.LimitReader(r, int64(n)*recordSize), 1<<16)
	var rec [recordSize]byte
	for i := uint64(0); i < n; i++ {
		if _, err := io.ReadFull(er, rec[:]); err != nil {
			return event.NewSymtab(), i, &SalvageInfo{
				EventsRecovered: i,
				BytesDropped:    uint64(body - int64(i)*recordSize),
				Truncated:       true,
			}, nil
		}
		sink.Emit(decodeRecord(rec[:]))
	}
	return event.NewSymtab(), n, &SalvageInfo{
		EventsRecovered: n,
		BytesDropped:    uint64(body % recordSize),
		Truncated:       true,
	}, nil
}

// WriterV1 writes the legacy v1 format; kept for compatibility tests
// and for interoperating with tools that predate v2.
type WriterV1 struct {
	w   *bufio.Writer
	n   uint64
	err error
	buf [recordSize]byte
}

// NewWriterV1 writes a v1 header and returns a legacy writer.
func NewWriterV1(w io.Writer) (*WriterV1, error) {
	bw := bufio.NewWriterSize(w, 1<<16)
	if err := writeHeader(bw, VersionV1); err != nil {
		return nil, err
	}
	return &WriterV1{w: bw}, nil
}

// Emit implements event.Sink.
func (tw *WriterV1) Emit(e event.Event) {
	if tw.err != nil {
		return
	}
	b := tw.buf[:]
	b[0] = byte(e.Type)
	binary.LittleEndian.PutUint32(b[1:], uint32(e.Fn))
	binary.LittleEndian.PutUint64(b[5:], e.Addr)
	binary.LittleEndian.PutUint64(b[13:], e.Value)
	binary.LittleEndian.PutUint64(b[21:], e.Old)
	binary.LittleEndian.PutUint64(b[29:], e.Size)
	if _, err := tw.w.Write(b); err != nil {
		tw.err = err
		return
	}
	tw.n++
}

// Events returns the number of events written so far.
func (tw *WriterV1) Events() uint64 { return tw.n }

// Close writes the symbol-table trailer and flushes. The Writer is
// unusable afterwards.
func (tw *WriterV1) Close(sym *event.Symtab) error {
	if tw.err != nil {
		return tw.err
	}
	payload := encodeSymtab(sym)
	if _, err := tw.w.Write(payload); err != nil {
		tw.err = err
		return tw.err
	}
	var tail [20]byte
	binary.LittleEndian.PutUint64(tail[0:], uint64(len(payload)))
	binary.LittleEndian.PutUint64(tail[8:], tw.n)
	copy(tail[16:], trailerMagic[:])
	if _, err := tw.w.Write(tail[:]); err != nil {
		tw.err = err
		return tw.err
	}
	tw.err = tw.w.Flush()
	return tw.err
}
