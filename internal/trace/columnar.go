// Columnar event-batch encoding for trace format v3.
//
// A v2 event frame stores its records row-major at fixed width: 37
// bytes per event, with heap addresses and PCs written at full u64
// width every time even though consecutive events cluster tightly (the
// same locality the addrindex pagemap exploits on the hot path). v3
// turns each frame's batch on its side — one array per Event field —
// and encodes every numeric column as delta-from-previous + varint,
// zigzag-mapped so negative deltas stay short:
//
//	types   n × u8                  (raw; the enum is a byte already)
//	fns     n × zigzag-varint ΔFn
//	addrs   n × zigzag-varint ΔAddr
//	values  n × zigzag-varint ΔValue
//	olds    n × zigzag-varint ΔOld
//	sizes   n × zigzag-varint ΔSize
//
// Each column's delta chain restarts at 0 at the frame boundary, so a
// frame decodes with no state from its predecessors — the property
// salvage needs to keep its keep-every-valid-prefix semantics.
// Monotonic streams (ticks, sequential addresses) collapse to one
// byte per event; an untouched column (Old on an Alloc-heavy frame)
// is a run of zero bytes, which is also what makes the optional flate
// pass effective.
package trace

import (
	"encoding/binary"
	"errors"
	"math/bits"

	"heapmd/internal/event"
)

// maxFrameRecords bounds the record count a v3 event frame may
// declare, so a corrupted count cannot demand a huge allocation. The
// writer seals batches at DefaultBatchRecords; the decoder accepts a
// generous multiple for forward compatibility.
const maxFrameRecords = 1 << 16

// maxEncodedRecord is the worst-case encoded size of one record: the
// type byte plus five maximal varints. It bounds how large a frame
// body can legitimately inflate to.
const maxEncodedRecord = 1 + 5*binary.MaxVarintLen64

var errBadColumn = errors.New("bad column encoding")

// zigzag folds a signed delta into an unsigned value with small
// magnitudes near zero: 0,-1,1,-2,2… → 0,1,2,3,4…
func zigzag(d int64) uint64 { return uint64(d<<1) ^ uint64(d>>63) }

func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// appendDelta appends zigzag(cur-prev) as a varint and returns the
// new current value for the chain. Deltas are computed with wrapping
// u64 subtraction, so any pair of values round-trips exactly.
func appendDelta(dst []byte, prev, cur uint64) ([]byte, uint64) {
	return binary.AppendUvarint(dst, zigzag(int64(cur-prev))), cur
}

// uvarintAt decodes a multi-byte varint from body at pos and returns
// the value and the position after it (or -1 on truncation/
// overflow). It is the slow path behind the single-byte test the
// column loops inline (this function's cost is far past the inliner's
// budget; the call is paid only by multi-byte deltas). When at least
// eight bytes remain, varints up to eight bytes decode branchlessly
// from a single 64-bit load: find the terminator byte with
// TrailingZeros on the inverted continuation bits, then compact the
// 7-bit groups with three shift-merge steps. Column data mixes varint
// widths value by value, so a branchy length chain would mispredict
// constantly; the fixed ~dozen ALU ops win. binary.Uvarint handles
// 9–10 byte varints and the frame's last few bytes.
func uvarintAt(body []byte, pos int) (uint64, int) {
	if pos+8 <= len(body) {
		x := binary.LittleEndian.Uint64(body[pos:])
		if inv := ^x & 0x8080808080808080; inv != 0 {
			n := bits.TrailingZeros64(inv) >> 3 // 0-based terminator byte index
			x &= ^uint64(0) >> ((7 - n) << 3)   // drop bytes past the terminator
			return compact56(x), pos + n + 1
		}
		// All eight loaded bytes carry continuation bits: a 9- or
		// 10-byte varint, the norm for high-entropy columns (stored
		// heap words). Finish from the next one or two bytes rather
		// than re-walking all ten in binary.Uvarint.
		if pos+10 <= len(body) {
			lo := compact56(x)
			if b8 := body[pos+8]; b8 < 0x80 {
				return lo | uint64(b8)<<56, pos + 9
			} else if b9 := body[pos+9]; b9 <= 1 {
				return lo | uint64(b8&0x7f)<<56 | uint64(b9)<<63, pos + 10
			}
			return 0, -1 // 10th byte overflows 64 bits
		}
	}
	u, w := binary.Uvarint(body[pos:])
	if w <= 0 {
		return 0, -1
	}
	return u, pos + w
}

// compact56 extracts the 7-bit payload groups of up to eight varint
// bytes in x into a 56-bit value: mask the continuation bits, then
// merge adjacent groups in three shift steps (8×7 → 4×14 → 2×28 →
// 1×56 bits).
func compact56(x uint64) uint64 {
	x &= 0x7f7f7f7f7f7f7f7f
	x = x&0x007f007f007f007f | (x>>8&0x007f007f007f007f)<<7
	x = x&0x00003fff00003fff | (x>>16&0x00003fff00003fff)<<14
	x = x&0x000000000fffffff | (x>>32&0x000000000fffffff)<<28
	return x
}

// encodeColumns appends the columnar encoding of evs to dst.
func encodeColumns(dst []byte, evs []event.Event) []byte {
	for i := range evs {
		dst = append(dst, byte(evs[i].Type))
	}
	var prev uint64
	for i := range evs {
		dst, prev = appendDelta(dst, prev, uint64(evs[i].Fn))
	}
	prev = 0
	for i := range evs {
		dst, prev = appendDelta(dst, prev, evs[i].Addr)
	}
	prev = 0
	for i := range evs {
		dst, prev = appendDelta(dst, prev, evs[i].Value)
	}
	prev = 0
	for i := range evs {
		dst, prev = appendDelta(dst, prev, evs[i].Old)
	}
	prev = 0
	for i := range evs {
		dst, prev = appendDelta(dst, prev, evs[i].Size)
	}
	return dst
}

// decodeColumns reconstructs count events from a columnar body into
// evs (len == count, provided by the caller's reusable batch). The
// body must be consumed exactly; leftovers or short columns are
// corruption. Each column loop is written out straight-line — one
// indirect call per value would dominate a path pushing tens of
// millions of events per second.
func decodeColumns(body []byte, count int, evs []event.Event) ([]event.Event, error) {
	if len(body) < count {
		return nil, errBadColumn
	}
	for i := 0; i < count; i++ {
		evs[i] = event.Event{Type: event.Type(body[i])}
	}
	// Each column loop inlines the single-byte case — the dominant
	// encoding for clustered deltas — and calls uvarintAt only for
	// multi-byte varints.
	pos := count
	var prev uint64
	var u uint64
	for i := 0; i < count; i++ {
		if pos < len(body) && body[pos] < 0x80 {
			u, pos = uint64(body[pos]), pos+1
		} else if u, pos = uvarintAt(body, pos); pos < 0 {
			return nil, errBadColumn
		}
		prev += uint64(unzigzag(u))
		evs[i].Fn = event.FnID(uint32(prev))
	}
	prev = 0
	for i := 0; i < count; i++ {
		if pos < len(body) && body[pos] < 0x80 {
			u, pos = uint64(body[pos]), pos+1
		} else if u, pos = uvarintAt(body, pos); pos < 0 {
			return nil, errBadColumn
		}
		prev += uint64(unzigzag(u))
		evs[i].Addr = prev
	}
	prev = 0
	for i := 0; i < count; i++ {
		if pos < len(body) && body[pos] < 0x80 {
			u, pos = uint64(body[pos]), pos+1
		} else if u, pos = uvarintAt(body, pos); pos < 0 {
			return nil, errBadColumn
		}
		prev += uint64(unzigzag(u))
		evs[i].Value = prev
	}
	prev = 0
	for i := 0; i < count; i++ {
		if pos < len(body) && body[pos] < 0x80 {
			u, pos = uint64(body[pos]), pos+1
		} else if u, pos = uvarintAt(body, pos); pos < 0 {
			return nil, errBadColumn
		}
		prev += uint64(unzigzag(u))
		evs[i].Old = prev
	}
	prev = 0
	for i := 0; i < count; i++ {
		if pos < len(body) && body[pos] < 0x80 {
			u, pos = uint64(body[pos]), pos+1
		} else if u, pos = uvarintAt(body, pos); pos < 0 {
			return nil, errBadColumn
		}
		prev += uint64(unzigzag(u))
		evs[i].Size = prev
	}
	if pos != len(body) {
		return nil, errBadColumn
	}
	return evs, nil
}
