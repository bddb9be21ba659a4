package transport

import (
	"encoding/binary"
	"errors"
	"fmt"

	"accrual/internal/core"
	"accrual/internal/transport/intern"
)

// Batch wire format (big endian). One AFB1 frame coalesces 1..N
// heartbeats behind a single shared header, so a sender heartbeating for
// many local processes — or holding several ticks' worth of beats for a
// flush window — pays one datagram and the listener one read syscall for
// the whole batch. Kumar & Welch's ◇P-on-ADD-channels construction shows
// bounded-size composite heartbeat messages preserve eventual-perfect
// detection; this is that composite message.
//
//	offset  size  field
//	0       4     magic "AFB1"
//	4       1     version (1)
//	5       2     beat count N (1..MaxBatchBeats)
//	7       ...   N records, each:
//	                1  id length n (1..255)
//	                n  process id (UTF-8)
//	                8  sequence number
//	                8  send time, Unix nanoseconds
//
// A decoder either accepts the whole frame or rejects the whole frame:
// a truncated or corrupted batch yields ErrLengthMismatch and zero
// heartbeats, never a half-applied prefix. A single-beat AFD1 datagram
// carries the same record once behind its own header; the listener
// decodes it as the one-record case of a frame.
const (
	batchVersion = 1
	// batchHeaderLen is magic + version + uint16 count.
	batchHeaderLen = 7
	// batchRecordOverhead is the per-beat framing beyond the id bytes.
	batchRecordOverhead = 1 + trailerLen
	// MaxBatchBeats bounds the beat count one frame may carry. It is a
	// decode-side cap too, so a hostile count field cannot make the
	// listener reserve pathological scratch space.
	MaxBatchBeats = 4096
	// MaxBatchPacketSize is the largest AFB1 frame a listener accepts —
	// the maximum UDP payload over IPv4. Senders flush well below this
	// (see BatchEncoder.Add), but the read buffer must fit the worst
	// case a peer could emit.
	MaxBatchPacketSize = 65507
)

var batchMagic = [4]byte{'A', 'F', 'B', '1'}

// ErrBatchFull is returned by BatchEncoder.Add when the frame already
// holds the configured maximum number of beats or the next record would
// overflow the maximum frame size. The caller flushes and retries.
var ErrBatchFull = errors.New("transport: batch frame full")

// IsBatchFrame reports whether buf starts with the AFB1 batch magic —
// the dispatch test the listener applies before choosing a decoder.
func IsBatchFrame(buf []byte) bool {
	return len(buf) >= 4 && [4]byte(buf[0:4]) == batchMagic
}

// BatchEncoder builds AFB1 frames into a single reusable buffer:
// Reset, Add beats until ErrBatchFull (or until the caller decides to
// flush), then Bytes. The encoder never allocates after its buffer has
// grown to the high-water frame size, which is what keeps a coalescing
// sender's steady state at zero allocations per beat.
type BatchEncoder struct {
	buf      []byte
	count    int
	maxBeats int
}

// NewBatchEncoder returns an encoder that accepts up to maxBeats beats
// per frame (clamped to 1..MaxBatchBeats).
func NewBatchEncoder(maxBeats int) *BatchEncoder {
	if maxBeats < 1 {
		maxBeats = 1
	}
	if maxBeats > MaxBatchBeats {
		maxBeats = MaxBatchBeats
	}
	e := &BatchEncoder{maxBeats: maxBeats}
	e.Reset()
	return e
}

// Reset drops any accumulated beats and re-initialises the header.
func (e *BatchEncoder) Reset() {
	if cap(e.buf) < batchHeaderLen {
		e.buf = make([]byte, batchHeaderLen, 512)
	}
	e.buf = e.buf[:batchHeaderLen]
	copy(e.buf[0:4], batchMagic[:])
	e.buf[4] = batchVersion
	e.buf[5], e.buf[6] = 0, 0
	e.count = 0
}

// Add appends one heartbeat record. Only From, Seq and Sent are carried;
// Arrived is assigned by the receiver. It returns ErrBatchFull when the
// frame cannot take another record (flush and retry), ErrEmptyID or
// ErrIDTooLong for an invalid id.
func (e *BatchEncoder) Add(hb core.Heartbeat) error {
	if len(hb.From) == 0 {
		return ErrEmptyID
	}
	if len(hb.From) > maxIDLen {
		return fmt.Errorf("%w: %d bytes", ErrIDTooLong, len(hb.From))
	}
	if e.count >= e.maxBeats ||
		len(e.buf)+batchRecordOverhead+len(hb.From) > MaxBatchPacketSize {
		return ErrBatchFull
	}
	e.buf = appendBeatRecord(e.buf, hb)
	e.count++
	return nil
}

// Count returns the number of beats currently in the frame.
func (e *BatchEncoder) Count() int { return e.count }

// Len returns the encoded frame size so far, header included.
func (e *BatchEncoder) Len() int { return len(e.buf) }

// Bytes finalises the count field and returns the encoded frame. The
// returned slice aliases the encoder's buffer: it is valid until the
// next Reset or Add. A frame with zero beats returns nil (nothing worth
// a datagram).
func (e *BatchEncoder) Bytes() []byte {
	if e.count == 0 {
		return nil
	}
	binary.BigEndian.PutUint16(e.buf[5:7], uint16(e.count))
	return e.buf
}

// appendBeatRecord appends one (idlen, id, seq, sent) record — the
// format shared verbatim with the AFD1 trailer, so both codecs stay in
// lockstep.
func appendBeatRecord(dst []byte, hb core.Heartbeat) []byte {
	dst = append(dst, byte(len(hb.From)))
	dst = append(dst, hb.From...)
	var tail [trailerLen]byte
	binary.BigEndian.PutUint64(tail[0:8], hb.Seq)
	var sent int64
	if !hb.Sent.IsZero() {
		sent = hb.Sent.UnixNano()
	}
	binary.BigEndian.PutUint64(tail[8:16], uint64(sent))
	return append(dst, tail[:]...)
}

// decodeRecord decodes the (idlen, id, seq, sent) record at buf[off:] —
// the record an AFB1 frame repeats and an AFD1 datagram carries once —
// into its id bytes, which alias buf, and a beat without From, and
// returns the offset just past it. The caller has validated the record
// (batchRecords, checkSingle).
func decodeRecord(buf []byte, off int) (id []byte, hb core.Heartbeat, next int) {
	n := int(buf[off])
	id = buf[off+1 : off+1+n]
	off += 1 + n
	hb.Seq = binary.BigEndian.Uint64(buf[off:])
	if sentNano := int64(binary.BigEndian.Uint64(buf[off+8:])); sentNano != 0 {
		hb.Sent = unixNano(sentNano)
	}
	return id, hb, off + trailerLen
}

// batchRecords validates an AFB1 frame whole — header, every record in
// bounds with a non-empty id, no trailing bytes — and returns its record
// count; the records start at batchHeaderLen. Validation precedes any
// decoding, so a truncated or corrupted frame never half-applies.
func batchRecords(buf []byte) (int, error) {
	if len(buf) < batchHeaderLen {
		return 0, fmt.Errorf("%w: %d bytes", ErrPacketShort, len(buf))
	}
	if [4]byte(buf[0:4]) != batchMagic {
		return 0, ErrBadMagic
	}
	if buf[4] != batchVersion {
		return 0, fmt.Errorf("%w: batch version %d", ErrBadVersion, buf[4])
	}
	count := int(binary.BigEndian.Uint16(buf[5:7]))
	if count == 0 || count > MaxBatchBeats {
		return 0, fmt.Errorf("%w: batch count %d", ErrLengthMismatch, count)
	}
	off := batchHeaderLen
	for i := 0; i < count; i++ {
		if off >= len(buf) || buf[off] == 0 || off+1+int(buf[off])+trailerLen > len(buf) {
			return 0, fmt.Errorf("%w: batch record %d/%d (%d bytes left)",
				ErrLengthMismatch, i+1, count, len(buf)-off)
		}
		off += 1 + int(buf[off]) + trailerLen
	}
	if off != len(buf) {
		return 0, fmt.Errorf("%w: %d trailing bytes after %d records",
			ErrLengthMismatch, len(buf)-off, count)
	}
	return count, nil
}

// MarshalBatch encodes beats as one AFB1 frame — the convenience wrapper
// over BatchEncoder for tests and one-shot callers; hot paths hold an
// encoder instead.
func MarshalBatch(beats []core.Heartbeat) ([]byte, error) {
	if len(beats) == 0 {
		return nil, fmt.Errorf("%w: empty batch", ErrLengthMismatch)
	}
	e := NewBatchEncoder(len(beats))
	for _, hb := range beats {
		if err := e.Add(hb); err != nil {
			return nil, err
		}
	}
	// Copy out: the encoder is function-local, but callers expect an
	// independent slice.
	return append([]byte(nil), e.Bytes()...), nil
}

// UnmarshalBatch decodes an AFB1 frame, appending the beats to dst and
// returning the extended slice. Decoding is all-or-nothing: on any error
// dst is returned unchanged, so a truncated frame can never half-apply.
// Arrived is zero on every returned beat; the caller stamps it.
//
// A non-nil interner canonicalises the id strings, which makes steady
// state decoding (all ids seen before) allocation-free; with nil each id
// is freshly allocated.
func UnmarshalBatch(buf []byte, dst []core.Heartbeat, ids *IDInterner) ([]core.Heartbeat, error) {
	count, err := batchRecords(buf)
	if err != nil {
		return dst, err
	}
	off := batchHeaderLen
	for i := 0; i < count; i++ {
		id, hb, next := decodeRecord(buf, off)
		off = next
		hb.From = ids.Intern(id)
		dst = append(dst, hb)
	}
	return dst, nil
}

// IDInterner canonicalises id byte strings so that repeated decoding of
// the same ids reuses one string allocation: a concurrency-safe
// intern.Table, capacity-bounded (configurable, default
// intern.DefaultCapacity) with counted overflow. The listener keeps one
// for AFG1 digest ids; the registry does not intern heartbeat ids. The
// name survives as an alias so codec signatures and existing callers
// read unchanged.
type IDInterner = intern.Table

// NewIDInterner returns an empty interner with the default capacity.
func NewIDInterner() *IDInterner { return intern.New() }
