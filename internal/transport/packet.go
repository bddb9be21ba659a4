// Package transport carries heartbeats over real networks (UDP) and
// exposes the monitoring service over HTTP, turning the library into the
// generic failure-detection service the paper advocates: monitored
// processes run a Sender, the monitoring host runs a Listener feeding a
// service.Monitor, and applications query suspicion levels over HTTP with
// their own thresholds.
package transport

import (
	"errors"
	"fmt"
	"time"

	"accrual/internal/core"
)

// Wire format (big endian):
//
//	offset  size  field
//	0       4     magic "AFD1"
//	4       1     version (1)
//	5       1     id length n (1..255)
//	6       n     process id (UTF-8)
//	6+n     8     sequence number
//	14+n    8     send time, Unix nanoseconds
const (
	packetVersion = 1
	headerLen     = 6
	trailerLen    = 16
	maxIDLen      = 255
	// MaxPacketSize is the largest encoded heartbeat packet.
	MaxPacketSize = headerLen + maxIDLen + trailerLen
)

var packetMagic = [4]byte{'A', 'F', 'D', '1'}

// Errors returned by the packet codec. The decode errors are typed per
// failure mode so the listener can count dispositions separately, and
// all of them wrap ErrBadPacket so existing errors.Is checks keep
// matching.
var (
	// ErrBadPacket is wrapped by every decoding error.
	ErrBadPacket = errors.New("transport: bad packet")
	// ErrPacketShort marks a datagram below the minimum packet length.
	ErrPacketShort = fmt.Errorf("%w: too short", ErrBadPacket)
	// ErrBadMagic marks a datagram whose magic bytes mismatch.
	ErrBadMagic = fmt.Errorf("%w: bad magic", ErrBadPacket)
	// ErrBadVersion marks a datagram with an unsupported format version.
	ErrBadVersion = fmt.Errorf("%w: unsupported version", ErrBadPacket)
	// ErrLengthMismatch marks a datagram whose length disagrees with its
	// declared id length (or whose id is empty).
	ErrLengthMismatch = fmt.Errorf("%w: length mismatch", ErrBadPacket)
	// ErrIDTooLong is returned when a process id exceeds 255 bytes.
	ErrIDTooLong = errors.New("transport: process id too long")
	// ErrEmptyID is returned when a process id is empty. An empty id is a
	// configuration mistake, not an oversized one, so it gets its own
	// error instead of a nonsensical "id too long: 0 bytes".
	ErrEmptyID = errors.New("transport: empty process id")
)

// MarshalHeartbeat encodes a heartbeat for the wire. Only From, Seq and
// Sent are carried; Arrived is assigned by the receiver.
func MarshalHeartbeat(hb core.Heartbeat) ([]byte, error) {
	return AppendHeartbeat(nil, hb)
}

// AppendHeartbeat appends the wire encoding of hb to dst and returns the
// extended slice — the allocation-free variant of MarshalHeartbeat for
// senders that reuse one encode buffer across beats (pass dst[:0]).
func AppendHeartbeat(dst []byte, hb core.Heartbeat) ([]byte, error) {
	if len(hb.From) == 0 {
		return dst, ErrEmptyID
	}
	if len(hb.From) > maxIDLen {
		return dst, fmt.Errorf("%w: %d bytes", ErrIDTooLong, len(hb.From))
	}
	dst = append(dst, packetMagic[:]...)
	dst = append(dst, packetVersion)
	// The (idlen, id, seq, sent) tail is the exact record format AFB1
	// batch frames repeat per beat.
	return appendBeatRecord(dst, hb), nil
}

// unixNano converts a non-zero wire timestamp back to time.Time.
func unixNano(nanos int64) time.Time { return time.Unix(0, nanos) }

// UnmarshalHeartbeat decodes a wire packet. The returned heartbeat has a
// zero Arrived time; the caller stamps it on receipt.
func UnmarshalHeartbeat(buf []byte) (core.Heartbeat, error) {
	if err := checkSingle(buf); err != nil {
		return core.Heartbeat{}, err
	}
	id, hb, _ := decodeRecord(buf, headerLen-1)
	hb.From = string(id)
	return hb, nil
}

// checkSingle validates an AFD1 datagram: header, and the one record —
// the record an AFB1 frame repeats, starting at headerLen-1 — filling
// the datagram exactly.
func checkSingle(buf []byte) error {
	if len(buf) < headerLen+1+trailerLen {
		return fmt.Errorf("%w: %d bytes", ErrPacketShort, len(buf))
	}
	if [4]byte(buf[0:4]) != packetMagic {
		return ErrBadMagic
	}
	if buf[4] != packetVersion {
		return fmt.Errorf("%w: version %d", ErrBadVersion, buf[4])
	}
	if n := int(buf[5]); n == 0 || len(buf) != headerLen+n+trailerLen {
		return fmt.Errorf("%w: id %d, packet %d", ErrLengthMismatch, n, len(buf))
	}
	return nil
}
