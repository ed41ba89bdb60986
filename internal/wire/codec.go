// Package wire defines the avdb network protocol: every message exchanged
// between sites (AV transfer requests and grants, Delay-Update delta
// synchronization, Immediate-Update two-phase-commit traffic, routed
// updates and client reads) and a compact hand-rolled binary codec for
// them.
//
// The encoding is deliberately simple and explicit: unsigned varints for
// integers (zig-zag for signed), length-prefixed byte strings, and a
// one-byte kind tag selecting the message type inside an envelope. There
// is no reflection and no allocation beyond the output buffer, so the
// codec is cheap enough that message cost in experiments is dominated by
// the transport, as it would be in a real deployment.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// Codec errors.
var (
	ErrTruncated = errors.New("wire: truncated message")
	ErrTooLong   = errors.New("wire: length prefix exceeds remaining data")
	ErrBadKind   = errors.New("wire: unknown message kind")
	// ErrBadVersion reports an envelope from a newer (or corrupted) codec
	// revision than this build understands.
	ErrBadVersion = errors.New("wire: unsupported envelope version")
	// ErrNonCanonical reports an optional field encoded with its default
	// value; the canonical encoding omits it entirely.
	ErrNonCanonical = errors.New("wire: non-canonical optional field")
)

// appendUvarint appends v to b in unsigned varint encoding.
func appendUvarint(b []byte, v uint64) []byte {
	return binary.AppendUvarint(b, v)
}

// appendOptUvarint appends v as an optional trailing field: omitted when
// zero, so a message without it encodes exactly as one that predates it.
func appendOptUvarint(b []byte, v uint64) []byte {
	if v == 0 {
		return b
	}
	return appendUvarint(b, v)
}

// appendVarint appends v to b in zig-zag varint encoding.
func appendVarint(b []byte, v int64) []byte {
	return binary.AppendVarint(b, v)
}

// appendString appends a length-prefixed string.
func appendString(b []byte, s string) []byte {
	b = appendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// appendBool appends a single 0/1 byte.
func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// reader consumes the primitives appended by the append* helpers.
type reader struct {
	b []byte
}

func (r *reader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		return 0, ErrTruncated
	}
	r.b = r.b[n:]
	return v, nil
}

// optUvarint reads a trailing field written by appendOptUvarint: zero
// when no bytes remain, ErrNonCanonical for an explicit zero.
func (r *reader) optUvarint() (uint64, error) {
	if len(r.b) == 0 {
		return 0, nil
	}
	v, err := r.uvarint()
	if err == nil && v == 0 {
		return 0, ErrNonCanonical
	}
	return v, err
}

func (r *reader) varint() (int64, error) {
	v, n := binary.Varint(r.b)
	if n <= 0 {
		return 0, ErrTruncated
	}
	r.b = r.b[n:]
	return v, nil
}

func (r *reader) str() (string, error) {
	n, err := r.uvarint()
	if err != nil {
		return "", err
	}
	if n > uint64(len(r.b)) || n > math.MaxInt32 {
		return "", ErrTooLong
	}
	s := string(r.b[:n])
	r.b = r.b[n:]
	return s, nil
}

func (r *reader) byte() (uint8, error) {
	if len(r.b) < 1 {
		return 0, ErrTruncated
	}
	v := r.b[0]
	r.b = r.b[1:]
	return v, nil
}

func (r *reader) boolean() (bool, error) {
	if len(r.b) < 1 {
		return false, ErrTruncated
	}
	v := r.b[0] != 0
	r.b = r.b[1:]
	return v, nil
}

func (r *reader) remaining() int { return len(r.b) }

// mustDrain returns an error if decoded message left trailing bytes,
// which indicates a framing bug or version skew.
func (r *reader) mustDrain(kind Kind) error {
	if len(r.b) != 0 {
		return fmt.Errorf("wire: %d trailing bytes after %v payload", len(r.b), kind)
	}
	return nil
}
