// Package binx is the one bounded binary codec behind the repo's
// container and wire formats (.bbck, BBFL, BBFM, BBLS, .bbv): a
// little-endian, bounds-checked Reader for decoding untrusted input and
// an Appender that refuses any u16 length, count or dimension that does
// not fit its field. Fixed-width fields are written with the standard
// library's binary.LittleEndian.AppendUint16/32/64.
//
// Every Reader error wraps the sentinel its codec passes in, so callers
// keep matching errors.Is(err, ErrBadMessage)-style sentinels of their
// own format.
package binx

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Reader is a bounds-checked cursor over a byte slice. Every accessor
// validates the remaining length before reading, and a decoder calls
// Need with a section's full advertised size before its first
// allocation for it, so a crafted length cannot force a large
// allocation.
type Reader struct {
	data     []byte
	off      int
	prefix   string
	sentinel error
}

// NewReader returns a Reader over data whose errors read
// "<prefix>: <what went wrong>" and wrap sentinel.
func NewReader(data []byte, prefix string, sentinel error) *Reader {
	return &Reader{data: data, prefix: prefix, sentinel: sentinel}
}

// Errorf formats a decode rejection the way the Reader's own errors
// are: prefixed, and wrapping the codec's sentinel (format may wrap
// further errors with %w).
func (r *Reader) Errorf(format string, args ...any) error {
	args = append(append([]any{r.prefix}, args...), r.sentinel)
	return fmt.Errorf("%s: "+format+": %w", args...)
}

// Remaining returns the number of unread bytes.
func (r *Reader) Remaining() int64 { return int64(len(r.data) - r.off) }

// Need fails unless at least n more bytes are present.
func (r *Reader) Need(n int64) error {
	if n < 0 || n > r.Remaining() {
		return r.Errorf("section of %d bytes exceeds %d remaining", n, r.Remaining())
	}
	return nil
}

// Done fails if any bytes are left unread: every format here is
// canonical, so trailing bytes are a second spelling of the same value.
func (r *Reader) Done() error {
	if n := r.Remaining(); n != 0 {
		return r.Errorf("%d trailing bytes", n)
	}
	return nil
}

// Bytes returns the next n bytes. The slice aliases the input.
func (r *Reader) Bytes(n int) ([]byte, error) {
	if err := r.Need(int64(n)); err != nil {
		return nil, err
	}
	b := r.data[r.off : r.off+n]
	r.off += n
	return b, nil
}

// U8 reads one byte.
func (r *Reader) U8() (uint8, error) {
	b, err := r.Bytes(1)
	if err != nil {
		return 0, err
	}
	return b[0], nil
}

// U16 reads a little-endian uint16.
func (r *Reader) U16() (uint16, error) {
	b, err := r.Bytes(2)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint16(b), nil
}

// U32 reads a little-endian uint32.
func (r *Reader) U32() (uint32, error) {
	b, err := r.Bytes(4)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b), nil
}

// U64 reads a little-endian uint64.
func (r *Reader) U64() (uint64, error) {
	b, err := r.Bytes(8)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b), nil
}

// Str reads a u16-length-prefixed string of at most max bytes.
func (r *Reader) Str(max int) (string, error) {
	n, err := r.U16()
	if err != nil {
		return "", err
	}
	if int(n) > max {
		return "", r.Errorf("%d-byte string exceeds budget %d", n, max)
	}
	b, err := r.Bytes(int(n))
	if err != nil {
		return "", err
	}
	return string(b), nil
}

// Blob reads a u32-length-prefixed byte section of at most max bytes,
// copied out so it may outlive the input buffer.
func (r *Reader) Blob(max int64) ([]byte, error) {
	n, err := r.U32()
	if err != nil {
		return nil, err
	}
	if int64(n) > max {
		return nil, r.Errorf("%d-byte blob exceeds budget %d", n, max)
	}
	b, err := r.Bytes(int(n))
	if err != nil {
		return nil, err
	}
	return append([]byte(nil), b...), nil
}

// Appender writes the u16 length-prefixed fields of an encoding. A
// length, count or dimension over 65535 would be silently truncated by
// a plain uint16 conversion and desynchronise the reader, so Appender
// refuses it instead. It keeps the first refusal and reports it from
// Err, so an encoder checks once, after its last field; once Err is
// non-nil the appended bytes are meaningless.
type Appender struct {
	err error
}

// Len16 appends n as a little-endian u16 length, count or dimension.
func (a *Appender) Len16(buf []byte, n int) []byte {
	if (n < 0 || n > math.MaxUint16) && a.err == nil {
		a.err = fmt.Errorf("binx: %d does not fit a u16 length, count or dimension", n)
	}
	return binary.LittleEndian.AppendUint16(buf, uint16(n))
}

// Str appends s behind its u16 length prefix.
func (a *Appender) Str(buf []byte, s string) []byte {
	return append(a.Len16(buf, len(s)), s...)
}

// Err returns the first refusal, or nil.
func (a *Appender) Err() error { return a.err }
