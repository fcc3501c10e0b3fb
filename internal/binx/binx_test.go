package binx

import (
	"bytes"
	"errors"
	"math"
	"strings"
	"testing"
)

var errTest = errors.New("test: bad input")

func TestReaderRoundTrip(t *testing.T) {
	var a Appender
	b := []byte{7}
	b = append(b, 0x34, 0x12)
	b = append(b, 0x78, 0x56, 0x34, 0x12)
	b = append(b, 8, 7, 6, 5, 4, 3, 2, 1)
	b = a.Str(b, "hi")
	b = append(b, 3, 0, 0, 0, 'x', 'y', 'z')
	if a.Err() != nil {
		t.Fatal(a.Err())
	}
	r := NewReader(b, "test", errTest)
	if v, err := r.U8(); err != nil || v != 7 {
		t.Fatalf("U8 = %d, %v", v, err)
	}
	if v, err := r.U16(); err != nil || v != 0x1234 {
		t.Fatalf("U16 = %#x, %v", v, err)
	}
	if v, err := r.U32(); err != nil || v != 0x12345678 {
		t.Fatalf("U32 = %#x, %v", v, err)
	}
	if v, err := r.U64(); err != nil || v != 0x0102030405060708 {
		t.Fatalf("U64 = %#x, %v", v, err)
	}
	if s, err := r.Str(2); err != nil || s != "hi" {
		t.Fatalf("Str = %q, %v", s, err)
	}
	blob, err := r.Blob(3)
	if err != nil || string(blob) != "xyz" {
		t.Fatalf("Blob = %q, %v", blob, err)
	}
	b[len(b)-1] = 'Q'
	if string(blob) != "xyz" {
		t.Fatal("Blob aliases the input buffer")
	}
	if err := r.Done(); err != nil {
		t.Fatal(err)
	}
}

// TestReaderRejects checks that every rejection wraps the codec's
// sentinel and carries its prefix, and that a failed read consumes
// nothing.
func TestReaderRejects(t *testing.T) {
	for _, tc := range []struct {
		name string
		data []byte
		read func(r *Reader) error
		want string
	}{
		{"short-u32", []byte{1, 2, 3}, func(r *Reader) error { _, err := r.U32(); return err }, "exceeds 3 remaining"},
		{"negative-need", nil, func(r *Reader) error { return r.Need(-1) }, "section of -1 bytes"},
		{"string-budget", []byte{3, 0, 'a', 'b', 'c'}, func(r *Reader) error { _, err := r.Str(2); return err }, "3-byte string exceeds budget 2"},
		{"string-short", []byte{3, 0, 'a'}, func(r *Reader) error { _, err := r.Str(8); return err }, "exceeds 1 remaining"},
		{"blob-budget", []byte{9, 0, 0, 0}, func(r *Reader) error { _, err := r.Blob(8); return err }, "9-byte blob exceeds budget 8"},
		{"trailing", []byte{0, 0}, func(r *Reader) error { return r.Done() }, "2 trailing bytes"},
	} {
		r := NewReader(tc.data, "test", errTest)
		err := tc.read(r)
		if !errors.Is(err, errTest) || !strings.HasPrefix(err.Error(), "test: ") || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want prefixed %q wrapping the sentinel", tc.name, err, tc.want)
		}
	}
	r := NewReader([]byte{1, 2}, "test", errTest)
	if _, err := r.U32(); err == nil || r.Remaining() != 2 {
		t.Fatalf("failed read consumed input: %d left, err %v", r.Remaining(), err)
	}
	inner := errors.New("inner")
	if err := r.Errorf("wrapped %w", inner); !errors.Is(err, inner) || !errors.Is(err, errTest) {
		t.Fatalf("Errorf lost a wrapped error: %v", err)
	}
}

func TestAppenderRefusesOverflow(t *testing.T) {
	var a Appender
	b := a.Len16(nil, math.MaxUint16)
	b = a.Str(b, strings.Repeat("x", math.MaxUint16))
	if a.Err() != nil || !bytes.Equal(b[:4], []byte{0xff, 0xff, 0xff, 0xff}) {
		t.Fatalf("65535 refused: %v", a.Err())
	}
	for _, tc := range []struct {
		name string
		fn   func(a *Appender)
	}{
		{"len-overflow", func(a *Appender) { a.Len16(nil, math.MaxUint16+1) }},
		{"len-negative", func(a *Appender) { a.Len16(nil, -1) }},
		{"str-overflow", func(a *Appender) { a.Str(nil, strings.Repeat("x", math.MaxUint16+1)) }},
	} {
		var a Appender
		tc.fn(&a)
		if a.Err() == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	// The first refusal sticks.
	var s Appender
	s.Len16(nil, -1)
	first := s.Err()
	s.Len16(nil, 1<<20)
	if s.Err() != first {
		t.Fatal("a later refusal replaced the first")
	}
}
