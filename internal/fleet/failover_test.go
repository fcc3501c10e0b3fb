package fleet

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"reflect"
	"testing"
)

// goldenMeta exercises every BBFM field: a weighted and an unweighted
// member, and a spec with each flag state.
func goldenMeta() fleetMeta {
	return fleetMeta{
		Epoch:   7,
		Vnodes:  32,
		Members: []string{"a:1", "b:2"},
		Weights: map[string]int{"b:2": 3},
		Specs: []OpenSpec{
			{ID: "c", W: 4, H: 2, UnknownVB: true, Seed: -1},
			{ID: "dd", W: 640, H: 360, Seed: 9},
		},
	}
}

// TestMetaGolden pins the BBFM v2 byte layout.
func TestMetaGolden(t *testing.T) {
	want := []byte{
		'B', 'B', 'F', 'M',
		2, 0, // version
		7, 0, 0, 0, 0, 0, 0, 0, // epoch
		32, 0, 0, 0, // vnodes
		2, 0, // member count
		3, 0, 'a', ':', '1', 1, 0, // addr, weight 1
		3, 0, 'b', ':', '2', 3, 0, // addr, weight 3
		2, 0, 0, 0, // spec count
		1, 0, 'c', 4, 0, 2, 0, 1, // id, w, h, flags (unknown VB)
		0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, // seed -1
		2, 0, 'd', 'd', 0x80, 0x02, 0x68, 0x01, 0, // id, w 640, h 360, flags
		9, 0, 0, 0, 0, 0, 0, 0, // seed
		98, 24, 33, 210, // CRC-32 of everything above
	}
	got, err := encodeMeta(goldenMeta())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("BBFM v2 golden mismatch:\n got %v\nwant %v", got, want)
	}
	m, err := decodeMeta(want)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m, goldenMeta()) {
		t.Fatalf("decoded %+v, want %+v", m, goldenMeta())
	}
}

// TestMetaDecodesV1 hand-builds a version-1 blob — no per-member
// weight — and checks it still decodes, every member at the implicit
// weight 1.
func TestMetaDecodesV1(t *testing.T) {
	b := []byte{
		'B', 'B', 'F', 'M',
		1, 0, // version 1
		5, 0, 0, 0, 0, 0, 0, 0, // epoch
		16, 0, 0, 0, // vnodes
		2, 0, // member count
		3, 0, 'a', ':', '1', // addr, no weight
		3, 0, 'b', ':', '2',
		1, 0, 0, 0, // spec count
		1, 0, 'c', 8, 0, 6, 0, 0, // id, w, h, flags
		3, 0, 0, 0, 0, 0, 0, 0, // seed
	}
	b = binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(b))
	m, err := decodeMeta(b)
	if err != nil {
		t.Fatal(err)
	}
	want := fleetMeta{
		Epoch: 5, Vnodes: 16, Members: []string{"a:1", "b:2"},
		Specs: []OpenSpec{{ID: "c", W: 8, H: 6, Seed: 3}},
	}
	if !reflect.DeepEqual(m, want) {
		t.Fatalf("v1 decoded %+v, want %+v", m, want)
	}
	// Re-encoding upgrades to v2: the same content, weights now explicit.
	v2, err := encodeMeta(m)
	if err != nil {
		t.Fatal(err)
	}
	if binary.LittleEndian.Uint16(v2[4:]) != metaVersion || len(v2) != len(b)+4 {
		t.Fatalf("v1 re-encoded as %d bytes of version %d", len(v2), binary.LittleEndian.Uint16(v2[4:]))
	}
}

// TestEncodeMetaRejectsU16Overflow: a spec dimension that does not fit
// its u16 field must fail the encode rather than persist a truncated
// geometry that recovery would reopen the session at.
func TestEncodeMetaRejectsU16Overflow(t *testing.T) {
	for _, spec := range []OpenSpec{
		{ID: "w", W: 70000, H: 2},
		{ID: "h", W: 2, H: 70000},
		{ID: "neg", W: -1, H: 2},
	} {
		m := goldenMeta()
		m.Specs = append(m.Specs, spec)
		if b, err := encodeMeta(m); err == nil {
			t.Errorf("spec %+v: encoded %d bytes without error", spec, len(b))
		}
	}
}

// TestMetaRejectsDuplicateMember: a repeated address would collapse in
// the weight map (so the blob could not re-encode to itself), and no
// coordinator accepts one, so the decoder refuses it.
func TestMetaRejectsDuplicateMember(t *testing.T) {
	b := []byte{
		'B', 'B', 'F', 'M', 2, 0,
		1, 0, 0, 0, 0, 0, 0, 0, // epoch
		8, 0, 0, 0, // vnodes
		2, 0, // member count
		3, 0, 'a', ':', '1', 1, 0,
		3, 0, 'a', ':', '1', 2, 0,
		0, 0, 0, 0, // spec count
	}
	b = binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(b))
	if _, err := decodeMeta(b); !errors.Is(err, ErrBadMessage) {
		t.Fatalf("duplicate member: %v, want ErrBadMessage", err)
	}
}
