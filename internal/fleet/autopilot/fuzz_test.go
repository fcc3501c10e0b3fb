package autopilot

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"slices"
	"testing"
)

// FuzzLeaseDecode throws crafted bytes at the BBLS lease decoder — the
// record every candidate trusts to learn who leads. Invariants: never
// panic, and every accepted lease re-encodes to its exact input.
func FuzzLeaseDecode(f *testing.F) {
	for _, l := range []Lease{
		{Holder: "c1", Term: 7, Epoch: 12, Expires: 0x0102030405060708},
		{Holder: "coord-a", Term: 1, Epoch: 1, Expires: -1},
	} {
		b, err := encodeLease(l)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
		f.Add(b[:len(b)-4]) // unsealed: the harness seals it
		f.Add(b[:len(b)-1])
	}
	// Holder length that disagrees with the record length, behind a valid CRC.
	lie := []byte{'B', 'B', 'L', 'S', 1, 0, 0xFF, 0x00, 'x'}
	lie = append(lie, make([]byte, 24)...)
	f.Add(binary.LittleEndian.AppendUint32(lie, crc32.ChecksumIEEE(lie)))

	f.Fuzz(func(t *testing.T, data []byte) {
		// Also try the input sealed with its own CRC, so mutations reach
		// the parser instead of stopping at the CRC gate.
		sealed := binary.LittleEndian.AppendUint32(slices.Clip(data), crc32.ChecksumIEEE(data))
		for _, b := range [][]byte{data, sealed} {
			l, err := DecodeLease(b)
			if err != nil {
				continue
			}
			re, err := encodeLease(l)
			if err != nil {
				t.Fatalf("accepted lease failed to re-encode: %v", err)
			}
			if !bytes.Equal(re, b) {
				t.Fatalf("non-canonical accept:\n in: %x\nout: %x", b, re)
			}
		}
	})
}
