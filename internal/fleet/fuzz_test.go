package fleet

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"slices"
	"testing"
)

// fuzzLimits keeps per-iteration allocation small so the fuzzer can
// explore structure instead of filling RAM.
var fuzzLimits = Limits{
	MaxBody:  1 << 16,
	MaxDim:   64,
	MaxBatch: 8,
	MaxIDLen: 32,
	MaxCkpt:  1 << 12,
	MaxIDs:   64,
	MaxText:  128,
}

// FuzzWireDecode feeds crafted bytes to the wire decoder and enforces
// the two safety properties the protocol promises:
//
//  1. Never panic, never allocate beyond the DecodeLimits budgets —
//     any structural lie (oversized body, geometry bomb, bad mask
//     padding) is a clean error.
//  2. Canonical encoding: any accepted message re-encodes to the exact
//     input bytes, so there are no two wire spellings of one message.
func FuzzWireDecode(f *testing.F) {
	// Valid messages of every type.
	for _, m := range sampleMessages() {
		buf, err := Encode(m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(buf)
	}
	// Crafted adversarial seeds: header lies the decoder must reject.
	hdr := func(typ byte, bodyLen uint32, body []byte) []byte {
		b := []byte{'B', 'B', 'F', 'L', 1, 0, typ, 0}
		b = binary.LittleEndian.AppendUint32(b, bodyLen)
		return append(b, body...)
	}
	f.Add(hdr(0x02, 0xFFFFFFFF, nil))                                     // body-length bomb
	f.Add(hdr(0x02, 12, []byte{1, 0, 'z', 0xFF, 0xFF, 0xFF, 0xFF, 1, 2})) // geometry bomb
	f.Add(hdr(0x03, 7, []byte{1, 0, 'z', 0xFF, 0xFF, 0, 0}))              // batch-count bomb
	f.Add(hdr(0x44, 12, append([]byte{0, 0, 0, 0}, make([]byte, 8)...)))  // truncated stats
	f.Add(hdr(0x41, 4, []byte{1, 0, 0xFF, 0xFF}))                         // string-length bomb
	f.Add(hdr(0x06, 9, []byte{1, 0, 'a', 1, 0, 1, 0, 0, 5}))              // truncated resume
	f.Add([]byte("BBFL"))                                                 // bare magic
	f.Add(hdr(0x40, 1, []byte{0}))                                        // trailing byte on empty body
	f.Add(hdr(0x0C, 4, []byte{1, 2, 3, 4}))                               // truncated fence epoch
	f.Add(hdr(0x0D, 3, []byte{0xFF, 0xFF, 'a'}))                          // join addr-length bomb
	f.Add(hdr(0x0E, 2, []byte{0, 0}))                                     // empty drain-shard addr
	f.Add(hdr(0x45, 10, append(make([]byte, 8), 0xFF, 0xFF)))             // health shard-count bomb
	f.Add(hdr(0x45, 17, append(make([]byte, 10), 3, 0, 'x', 'y', 'z', 9, 1, 0, 0)))
	f.Add(hdr(0x0B, 1, []byte{0}))            // trailing byte on ping
	f.Add(hdr(0x11, 4, []byte{1, 0, 'a', 3})) // truncated set-weight
	f.Add(hdr(0x46, 2, []byte{0xFF, 0xFF}))   // load row-count bomb
	f.Add(hdr(0x46, 27, append(append([]byte{1, 0, 0, 0, 0, 1, 0},
		make([]byte, 18)...), 0xFF, 0xFF))) // load session-count bomb
	f.Add(hdr(0x47, 1, []byte{0x07})) // autopilot bad flags + truncation

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := DecodeWithLimits(data, fuzzLimits)
		if err != nil {
			return
		}
		re, err := Encode(m)
		if err != nil {
			t.Fatalf("accepted message failed to re-encode: %v", err)
		}
		if !bytes.Equal(re, data) {
			t.Fatalf("non-canonical accept:\n in (%d bytes): %x\nout (%d bytes): %x",
				len(data), data, len(re), re)
		}
		// An accepted message must also decode identically under the
		// default (larger) budgets — budgets only ever reject, never
		// reinterpret.
		if _, err := Decode(data); err != nil {
			t.Fatalf("accepted under fuzz limits but rejected under defaults: %v", err)
		}
	})
}

// TestWireCorpusRoundTrip runs the fuzz property over the full sample
// corpus deterministically — the golden round-trip gate that runs on
// every plain `go test`, no fuzz engine needed.
func TestWireCorpusRoundTrip(t *testing.T) {
	for _, m := range sampleMessages() {
		buf, err := Encode(m)
		if err != nil {
			t.Fatal(err)
		}
		got, err := DecodeWithLimits(buf, Limits{})
		if err != nil {
			t.Fatalf("type 0x%02x: %v", byte(m.Type), err)
		}
		re, err := Encode(got)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, re) {
			t.Fatalf("type 0x%02x: corpus entry not canonical", byte(m.Type))
		}
	}
}

// FuzzMetaDecode throws crafted bytes at the BBFM meta decoder — the
// blob an elected successor trusts when it takes over. Invariants:
// never panic, and every accepted v2 blob re-encodes to its exact input
// (v1 blobs legitimately re-encode as v2).
func FuzzMetaDecode(f *testing.F) {
	near := fleetMeta{Epoch: 1, Vnodes: 8, Members: []string{"s:1", "s:2"}, Weights: map[string]int{"s:2": 4}}
	for _, m := range []fleetMeta{goldenMeta(), near} {
		blob, err := encodeMeta(m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(blob)
		f.Add(blob[:len(blob)-4]) // unsealed: the harness seals it
		f.Add(blob[:len(blob)/2])
	}
	v1 := []byte{'B', 'B', 'F', 'M', 1, 0, 5, 0, 0, 0, 0, 0, 0, 0, 16, 0, 0, 0,
		1, 0, 3, 0, 'a', ':', '1', 1, 0, 0, 0, 1, 0, 'c', 8, 0, 6, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0}
	f.Add(binary.LittleEndian.AppendUint32(v1, crc32.ChecksumIEEE(v1)))
	bomb := []byte{'B', 'B', 'F', 'M', 2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
		0, 0, 0xFF, 0xFF, 0xFF, 0xFF} // spec-count bomb
	f.Add(binary.LittleEndian.AppendUint32(bomb, crc32.ChecksumIEEE(bomb)))

	f.Fuzz(func(t *testing.T, data []byte) {
		// Also try the input sealed with its own CRC, so mutations reach
		// the parser instead of stopping at the CRC gate.
		sealed := binary.LittleEndian.AppendUint32(slices.Clip(data), crc32.ChecksumIEEE(data))
		for _, b := range [][]byte{data, sealed} {
			m, err := decodeMeta(b)
			if err != nil || binary.LittleEndian.Uint16(b[4:]) != metaVersion {
				continue
			}
			re, err := encodeMeta(m)
			if err != nil {
				t.Fatalf("accepted meta blob failed to re-encode: %v", err)
			}
			if !bytes.Equal(re, b) {
				t.Fatalf("non-canonical accept:\n in: %x\nout: %x", b, re)
			}
		}
	})
}
