package checkpoint

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// goldenState populates every optional .bbck section at once: a score
// table, an identified VB, a pending frame, the unknown-image
// derivation state with Prev, and a colour histogram. 5×3 keeps the
// container small while still exercising mask row padding.
func goldenState() *State {
	const w, h = 5, 3
	st := knownState(w, h)
	st.PendingFrames = st.PendingFrames[:1]
	st.PendingOracles = st.PendingOracles[:1]
	u := unknownState(w, h)
	st.DerivedImg, st.DerivedKnown, st.LocalKnown = u.DerivedImg, u.DerivedKnown, u.LocalKnown
	st.RunLen, st.Prev = u.RunLen, u.Prev
	return st
}

// TestEncodeGolden pins the .bbck byte layout: the literal 12-byte
// header (magic, version, reserved, CRC) and a SHA-256 of the whole
// container. Reconstruction hashes elsewhere pin what the state holds;
// this pins how it is spelled on disk.
func TestEncodeGolden(t *testing.T) {
	data := mustEncode(t, goldenState())
	wantHeader := []byte{
		'B', 'B', 'C', 'K',
		1, 0, // version
		0, 0, // reserved
		0x54, 0x18, 0x9d, 0xf3, // CRC-32 of the payload
	}
	const wantLen = 33242 // 32776 of it is the 4096-bin histogram
	const wantSHA = "e5979d3f61b7bc97867ca1329b2366958a6cc6f2731d9999626e1008be8c04da"
	if !bytes.Equal(data[:12], wantHeader) {
		t.Errorf("header = %v, want %v", data[:12], wantHeader)
	}
	if len(data) != wantLen {
		t.Errorf("container is %d bytes, want %d", len(data), wantLen)
	}
	sum := sha256.Sum256(data)
	if got := hex.EncodeToString(sum[:]); got != wantSHA {
		t.Errorf("container SHA-256 = %s, want %s", got, wantSHA)
	}
	st, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mustEncode(t, st), data) {
		t.Error("golden container does not round-trip")
	}
}
