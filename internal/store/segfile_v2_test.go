package store

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// parseV2Bytes runs the full v2 validation over an in-memory copy of a
// file's bytes — the heap-path equivalent of OpenMappedSegment, usable on
// arbitrary (possibly damaged) inputs without touching the disk.
func parseV2Bytes(raw []byte) (*MappedSegment, error) {
	ms := &MappedSegment{data: alignedBytes(append([]byte(nil), raw...))}
	ms.refs.Store(1)
	if err := ms.parse(); err != nil {
		return nil, err
	}
	return ms, nil
}

func encodeV2(t *testing.T, s *SegmentSnapshot) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteSegmentV2(&buf, s); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func assertSnapshotsEqual(t *testing.T, label string, got, want *SegmentSnapshot) {
	t.Helper()
	if got.VocabN != want.VocabN || len(got.Rows) != len(want.Rows) {
		t.Fatalf("%s: structure lost (vocab %d/%d, rows %d/%d)",
			label, got.VocabN, want.VocabN, len(got.Rows), len(want.Rows))
	}
	for i := range want.Rows {
		g, w := got.Rows[i], want.Rows[i]
		if g.Handle != w.Handle || g.Name != w.Name || len(g.ElemIDs) != len(w.ElemIDs) {
			t.Fatalf("%s: row %d differs: %+v vs %+v", label, i, g, w)
		}
		for j := range w.ElemIDs {
			if g.ElemIDs[j] != w.ElemIDs[j] {
				t.Fatalf("%s: row %d elem %d = %d, want %d", label, i, j, g.ElemIDs[j], w.ElemIDs[j])
			}
		}
	}
	wantDead := want.Dead
	if len(wantDead) == 0 {
		wantDead = make([]uint64, (len(want.Rows)+63)/64)
	}
	gotDead := got.Dead
	if len(gotDead) == 0 {
		gotDead = make([]uint64, (len(got.Rows)+63)/64)
	}
	if !reflect.DeepEqual(gotDead, wantDead) {
		t.Fatalf("%s: tombstones differ", label)
	}
}

// TestSegmentV2RoundTripRandom: random segments survive the flat layout
// exactly, through both the mmap path (production osFS) and the FS-seam
// heap fallback (FaultFS does not implement Mmapper), and both agree on
// every accessor.
func TestSegmentV2RoundTripRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	dir := t.TempDir()
	for trial := 0; trial < 20; trial++ {
		s := randSegment(rng, 500+rng.Intn(500))
		path := filepath.Join(dir, fmt.Sprintf("t%d.kseg", trial))
		if err := SaveSegmentV2(OS, path, s); err != nil {
			t.Fatal(err)
		}
		for _, tc := range []struct {
			label string
			fsys  FS
			zero  bool
		}{
			{"mmap", OS, true},
			{"fallback", NewFaultFS(nil), false},
		} {
			ms, err := OpenMappedSegment(tc.fsys, path)
			if err != nil {
				t.Fatalf("trial %d %s: %v", trial, tc.label, err)
			}
			if ms.ZeroCopy() != tc.zero {
				t.Fatalf("trial %d %s: ZeroCopy = %v, want %v", trial, tc.label, ms.ZeroCopy(), tc.zero)
			}
			if ms.Rows() != len(s.Rows) {
				t.Fatalf("trial %d %s: %d rows, want %d", trial, tc.label, ms.Rows(), len(s.Rows))
			}
			for i, row := range s.Rows {
				if ms.Name(i) != row.Name || ms.Handles[i] != row.Handle {
					t.Fatalf("trial %d %s: row %d header differs", trial, tc.label, i)
				}
				if got := ms.Row(i); len(got) != len(row.ElemIDs) {
					t.Fatalf("trial %d %s: row %d has %d elems, want %d",
						trial, tc.label, i, len(got), len(row.ElemIDs))
				}
			}
			assertSnapshotsEqual(t, fmt.Sprintf("trial %d %s", trial, tc.label), ms.Snapshot(), s)
			if err := ms.Release(); err != nil {
				t.Fatalf("trial %d %s: release: %v", trial, tc.label, err)
			}
		}
	}
}

// TestSegmentV2CanonicalReencode: the layout is canonical, so re-encoding
// a parsed file must reproduce it byte for byte.
func TestSegmentV2CanonicalReencode(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 10; trial++ {
		raw := encodeV2(t, randSegment(rng, 300))
		ms, err := parseV2Bytes(raw)
		if err != nil {
			t.Fatal(err)
		}
		again := encodeV2(t, ms.Snapshot())
		if !bytes.Equal(raw, again) {
			t.Fatalf("trial %d: re-encode not byte-identical (%d vs %d bytes)", trial, len(raw), len(again))
		}
	}
}

// TestSegmentV2RejectTruncation: every proper prefix of a v2 file must
// produce an error — never a panic, never silent data.
func TestSegmentV2RejectTruncation(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	full := encodeV2(t, randSegment(rng, 100))
	for cut := 0; cut < len(full); cut++ {
		if _, err := parseV2Bytes(full[:cut]); err == nil {
			t.Fatalf("v2 segment truncated at %d/%d bytes accepted", cut, len(full))
		}
	}
}

// TestSegmentV2RejectCorruption: single-bit flips anywhere — payload,
// header, section table, or padding — are caught, never served.
func TestSegmentV2RejectCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	full := encodeV2(t, randSegment(rng, 100))
	flip := func(pos, bit int) {
		mut := append([]byte(nil), full...)
		mut[pos] ^= 1 << uint(bit)
		if _, err := parseV2Bytes(mut); err == nil {
			t.Fatalf("v2 segment with byte %d bit %d flipped accepted", pos, bit)
		}
	}
	// Every bit of the header page (magic, fields, table, CRC, padding)...
	for pos := 0; pos < segV2Page; pos++ {
		flip(pos, rng.Intn(8))
	}
	// ...and random positions across the payload and inter-section padding.
	for trial := 0; trial < 400; trial++ {
		flip(segV2Page+rng.Intn(len(full)-segV2Page), rng.Intn(8))
	}
}

// TestSegmentV2RejectsOutOfHorizonIDs: an element ID at or past the
// recorded vocabulary horizon fails validation even under a valid CRC
// (the CRC covers what was written; the horizon check covers what it
// means).
func TestSegmentV2RejectsOutOfHorizonIDs(t *testing.T) {
	s := &SegmentSnapshot{
		VocabN: 3,
		Rows: []SegmentRow{
			{Handle: 1, Name: "ok", ElemIDs: []int32{0, 2}},
			{Handle: 2, Name: "bad", ElemIDs: []int32{1, 7}},
		},
	}
	if _, err := parseV2Bytes(encodeV2(t, s)); err == nil {
		t.Fatal("segment with out-of-horizon token ID accepted")
	}
}

// TestSegmentV2EmptyAndTinySegments: zero rows, empty rows, and empty
// names round-trip.
func TestSegmentV2EmptyAndTinySegments(t *testing.T) {
	for _, s := range []*SegmentSnapshot{
		{VocabN: 0},
		{VocabN: 5, Rows: []SegmentRow{{Handle: 9, Name: "", ElemIDs: nil}}},
		{VocabN: 5, Rows: []SegmentRow{{Handle: 1, Name: "a", ElemIDs: []int32{4}}, {Handle: 2, Name: "b"}}},
	} {
		ms, err := parseV2Bytes(encodeV2(t, s))
		if err != nil {
			t.Fatalf("%+v: %v", s, err)
		}
		assertSnapshotsEqual(t, "tiny", ms.Snapshot(), s)
	}
}

// TestVerifySegment: the scrub primitive accepts an intact file, rejects
// a damaged one, and names a v1-layout file for what it is.
func TestVerifySegment(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	path := filepath.Join(t.TempDir(), "s.kseg")
	if err := SaveSegmentV2(OS, path, randSegment(rng, 150)); err != nil {
		t.Fatal(err)
	}
	if err := VerifySegment(OS, path); err != nil {
		t.Fatalf("VerifySegment(intact): %v", err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x10
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := VerifySegment(OS, path); err == nil || errors.Is(err, ErrSegmentV1) {
		t.Fatalf("VerifySegment(damaged) = %v, want a corruption error", err)
	}
	if err := os.WriteFile(path, append(segMagicV1[:], "anything"...), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := VerifySegment(OS, path); !errors.Is(err, ErrSegmentV1) {
		t.Fatalf("VerifySegment(v1 magic) = %v, want ErrSegmentV1", err)
	}
}

// TestMappedSegmentRefcount: the unmap fires exactly once, at the last
// Release, and never while a Retain is outstanding.
func TestMappedSegmentRefcount(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	raw := encodeV2(t, randSegment(rng, 50))
	unmaps := 0
	ms := &MappedSegment{data: alignedBytes(raw), unmap: func() error { unmaps++; return nil }}
	ms.refs.Store(1)
	if err := ms.parse(); err != nil {
		t.Fatal(err)
	}
	ms.Retain()
	ms.Retain()
	for i := 0; i < 2; i++ {
		if err := ms.Release(); err != nil {
			t.Fatal(err)
		}
		if unmaps != 0 {
			t.Fatalf("unmapped with %d references outstanding", 2-i)
		}
	}
	if err := ms.Release(); err != nil {
		t.Fatal(err)
	}
	if unmaps != 1 {
		t.Fatalf("unmap ran %d times, want 1", unmaps)
	}
	// Redundant Release after close must not unmap again.
	if err := ms.Release(); err != nil {
		t.Fatal(err)
	}
	if unmaps != 1 {
		t.Fatalf("unmap ran %d times after redundant release, want 1", unmaps)
	}
}

// TestAlignedBytes: misaligned buffers are copied to 8-byte-aligned
// storage; aligned ones pass through.
func TestAlignedBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	raw := encodeV2(t, randSegment(rng, 40))
	shifted := make([]byte, len(raw)+1)
	copy(shifted[1:], raw)
	if _, err := parseV2Bytes(shifted[1:]); err != nil {
		t.Fatalf("misaligned buffer: %v", err)
	}
}

// FuzzSegmentV2 throws arbitrary bytes at the parser (must never panic)
// and checks the canonical-form property: anything the parser accepts
// re-encodes to exactly the bytes it was given.
func FuzzSegmentV2(f *testing.F) {
	rng := rand.New(rand.NewSource(19))
	var small bytes.Buffer
	if err := WriteSegmentV2(&small, randSegment(rng, 60)); err != nil {
		f.Fatal(err)
	}
	f.Add(small.Bytes())
	f.Add([]byte{})
	f.Add(append([]byte(nil), segMagicV2[:]...))
	hdr := make([]byte, segV2Page)
	copy(hdr, segMagicV2[:])
	f.Add(hdr)
	f.Fuzz(func(t *testing.T, raw []byte) {
		ms, err := parseV2Bytes(raw)
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteSegmentV2(&buf, ms.Snapshot()); err != nil {
			t.Fatalf("accepted input did not re-encode: %v", err)
		}
		if !bytes.Equal(buf.Bytes(), raw) {
			t.Fatal("accepted input is not in canonical form")
		}
	})
}
