package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
)

// randTokens builds a random vocabulary with awkward members: empty-ish,
// unicode, long, and binary-looking tokens all round-trip.
func randTokens(rng *rand.Rand, n int) []string {
	toks := make([]string, n)
	for i := range toks {
		switch rng.Intn(5) {
		case 0:
			toks[i] = fmt.Sprintf("tok-%d", i)
		case 1:
			toks[i] = fmt.Sprintf("uni-%d-héllo-世界-%d", i, rng.Intn(100))
		case 2:
			toks[i] = fmt.Sprintf("%d:%s", i, bytes.Repeat([]byte{'x'}, rng.Intn(200)))
		case 3:
			toks[i] = fmt.Sprintf("bin-%d-%c%c", i, rune(rng.Intn(256)), rune(rng.Intn(256)))
		default:
			toks[i] = fmt.Sprintf("%d", i)
		}
	}
	return toks
}

func randSegment(rng *rand.Rand, vocabN int) *SegmentSnapshot {
	nRows := rng.Intn(40)
	s := &SegmentSnapshot{VocabN: vocabN, Rows: make([]SegmentRow, nRows)}
	for i := range s.Rows {
		ids := make([]int32, rng.Intn(20))
		for j := range ids {
			ids[j] = int32(rng.Intn(vocabN))
		}
		s.Rows[i] = SegmentRow{
			Handle:  rng.Int63n(1 << 40),
			Name:    fmt.Sprintf("set-%d-%d", i, rng.Intn(1000)),
			ElemIDs: ids,
		}
	}
	if nRows > 0 {
		s.Dead = make([]uint64, (nRows+63)/64)
		for i := 0; i < nRows; i++ {
			if rng.Intn(4) == 0 {
				s.Dead[i>>6] |= 1 << (uint(i) & 63)
			}
		}
	}
	return s
}

// TestDictRoundTripRandom: random vocabularies survive write/read exactly.
func TestDictRoundTripRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		toks := randTokens(rng, rng.Intn(200))
		var buf bytes.Buffer
		if err := WriteDict(&buf, toks); err != nil {
			t.Fatal(err)
		}
		got, err := parseDict(buf.Bytes())
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if len(got) != len(toks) {
			t.Fatalf("trial %d: %d tokens, want %d", trial, len(got), len(toks))
		}
		for i := range toks {
			if got[i] != toks[i] {
				t.Fatalf("trial %d: token %d = %q, want %q", trial, i, got[i], toks[i])
			}
		}
	}
}

// TestWALRoundTripRandom: random operation logs replay exactly, through
// both a single open and append-reopen-append cycles.
func TestWALRoundTripRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	dir := t.TempDir()
	for trial := 0; trial < 10; trial++ {
		path := filepath.Join(dir, fmt.Sprintf("t%d.kwal", trial))
		w, err := CreateWAL(OS, path, uint64(trial))
		if err != nil {
			t.Fatal(err)
		}
		var want []WALRecord
		appendSome := func(n int) {
			for i := 0; i < n; i++ {
				var rec WALRecord
				if rng.Intn(3) == 0 {
					rec = WALRecord{Op: WALDelete, Name: fmt.Sprintf("dead-%d", rng.Intn(50))}
				} else {
					rec = WALRecord{
						Op:       WALInsert,
						Handle:   rng.Int63n(1 << 40),
						Name:     fmt.Sprintf("set-%d", rng.Intn(50)),
						Elements: randTokens(rng, rng.Intn(10)),
					}
				}
				if err := w.Append(rec); err != nil {
					t.Fatal(err)
				}
				want = append(want, rec)
			}
		}
		appendSome(rng.Intn(20))
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		// Reopen, verify, append more, verify again.
		w, got, err := resumeWAL(path, uint64(trial))
		if err != nil {
			t.Fatal(err)
		}
		if !walEqual(got, want) {
			t.Fatalf("trial %d: first reopen lost records", trial)
		}
		appendSome(rng.Intn(10))
		w.Close()
		got, _, _, err = ScanWAL(OS, path, uint64(trial))
		if err != nil {
			t.Fatal(err)
		}
		if !walEqual(got, want) {
			t.Fatalf("trial %d: second reopen lost records", trial)
		}
	}
}

// resumeWAL recovers a log as segment.Open does: ScanWAL reads every
// complete record, then ResumeWAL drops the torn tail and positions the log
// for appends. A log with intact records past a corrupt frame is an error
// here: truncation alone never produces one.
func resumeWAL(path string, gen uint64) (*WAL, []WALRecord, error) {
	recs, end, damaged, err := ScanWAL(OS, path, gen)
	if err != nil {
		return nil, nil, err
	}
	if damaged {
		return nil, nil, fmt.Errorf("intact records past a corrupt frame in %s", path)
	}
	w, err := ResumeWAL(OS, path, end)
	return w, recs, err
}

func walEqual(a, b []WALRecord) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Op != b[i].Op || a[i].Handle != b[i].Handle || a[i].Name != b[i].Name {
			return false
		}
		if len(a[i].Elements) != len(b[i].Elements) {
			return false
		}
		for j := range a[i].Elements {
			if a[i].Elements[j] != b[i].Elements[j] {
				return false
			}
		}
	}
	return true
}

// TestDictSegmentRejectTruncation: every proper prefix of a dictionary
// file must produce an error — never a panic, never silent data. (Segment
// files: TestSegmentV2RejectTruncation.)
func TestDictSegmentRejectTruncation(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	var dict bytes.Buffer
	if err := WriteDict(&dict, randTokens(rng, 30)); err != nil {
		t.Fatal(err)
	}
	full := dict.Bytes()
	for cut := 0; cut < len(full); cut++ {
		if _, err := parseDict(full[:cut]); err == nil {
			t.Fatalf("dict truncated at %d/%d bytes accepted", cut, len(full))
		}
	}
}

// TestDictSegmentRejectCorruption: single-byte flips anywhere in a
// dictionary file are caught (CRC, magic, or structural validation) —
// never a panic. (Segment files: TestSegmentV2RejectCorruption.)
func TestDictSegmentRejectCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var dict bytes.Buffer
	if err := WriteDict(&dict, randTokens(rng, 30)); err != nil {
		t.Fatal(err)
	}
	full := dict.Bytes()
	for trial := 0; trial < 200; trial++ {
		pos := rng.Intn(len(full))
		mut := append([]byte(nil), full...)
		mut[pos] ^= 1 << uint(rng.Intn(8))
		if _, err := parseDict(mut); err == nil {
			t.Fatalf("dict with byte %d flipped accepted", pos)
		}
	}
}

// TestWALTornTail: any truncation of the WAL recovers exactly the records
// whose frames fully survive, and the file stays appendable afterwards.
func TestWALTornTail(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "torn.kwal")
	w, err := CreateWAL(OS, path, 7)
	if err != nil {
		t.Fatal(err)
	}
	var ends []int64
	for i := 0; i < 8; i++ {
		rec := WALRecord{Op: WALInsert, Handle: int64(i), Name: fmt.Sprintf("s%d", i), Elements: []string{"a", "b"}}
		if err := w.Append(rec); err != nil {
			t.Fatal(err)
		}
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		ends = append(ends, fi.Size())
	}
	w.Close()
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	complete := func(size int64) int {
		n := 0
		for _, e := range ends {
			if e <= size {
				n++
			}
		}
		return n
	}
	for cut := int64(walHeaderLen); cut <= int64(len(full)); cut++ {
		if err := os.WriteFile(path, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		w, recs, err := resumeWAL(path, 7)
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if len(recs) != complete(cut) {
			w.Close()
			t.Fatalf("cut %d: %d records, want %d", cut, len(recs), complete(cut))
		}
		// The torn tail must be gone: appending then reopening yields
		// exactly recs + 1.
		if err := w.Append(WALRecord{Op: WALDelete, Name: "after"}); err != nil {
			t.Fatal(err)
		}
		w.Close()
		recs2, _, _, err := ScanWAL(OS, path, 7)
		if err != nil {
			t.Fatalf("cut %d reopen: %v", cut, err)
		}
		if len(recs2) != len(recs)+1 || recs2[len(recs2)-1].Name != "after" {
			t.Fatalf("cut %d: append after truncation broken (%d records)", cut, len(recs2))
		}
	}
}

// TestWALRejectsMismatchedGeneration: a WAL from another checkpoint
// generation is refused outright.
func TestWALRejectsMismatchedGeneration(t *testing.T) {
	path := filepath.Join(t.TempDir(), "gen.kwal")
	w, err := CreateWAL(OS, path, 3)
	if err != nil {
		t.Fatal(err)
	}
	w.Close()
	if _, _, _, err := ScanWAL(OS, path, 4); err == nil {
		t.Fatal("mismatched generation accepted")
	}
}

// walBody frames each payload as Append does: length, CRC32, payload.
func walBody(payloads ...[]byte) []byte {
	var out []byte
	for _, p := range payloads {
		out = binary.LittleEndian.AppendUint32(out, uint32(len(p)))
		out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(p))
		out = append(out, p...)
	}
	return out
}

// FuzzWALFrame writes a valid header followed by arbitrary bytes and scans
// the log. With framed set, the input is cut into payloads (each prefixed
// by one length byte) and each is framed with its correct CRC, so the
// record decoder sees bytes the frame check lets through. ScanWAL must not
// panic, must not allocate more than a small multiple of the file (a
// corrupt count or length is not an allocation size), must return records
// that re-encode through appendWALRecord to exactly the frames they came
// from, and must end on the boundary of the last of those frames, where no
// further frame passes.
func FuzzWALFrame(f *testing.F) {
	ins := appendWALRecord(nil, WALRecord{Op: WALInsert, Handle: 5, Name: "s", Elements: []string{"a", "bc"}})
	del := appendWALRecord(nil, WALRecord{Op: WALDelete, Name: "gone"})
	f.Add(walBody(ins, del), false)
	f.Add(append(append([]byte{byte(len(ins))}, ins...), append([]byte{byte(len(del))}, del...)...), true)
	torn := walBody(ins, del)
	torn[9] ^= 0xff // the first payload's op byte: its CRC fails, the next frame is a gap
	f.Add(torn, false)
	f.Add([]byte{}, false)
	f.Add([]byte{2, 1, 0}, true)                            // an insert cut short
	f.Add([]byte{3, 2, 0x80, 0x00}, true)                   // a delete whose name length is not in shortest form
	f.Add([]byte{7, 1, 0, 0, 0xff, 0xff, 0xff, 0x7f}, true) // an insert of 2²⁸−1 elements in seven bytes

	path := filepath.Join(f.TempDir(), "fuzz.kwal")
	const gen = 3
	f.Fuzz(func(t *testing.T, in []byte, framed bool) {
		body := in
		if framed {
			var payloads [][]byte
			for len(in) > 0 {
				n := min(int(in[0]), len(in)-1)
				payloads = append(payloads, in[1:1+n])
				in = in[1+n:]
			}
			body = walBody(payloads...)
		}
		data := append([]byte(nil), walMagic[:]...)
		data = binary.LittleEndian.AppendUint64(data, gen)
		data = append(data, body...)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}

		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		recs, end, _, err := ScanWAL(OS, path, gen)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatalf("valid header refused: %v", err)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 64*uint64(len(data))+1<<20 {
			t.Fatalf("scanning %d bytes allocated %d", len(data), alloc)
		}

		off := int64(walHeaderLen)
		for i, rec := range recs {
			frame := walBody(appendWALRecord(nil, rec))
			if int64(len(data))-off < int64(len(frame)) || !bytes.Equal(data[off:off+int64(len(frame))], frame) {
				t.Fatalf("record %d (%+v) does not re-encode to its frame at %d", i, rec, off)
			}
			off += int64(len(frame))
		}
		if end != off {
			t.Fatalf("end %d, but the records' frames end at %d", end, off)
		}
		if _, _, ok := walFrame(data, int(end)); ok {
			t.Fatalf("the scan stopped at %d before a frame that passes", end)
		}
	})
}

// TestManifestRoundTripAndCorruption: commit/load round-trips including
// tombstone bitsets; corrupt and version-skewed manifests are rejected.
func TestManifestRoundTripAndCorruption(t *testing.T) {
	dir := t.TempDir()
	m := &Manifest{Gen: 5, Dict: "dict-00000005.kdict", WAL: "wal-00000005.kwal", NextHandle: 42}
	seg := ManifestSegment{File: "seg-00000001.kseg", Rows: 130}
	dead := make([]uint64, 3)
	dead[0] = 1<<3 | 1<<60
	dead[2] = 1 << 1
	seg.SetDead(dead)
	m.Segments = append(m.Segments, seg, ManifestSegment{File: "seg-00000002.kseg", Rows: 1})
	if err := CommitManifest(OS, dir, m); err != nil {
		t.Fatal(err)
	}
	got, err := LoadManifest(OS, dir)
	if err != nil {
		t.Fatal(err)
	}
	if got.Gen != 5 || got.NextHandle != 42 || len(got.Segments) != 2 {
		t.Fatalf("round trip lost structure: %+v", got)
	}
	gotDead, err := got.Segments[0].Dead()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotDead, dead) {
		t.Fatalf("tombstones differ: %v vs %v", gotDead, dead)
	}
	if allLive, err := got.Segments[1].Dead(); err != nil || allLive[0] != 0 {
		t.Fatalf("all-live segment: %v, %v", allLive, err)
	}

	// Absent manifest: (nil, nil).
	if man, err := LoadManifest(OS, t.TempDir()); man != nil || err != nil {
		t.Fatalf("empty dir: %v, %v", man, err)
	}
	// Corrupt JSON and wrong version are errors.
	if err := os.WriteFile(filepath.Join(dir, ManifestName), []byte("{broken"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadManifest(OS, dir); err == nil {
		t.Fatal("corrupt manifest accepted")
	}
	if err := os.WriteFile(filepath.Join(dir, ManifestName), []byte(`{"version":99,"dict":"d","wal":"w"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadManifest(OS, dir); err == nil {
		t.Fatal("future manifest version accepted")
	}
	// Tombstone bitset sized for the wrong row count is an error.
	bad := ManifestSegment{File: "f", Rows: 200, DeadB64: seg.DeadB64}
	if _, err := bad.Dead(); err == nil {
		t.Fatal("mis-sized tombstone bitset accepted")
	}
}

// BenchmarkScanWAL times the recovery scan of a 5,000-record log of
// inserts (ten elements each) with a delete after every fourth.
func BenchmarkScanWAL(b *testing.B) {
	path := filepath.Join(b.TempDir(), "bench.kwal")
	w, err := CreateWAL(OS, path, 1)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < 5000; i++ {
		rec := WALRecord{Op: WALInsert, Handle: int64(i), Name: fmt.Sprintf("set-%d", i), Elements: randTokens(rng, 10)}
		if i%4 == 3 {
			rec = WALRecord{Op: WALDelete, Name: fmt.Sprintf("set-%d", i-3)}
		}
		if err := w.Append(rec); err != nil {
			b.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if recs, _, damaged, err := ScanWAL(OS, path, 1); err != nil || damaged || len(recs) != 5000 {
			b.Fatalf("%d records, damaged %v, %v", len(recs), damaged, err)
		}
	}
}
