package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"
)

// The durable files are read back by builds older and newer than this one,
// so their bytes are a contract: a change to one of these digests is a
// format change, which every reader of the old bytes must be ready for.
const (
	goldenDictSHA256 = "333cd738bc2b2fcc06026dcd0ca0111560fec66aa7a8dcd83dd8c4aec603f03a"
	goldenWALSHA256  = "070fb51bf44520f2e60a29d4e4982908ee76a59ddc391a5d2fa48fdedf8ccd36"
	goldenSegSHA256  = "9252c7f4998bfaa9c7cb87eb89f07ecbbe502edba0f2103a2863ef33d66748b9"
)

func goldenTokens() []string {
	return []string{"", "a", "héllo", "世界", "tok-with-a-longer-name-past-one-varint-byte-" +
		"xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx", "\x00\xff"}
}

func goldenSegment() *SegmentSnapshot {
	return &SegmentSnapshot{
		VocabN: 6,
		Rows: []SegmentRow{
			{Handle: 0, Name: "first", ElemIDs: []int32{0, 1, 2}},
			{Handle: 1 << 40, Name: "", ElemIDs: nil},
			{Handle: 7, Name: "世界", ElemIDs: []int32{5, 4}},
		},
		Dead: []uint64{1 << 1},
	}
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// TestGoldenFileBytes pins the bytes of a dictionary, a WAL holding one
// insert and one delete, and a v2 segment, each built from one fixed input.
func TestGoldenFileBytes(t *testing.T) {
	var dict bytes.Buffer
	if err := WriteDict(&dict, goldenTokens()); err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "golden.kwal")
	w, err := CreateWAL(OS, path, 9)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range []WALRecord{
		{Op: WALInsert, Handle: 300, Name: "set-a", Elements: []string{"x", "", "héllo"}},
		{Op: WALDelete, Name: "set-b"},
	} {
		if err := w.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	wal, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	var seg bytes.Buffer
	if err := WriteSegmentV2(&seg, goldenSegment()); err != nil {
		t.Fatal(err)
	}

	for _, c := range []struct {
		name string
		data []byte
		want string
	}{
		{"dictionary", dict.Bytes(), goldenDictSHA256},
		{"WAL", wal, goldenWALSHA256},
		{"segment", seg.Bytes(), goldenSegSHA256},
	} {
		if got := digest(c.data); got != c.want {
			t.Errorf("%s: sha256 %s, want %s", c.name, got, c.want)
		}
	}
}
