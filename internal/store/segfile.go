package store

// Durable-engine codecs: binary on-disk snapshots of the shared token
// dictionary and of sealed segments (DESIGN.md §8). These are the cold
// halves of the segmented engine's persistence — the write-ahead log
// (wal.go) covers everything since the last checkpoint, and the manifest
// (manifest.go) names which of these files are live. The gzip-JSON dataset
// format stays for datasets; engine state is binary because segment rows
// are interned int32 IDs and the dictionary is the decoder ring.

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
)

// File magics. A wrong magic means "not this kind of file" — the most
// useful error when a path points somewhere unexpected. segMagicV1 heads
// the segment layout this package no longer decodes; the bytes stay so that
// such a file is named for what it is (ErrSegmentV1), not taken for rot.
var (
	dictMagic  = [5]byte{'K', 'D', 'I', 'C', 1}
	segMagicV1 = [5]byte{'K', 'S', 'E', 'G', 1}
	walMagic   = [5]byte{'K', 'W', 'A', 'L', 1}
)

// WriteDict serializes a dictionary vocabulary: tokens in ID order, as
// returned by sets.Dictionary.Snapshot.
func WriteDict(w io.Writer, tokens []string) error {
	bw := newBinWriter(w)
	bw.raw(dictMagic[:])
	bw.uvarint(uint64(len(tokens)))
	for _, tok := range tokens {
		bw.str(tok)
	}
	if err := bw.finish(); err != nil {
		return fmt.Errorf("store: write dictionary: %w", err)
	}
	return nil
}

// SegmentRow is one persisted set of a sealed segment: its stable handle,
// external name, and interned element IDs (valid below the snapshot's
// vocabulary horizon).
type SegmentRow struct {
	Handle  int64
	Name    string
	ElemIDs []int32
}

// SegmentSnapshot is the owned, row-shaped form of one sealed segment — what
// WriteSegmentV2 takes and MappedSegment.Snapshot returns: the interned
// rows, the dictionary horizon they were interned under, and the tombstone
// bitset at write time (rows born dead, e.g. deleted mid-compaction). The
// CSR postings and engine are rebuilt on load, exactly as compaction
// rebuilds them for a merged segment. Tombstones accumulated after the
// snapshot was written live in the manifest, which supersedes this bitset.
type SegmentSnapshot struct {
	VocabN int
	Rows   []SegmentRow
	Dead   []uint64
}

// SaveDict writes the vocabulary to path and syncs it to stable storage.
func SaveDict(fsys FS, path string, tokens []string) error {
	return saveSynced(fsys, path, func(w io.Writer) error { return WriteDict(w, tokens) })
}

// LoadDict reads the vocabulary at path. It reads the file whole and
// parses from the contiguous buffer: one CRC pass, and every token sliced
// from a single shared backing string — O(1) allocations instead of one
// per token, which matters on the cold-start path where the dictionary
// load is the decoder ring every reopen must pay for.
func LoadDict(fsys FS, path string) ([]string, error) {
	raw, err := readFileFS(fsys, path)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	return parseDict(raw)
}

// parseDict decodes a whole dictionary file as WriteDict lays it out — the
// decoder recovery runs, through LoadDict. It enforces the magic, token
// count and length sanity bounds, the trailing payload CRC, and that no
// payload byte is left over.
func parseDict(data []byte) ([]string, error) {
	if len(data) < len(dictMagic)+4 {
		return nil, fmt.Errorf("store: dictionary: %w", io.ErrUnexpectedEOF)
	}
	if [5]byte(data[:5]) != dictMagic {
		return nil, fmt.Errorf("store: not a koios dictionary file (magic %q)", data[:5])
	}
	payload := data[: len(data)-4 : len(data)-4]
	if got, want := binary.LittleEndian.Uint32(data[len(data)-4:]), crc32.ChecksumIEEE(payload); got != want {
		return nil, fmt.Errorf("store: corrupt dictionary: checksum mismatch (stored %08x, computed %08x)", got, want)
	}
	rest := payload[len(dictMagic):]
	blob := string(rest)
	pos := 0
	next := func() (uint64, bool) {
		v, n := binary.Uvarint(rest[pos:])
		if n <= 0 {
			return 0, false
		}
		pos += n
		return v, true
	}
	n, ok := next()
	if !ok || n > maxBinCount {
		return nil, fmt.Errorf("store: corrupt dictionary: bad token count")
	}
	tokens := make([]string, 0, min(int(n), 1<<20))
	for i := 0; i < int(n); i++ {
		l, ok := next()
		if !ok || l > maxBinString || uint64(pos)+l > uint64(len(rest)) {
			return nil, fmt.Errorf("store: corrupt dictionary: token %d truncated", i)
		}
		tokens = append(tokens, blob[pos:pos+int(l)])
		pos += int(l)
	}
	if pos != len(rest) {
		return nil, fmt.Errorf("store: corrupt dictionary: %d trailing payload bytes", len(rest)-pos)
	}
	return tokens, nil
}

// saveSynced creates (or truncates) path, writes through fn, and fsyncs
// before closing — a checkpoint file must be durable before the manifest
// that references it commits. Sync and Close failures both propagate: a
// file we could not flush must never be treated as persisted.
func saveSynced(fsys FS, path string, fn func(io.Writer) error) error {
	f, err := fsys.Create(path)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if err := fn(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("store: sync %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("store: close %s: %w", path, err)
	}
	return nil
}
