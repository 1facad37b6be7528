package store

// Durable-engine codecs: binary on-disk snapshots of the shared token
// dictionary and of sealed segments (DESIGN.md §8). These are the cold
// halves of the segmented engine's persistence — the write-ahead log
// (wal.go) covers everything since the last checkpoint, and the manifest
// (manifest.go) names which of these files are live. The gzip-JSON dataset
// format stays for datasets; engine state is binary because segment rows
// are interned int32 IDs and the dictionary is the decoder ring. The
// dictionary shares the WAL's field encoding (codec.go) and is written from
// one buffer and read back whole (ReadFile); the segment layout is
// segfile_v2.go's.

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
// returned by sets.Dictionary.Snapshot. The file is the magic, the token
// count, each token length-framed (codec.go), and an IEEE CRC32 of all of
// that; it is built in one buffer and written with one Write.
func WriteDict(w io.Writer, tokens []string) error {
	size := len(dictMagic) + binary.MaxVarintLen64 + 4
	for _, tok := range tokens {
		size += 2 + len(tok)
	}
	buf := append(make([]byte, 0, size), dictMagic[:]...)
	buf = binary.AppendUvarint(buf, uint64(len(tokens)))
	for _, tok := range tokens {
		buf = appendStr(buf, tok)
	}
	buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))
	if _, err := w.Write(buf); err != nil {
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
	raw, err := ReadFile(fsys, path)
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
	r := sliceReader{b: rest}
	n := r.count("token")
	// Every token takes at least its length byte, so the bytes left bound
	// the count a corrupt file can make this allocate.
	tokens := make([]string, 0, min(n, r.left()))
	for i := 0; i < n && r.err == nil; i++ {
		lo, hi := r.field("token")
		tokens = append(tokens, blob[lo:hi])
	}
	if r.err != nil {
		return nil, fmt.Errorf("store: corrupt dictionary: %w", r.err)
	}
	if r.left() != 0 {
		return nil, fmt.Errorf("store: corrupt dictionary: %d trailing payload bytes", r.left())
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
