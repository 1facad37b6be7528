package store

// Segment snapshot format v2, the only one read or written: a flat,
// sectioned, page-aligned layout whose payload bytes ARE the in-memory CSR
// arrays sets.Repository serves from (DESIGN.md §13). The file is mmapped
// and served in place: opening a segment costs a handful of page faults,
// not O(data) decode time and heap.
//
// Layout (all integers little-endian):
//
//	page 0        header: magic, counts, section table, header CRC32;
//	              the rest of the page is zero.
//	page 1..N     six sections, each starting on a 4 KiB page boundary,
//	              each covered by its own CRC32 recorded in the table:
//	                1 rowOffs   int64 × (rows+1)   CSR row offsets into elems
//	                2 elems     int32 × elems      concatenated element IDs
//	                3 handles   int64 × rows       stable set handles
//	                4 nameOffs  int64 × (rows+1)   offsets into the name blob
//	                5 names     byte  × blobLen    concatenated set names
//	                6 dead      uint64 × ⌈rows/64⌉ tombstone bitset
//
// The layout is canonical: sections appear in kind order, every section
// starts at the first page boundary after its predecessor, the file ends at
// the first page boundary after the last section, and every gap/padding
// byte is zero. The reader enforces all of it, so any bit flip anywhere in
// the file — payload, header, or padding — fails validation and routes the
// file to quarantine instead of being silently served (the chaos harness's
// invariant, DESIGN.md §11).

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"sync/atomic"
	"unsafe"
)

var segMagicV2 = [5]byte{'K', 'S', 'E', 'G', 2}

const (
	segV2Page     = 4096
	segV2Sections = 6
	// Header layout: magic[5] pad[3] | vocabN rows elems blobLen deadWords
	// fileSize sectionCount (7 × u64) | table (6 × 24 B) | crc32.
	segV2TableOff  = 8 + 7*8 // 64
	segV2EntrySize = 24      // u64 offset, u64 length, u32 kind, u32 crc
	segV2CRCOff    = segV2TableOff + segV2Sections*segV2EntrySize
	segV2HeaderLen = segV2CRCOff + 4
)

// Section kinds, in file order.
const (
	secRowOffs = 1 + iota
	secElems
	secHandles
	secNameOffs
	secNames
	secDead
)

// hostLittleEndian gates the zero-copy reinterpret casts: the on-disk
// arrays are little-endian, so on a big-endian host the reader falls back
// to an element-wise decode into fresh slices.
var hostLittleEndian = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

func alignPage(n int64) int64 { return (n + segV2Page - 1) &^ (segV2Page - 1) }

// MappedSegment is an open v2 segment snapshot: typed views over the
// file's bytes (zero-copy when the file is mmapped on a little-endian
// host, decoded copies otherwise) plus the refcount that keeps the
// mapping alive while any repository still borrows from it.
//
// Lifetime: the segment layer Retains once per loaded repository and ties
// the matching Release to the repository's unreachability (runtime
// cleanup), so no search holding a snapshot view can ever observe the
// unmap — see DESIGN.md §13.
type MappedSegment struct {
	data   []byte
	unmap  func() error
	refs   atomic.Int64
	zero   bool // data aliases the on-disk file (live mmap)
	closed atomic.Bool

	VocabN   int
	RowOffs  []int64
	ElemIDs  []int32
	Handles  []int64
	nameOffs []int64
	nameBlob []byte
	Dead     []uint64
}

// Rows reports the number of rows in the snapshot.
func (ms *MappedSegment) Rows() int { return len(ms.RowOffs) - 1 }

// Name materializes row i's set name as a heap string (mapped bytes must
// not leak into map keys or merged segments that outlive the mapping).
func (ms *MappedSegment) Name(i int) string {
	return string(ms.nameBlob[ms.nameOffs[i]:ms.nameOffs[i+1]])
}

// Names materializes every row name in one pass: one heap copy of the name
// blob, sliced per row — O(1) allocations instead of one per name, which
// matters on the cold-start path where segment load should be O(manifest).
func (ms *MappedSegment) Names() []string {
	blob := string(ms.nameBlob)
	names := make([]string, ms.Rows())
	for i := range names {
		names[i] = blob[ms.nameOffs[i]:ms.nameOffs[i+1]]
	}
	return names
}

// Row returns row i's element IDs as a full-capacity-clipped view.
func (ms *MappedSegment) Row(i int) []int32 {
	lo, hi := ms.RowOffs[i], ms.RowOffs[i+1]
	return ms.ElemIDs[lo:hi:hi]
}

// ZeroCopy reports whether the segment's memory aliases the on-disk file
// (a live mmap — on-disk rot is visible in served state, so Repair must
// withdraw, not re-persist). False on the heap-read fallback, whose open
// made an independent copy.
func (ms *MappedSegment) ZeroCopy() bool { return ms.zero }

// Retain adds a reference; every Retain must be paired with a Release.
func (ms *MappedSegment) Retain() { ms.refs.Add(1) }

// Release drops a reference and unmaps the file when the last one goes.
func (ms *MappedSegment) Release() error {
	if n := ms.refs.Add(-1); n > 0 {
		return nil
	}
	if !ms.closed.CompareAndSwap(false, true) {
		return nil
	}
	if ms.unmap != nil {
		err := ms.unmap()
		ms.unmap = nil
		return err
	}
	return nil
}

// Closed reports whether the last reference is gone and the mapping (if
// any) has been released — observability for lifetime tests.
func (ms *MappedSegment) Closed() bool { return ms.closed.Load() }

// Snapshot materializes the mapped arrays into an owned, row-shaped
// SegmentSnapshot (tests and the chaos harness's reference states).
func (ms *MappedSegment) Snapshot() *SegmentSnapshot {
	n := ms.Rows()
	s := &SegmentSnapshot{VocabN: ms.VocabN}
	s.Rows = make([]SegmentRow, n)
	for i := 0; i < n; i++ {
		row := ms.Row(i)
		s.Rows[i] = SegmentRow{
			Handle:  ms.Handles[i],
			Name:    ms.Name(i),
			ElemIDs: append([]int32(nil), row...),
		}
	}
	if len(ms.Dead) > 0 {
		s.Dead = append([]uint64(nil), ms.Dead...)
	}
	return s
}

// WriteSegmentV2 serializes a segment snapshot in the flat v2 layout.
func WriteSegmentV2(w io.Writer, s *SegmentSnapshot) error {
	nRows := len(s.Rows)
	if nRows > maxBinCount {
		return fmt.Errorf("store: write segment: %d rows exceeds sanity bound", nRows)
	}
	rowOffs := make([]int64, nRows+1)
	nameOffs := make([]int64, nRows+1)
	handles := make([]int64, nRows)
	var blob bytes.Buffer
	nElems := int64(0)
	for i, row := range s.Rows {
		if len(row.Name) > maxBinString {
			return fmt.Errorf("store: write segment: row %d name length %d exceeds sanity bound", i, len(row.Name))
		}
		nElems += int64(len(row.ElemIDs))
		rowOffs[i+1] = nElems
		blob.WriteString(row.Name)
		nameOffs[i+1] = int64(blob.Len())
		handles[i] = row.Handle
	}
	if nElems > maxBinCount {
		return fmt.Errorf("store: write segment: %d elements exceeds sanity bound", nElems)
	}
	deadWords := (nRows + 63) / 64
	dead := s.Dead
	switch {
	case len(dead) == deadWords:
	case len(dead) == 0:
		dead = make([]uint64, deadWords)
	default:
		return fmt.Errorf("store: write segment: %d tombstone words for %d rows (want %d)", len(dead), nRows, deadWords)
	}

	elems := make([]int32, 0, nElems)
	for _, row := range s.Rows {
		elems = append(elems, row.ElemIDs...)
	}

	sections := [segV2Sections][]byte{
		encI64(rowOffs),
		encI32(elems),
		encI64(handles),
		encI64(nameOffs),
		blob.Bytes(),
		encU64(dead),
	}

	// Lay the sections out canonically and build the header.
	header := make([]byte, segV2Page)
	copy(header, segMagicV2[:])
	off := int64(segV2Page)
	for i, sec := range sections {
		entry := header[segV2TableOff+i*segV2EntrySize:]
		binary.LittleEndian.PutUint64(entry[0:], uint64(off))
		binary.LittleEndian.PutUint64(entry[8:], uint64(len(sec)))
		binary.LittleEndian.PutUint32(entry[16:], uint32(i+1))
		binary.LittleEndian.PutUint32(entry[20:], crc32.ChecksumIEEE(sec))
		off = alignPage(off + int64(len(sec)))
	}
	fileSize := off
	for i, v := range []uint64{
		uint64(s.VocabN), uint64(nRows), uint64(nElems),
		uint64(blob.Len()), uint64(deadWords), uint64(fileSize), segV2Sections,
	} {
		binary.LittleEndian.PutUint64(header[8+i*8:], v)
	}
	binary.LittleEndian.PutUint32(header[segV2CRCOff:], crc32.ChecksumIEEE(header[:segV2CRCOff]))

	bw := bufio.NewWriterSize(w, 1<<16)
	var pad [segV2Page]byte
	if _, err := bw.Write(header); err != nil {
		return fmt.Errorf("store: write segment: %w", err)
	}
	for _, sec := range sections {
		if _, err := bw.Write(sec); err != nil {
			return fmt.Errorf("store: write segment: %w", err)
		}
		if gap := alignPage(int64(len(sec))) - int64(len(sec)); gap > 0 {
			if _, err := bw.Write(pad[:gap]); err != nil {
				return fmt.Errorf("store: write segment: %w", err)
			}
		}
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("store: write segment: %w", err)
	}
	return nil
}

// SaveSegmentV2 writes the snapshot to path in v2 layout and syncs it.
func SaveSegmentV2(fsys FS, path string, s *SegmentSnapshot) error {
	return saveSynced(fsys, path, func(w io.Writer) error { return WriteSegmentV2(w, s) })
}

// ErrSegmentV1 reports a file in the v1 segment layout (magic KSEG\x01):
// intact as far as anyone can tell, but written by a build older than this
// package's decoder. segment.Open matches it with errors.Is to refuse the
// directory by name instead of quarantining the file as damaged.
var ErrSegmentV1 = errors.New("v1 segment layout (magic KSEG\\x01), which this build does not decode")

// OpenMappedSegment opens the v2 segment at path for zero-copy serving.
// When fsys supports mmap (the production osFS on unix) the file is
// mapped; otherwise — FaultFS, non-unix builds — it is read through the
// FS seam into an aligned heap buffer, preserving fault-injection
// coverage at the cost of the copy. The returned segment starts with one
// reference; the caller owns the matching Release.
func OpenMappedSegment(fsys FS, path string) (*MappedSegment, error) {
	ms := &MappedSegment{}
	if mm, ok := fsys.(Mmapper); ok {
		data, unmap, err := mm.Mmap(path)
		if err == nil {
			ms.data, ms.unmap = data, unmap
		} else if !mmapFallback(err) {
			return nil, fmt.Errorf("store: mmap %s: %w", path, err)
		}
	}
	if ms.data == nil {
		raw, err := readFileFS(fsys, path)
		if err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
		ms.data = alignedBytes(raw)
	}
	ms.refs.Store(1)
	if err := ms.parse(); err != nil {
		ms.Release()
		if errors.Is(err, ErrSegmentV1) {
			return nil, fmt.Errorf("store: %s: %w", path, err)
		}
		return nil, fmt.Errorf("store: corrupt segment %s: %w", path, err)
	}
	return ms, nil
}

// parse validates the entire file — header CRC, canonical section layout,
// per-section CRCs, zero padding, CSR monotonicity, horizon bounds — and
// installs the typed views. Everything is checked before any view escapes:
// a v2 file either parses completely or is rejected completely.
func (ms *MappedSegment) parse() error {
	data := ms.data
	if len(data) >= 5 && [5]byte(data[:5]) == segMagicV1 {
		return ErrSegmentV1
	}
	if len(data) < 5 || [5]byte(data[:5]) != segMagicV2 {
		return fmt.Errorf("not a koios segment file (magic %q)", data[:min(len(data), 5)])
	}
	if len(data) < segV2Page {
		return fmt.Errorf("file shorter than header page (%d bytes)", len(data))
	}
	if got, want := binary.LittleEndian.Uint32(data[segV2CRCOff:]), crc32.ChecksumIEEE(data[:segV2CRCOff]); got != want {
		return fmt.Errorf("header checksum mismatch (stored %08x, computed %08x)", got, want)
	}
	var fields [7]uint64
	for i := range fields {
		fields[i] = binary.LittleEndian.Uint64(data[8+i*8:])
	}
	vocabN, nRows, nElems, blobLen, deadWords, fileSize, secCount :=
		fields[0], fields[1], fields[2], fields[3], fields[4], fields[5], fields[6]
	if secCount != segV2Sections {
		return fmt.Errorf("section count %d (want %d)", secCount, segV2Sections)
	}
	if vocabN > maxBinCount || nRows > maxBinCount || nElems > maxBinCount {
		return fmt.Errorf("counts exceed sanity bound (vocab %d, rows %d, elems %d)", vocabN, nRows, nElems)
	}
	if fileSize != uint64(len(data)) {
		return fmt.Errorf("header file size %d, actual %d", fileSize, len(data))
	}
	if blobLen > fileSize || deadWords != uint64(nRows+63)/64 {
		return fmt.Errorf("inconsistent header (blob %d, dead words %d for %d rows)", blobLen, deadWords, nRows)
	}
	if !allZero(data[5:8]) || !allZero(data[segV2HeaderLen:segV2Page]) {
		return fmt.Errorf("nonzero header padding")
	}

	want := [segV2Sections]uint64{
		(nRows + 1) * 8, nElems * 4, nRows * 8, (nRows + 1) * 8, blobLen, deadWords * 8,
	}
	var secs [segV2Sections][]byte
	end := uint64(segV2Page)
	for i := 0; i < segV2Sections; i++ {
		entry := data[segV2TableOff+i*segV2EntrySize:]
		off := binary.LittleEndian.Uint64(entry[0:])
		length := binary.LittleEndian.Uint64(entry[8:])
		kind := binary.LittleEndian.Uint32(entry[16:])
		crc := binary.LittleEndian.Uint32(entry[20:])
		if kind != uint32(i+1) {
			return fmt.Errorf("section %d kind %d (want %d)", i, kind, i+1)
		}
		if length != want[i] {
			return fmt.Errorf("section %d length %d (want %d)", i+1, length, want[i])
		}
		if off != uint64(alignPage(int64(end))) || off+length > fileSize || off+length < off {
			return fmt.Errorf("section %d at %d+%d violates canonical layout", i+1, off, length)
		}
		if !allZero(data[end:off]) {
			return fmt.Errorf("nonzero padding before section %d", i+1)
		}
		sec := data[off : off+length]
		if got := crc32.ChecksumIEEE(sec); got != crc {
			return fmt.Errorf("section %d checksum mismatch (stored %08x, computed %08x)", i+1, crc, got)
		}
		secs[i] = sec
		end = off + length
	}
	if uint64(alignPage(int64(end))) != fileSize || !allZero(data[end:]) {
		return fmt.Errorf("trailing bytes after last section")
	}

	// alias gates the reinterpret casts (little-endian hosts only); zero
	// records whether data is a live mapping of the file — the nameBlob
	// always aliases data, so even a big-endian mapped open counts.
	alias := hostLittleEndian
	ms.zero = ms.unmap != nil
	ms.VocabN = int(vocabN)
	ms.RowOffs = viewI64(secs[0], int(nRows)+1, alias)
	ms.ElemIDs = viewI32(secs[1], int(nElems), alias)
	ms.Handles = viewI64(secs[2], int(nRows), alias)
	ms.nameOffs = viewI64(secs[3], int(nRows)+1, alias)
	ms.nameBlob = secs[4]
	ms.Dead = viewU64(secs[5], int(deadWords), alias)

	// Semantic validation: CSR offsets monotone and closed over their
	// arrays, every element ID inside the horizon (the v1 decoder's checks,
	// done in the same single pass — satellite: fail fast on first bad ID).
	if err := checkOffsets(ms.RowOffs, int64(nElems), "row"); err != nil {
		return err
	}
	if err := checkOffsets(ms.nameOffs, int64(blobLen), "name"); err != nil {
		return err
	}
	horizon := int32(vocabN)
	for i, id := range ms.ElemIDs {
		if id < 0 || id >= horizon {
			return fmt.Errorf("element %d token ID %d outside horizon %d", i, id, horizon)
		}
	}
	return nil
}

func checkOffsets(offs []int64, total int64, what string) error {
	if offs[0] != 0 || offs[len(offs)-1] != total {
		return fmt.Errorf("%s offsets do not span [0,%d]", what, total)
	}
	for i := 1; i < len(offs); i++ {
		if offs[i] < offs[i-1] {
			return fmt.Errorf("%s offsets not monotone at %d", what, i)
		}
	}
	return nil
}

func allZero(b []byte) bool {
	for len(b) >= 8 {
		if binary.LittleEndian.Uint64(b) != 0 {
			return false
		}
		b = b[8:]
	}
	for _, c := range b {
		if c != 0 {
			return false
		}
	}
	return true
}

// alignedBytes returns raw if its base is 8-byte aligned, otherwise a copy
// in a uint64-backed buffer. The reinterpret casts below require it; mmap
// is page-aligned by construction, heap buffers from io.ReadAll are not
// guaranteed to be.
func alignedBytes(raw []byte) []byte {
	if len(raw) == 0 || uintptr(unsafe.Pointer(unsafe.SliceData(raw)))%8 == 0 {
		return raw
	}
	buf := make([]uint64, (len(raw)+7)/8)
	dst := unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(buf))), len(buf)*8)
	copy(dst, raw)
	return dst[:len(raw)]
}

// The view helpers reinterpret a section's bytes as the typed array when
// zero-copy is possible, else decode element-wise into a fresh slice.

func viewI64(b []byte, n int, zero bool) []int64 {
	if n == 0 {
		return nil
	}
	if zero {
		return unsafe.Slice((*int64)(unsafe.Pointer(unsafe.SliceData(b))), n)
	}
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(binary.LittleEndian.Uint64(b[i*8:]))
	}
	return out
}

func viewI32(b []byte, n int, zero bool) []int32 {
	if n == 0 {
		return nil
	}
	if zero {
		return unsafe.Slice((*int32)(unsafe.Pointer(unsafe.SliceData(b))), n)
	}
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(b[i*4:]))
	}
	return out
}

func viewU64(b []byte, n int, zero bool) []uint64 {
	if n == 0 {
		return nil
	}
	if zero {
		return unsafe.Slice((*uint64)(unsafe.Pointer(unsafe.SliceData(b))), n)
	}
	out := make([]uint64, n)
	for i := range out {
		out[i] = binary.LittleEndian.Uint64(b[i*8:])
	}
	return out
}

func encI64(v []int64) []byte {
	out := make([]byte, len(v)*8)
	for i, x := range v {
		binary.LittleEndian.PutUint64(out[i*8:], uint64(x))
	}
	return out
}

func encI32(v []int32) []byte {
	out := make([]byte, len(v)*4)
	for i, x := range v {
		binary.LittleEndian.PutUint32(out[i*4:], uint32(x))
	}
	return out
}

func encU64(v []uint64) []byte {
	out := make([]byte, len(v)*8)
	for i, x := range v {
		binary.LittleEndian.PutUint64(out[i*8:], x)
	}
	return out
}

// VerifySegment re-validates the snapshot at path — checksums, structure,
// horizon — without keeping anything: the scrub primitive. The file is
// parsed in place; no row is materialized.
func VerifySegment(fsys FS, path string) error {
	ms, err := OpenMappedSegment(fsys, path)
	if err != nil {
		return err
	}
	return ms.Release()
}
