package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
)

// The write-ahead log is the hot half of the durable engine: every Insert
// and Delete appends one record before it is applied in memory, and a
// checkpoint starts a fresh (empty) log once the state it covered has been
// persisted as segment snapshots. Records are individually framed —
// little-endian length + CRC32 + payload — so a crash mid-append leaves a
// torn tail that OpenWAL detects, truncates, and replays around: recovery
// is always "manifest state + every complete record", never a panic.

// WALOp tags a WAL record.
type WALOp byte

const (
	// WALInsert records an insert/replace: the assigned handle, the
	// resolved name (auto-names are resolved before logging, so replay is
	// deterministic), and the raw elements.
	WALInsert WALOp = 1
	// WALDelete records a delete by name.
	WALDelete WALOp = 2
)

// WALRecord is one logged operation.
type WALRecord struct {
	Op       WALOp
	Handle   int64 // inserts only
	Name     string
	Elements []string // inserts only
}

// WAL is an append-only operation log. Appends are not internally
// synchronized — the segment manager serializes them under its writer lock.
type WAL struct {
	f    FSFile
	path string
	// written is the log's current byte length (header + every appended
	// record): walHeaderLen on a fresh log, the resume offset on a
	// recovered one. It feeds AppendedBytes — the maintenance-debt measure
	// "WAL bytes since the last checkpoint" — without a Stat call.
	written int64
	// frame is Append's encoding buffer, reused from record to record.
	frame []byte
}

// walHeaderLen is magic(5) + generation(8).
const walHeaderLen = 13

// walResyncLimit bounds how far past a corrupt frame ScanWAL looks for
// later intact records (mid-log gap detection).
const walResyncLimit = 4 << 20

// CreateWAL creates (or truncates) an empty log for the given checkpoint
// generation and syncs the header.
func CreateWAL(fsys FS, path string, gen uint64) (*WAL, error) {
	f, err := fsys.Create(path)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	var hdr [walHeaderLen]byte
	copy(hdr[:], walMagic[:])
	binary.LittleEndian.PutUint64(hdr[5:], gen)
	if _, err := f.Write(hdr[:]); err != nil {
		f.Close()
		return nil, fmt.Errorf("store: write WAL header: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, fmt.Errorf("store: sync WAL header: %w", err)
	}
	return &WAL{f: f, path: path, written: walHeaderLen}, nil
}

// OpenWAL opens an existing log, verifies it belongs to generation gen,
// reads every complete record, truncates any torn tail (a crash mid-append),
// and returns the log positioned for further appends.
func OpenWAL(fsys FS, path string, gen uint64) (*WAL, []WALRecord, error) {
	f, err := fsys.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return nil, nil, fmt.Errorf("store: %w", err)
	}
	recs, end, err := scanWAL(f, gen)
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	// Drop the torn tail (if any) so appends resume at the last complete
	// record — a torn record must never become a valid prefix of a new one.
	if err := f.Truncate(end); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("store: truncate torn WAL tail: %w", err)
	}
	if _, err := f.Seek(end, io.SeekStart); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("store: %w", err)
	}
	return &WAL{f: f, path: path, written: end}, recs, nil
}

// ResumeWAL opens an existing log for appending at end — the offset just
// past the last complete record, as reported by a preceding ScanWAL —
// truncating whatever lies beyond it (a torn tail, or gap debris the
// caller has already copied to quarantine) and seeking there. It skips the
// record re-scan OpenWAL would pay: on the recovery path the log was fully
// scanned and validated moments earlier, and decoding every record twice
// doubles the replay cost of a crash restart for nothing.
func ResumeWAL(fsys FS, path string, end int64) (*WAL, error) {
	f, err := fsys.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	if err := f.Truncate(end); err != nil {
		f.Close()
		return nil, fmt.Errorf("store: truncate torn WAL tail: %w", err)
	}
	if _, err := f.Seek(end, io.SeekStart); err != nil {
		f.Close()
		return nil, fmt.Errorf("store: %w", err)
	}
	return &WAL{f: f, path: path, written: end}, nil
}

// ScanWAL reads the log read-only: every complete record, the offset just
// past the last one, and whether intact records exist beyond a corrupt
// frame. A torn tail (crash mid-append) has nothing valid after the break,
// so damaged=true means mid-log corruption — replaying only the prefix
// would silently lose the later records, and the caller must surface that
// (quarantine + degraded) instead of pretending the recovery was complete.
func ScanWAL(fsys FS, path string, gen uint64) (recs []WALRecord, end int64, damaged bool, err error) {
	f, err := fsys.Open(path)
	if err != nil {
		return nil, 0, false, fmt.Errorf("store: %w", err)
	}
	defer f.Close()
	recs, end, err = scanWAL(f, gen)
	if err != nil {
		return nil, 0, false, err
	}
	return recs, end, scanForGap(f, end), nil
}

// scanForGap looks for a valid record frame strictly after the offset the
// forward scan stopped at. A CRC-checked frame there cannot be torn-tail
// debris — random bytes pass the size/CRC/decode gauntlet with probability
// ~2⁻³². Bounded to walResyncLimit bytes; best-effort (read errors report
// no gap).
func scanForGap(f FSFile, end int64) bool {
	if _, err := f.Seek(end, io.SeekStart); err != nil {
		return false
	}
	buf, err := io.ReadAll(io.LimitReader(f, walResyncLimit))
	if err != nil || len(buf) <= 8 {
		return false
	}
	// Offset 0 is the frame the forward scan already rejected; anything
	// valid strictly after it means records were skipped.
	for o := 1; o+8 < len(buf); o++ {
		size := binary.LittleEndian.Uint32(buf[o : o+4])
		if size > maxBinCount || o+8+int(size) > len(buf) {
			continue
		}
		payload := buf[o+8 : o+8+int(size)]
		if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(buf[o+4:o+8]) {
			continue
		}
		if _, err := decodeWALRecord(payload); err == nil {
			return true
		}
	}
	return false
}

// scanWAL reads records until EOF or the first torn/corrupt frame,
// returning the byte offset just past the last complete record.
func scanWAL(f FSFile, gen uint64) ([]WALRecord, int64, error) {
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return nil, 0, fmt.Errorf("store: %w", err)
	}
	var hdr [walHeaderLen]byte
	if _, err := io.ReadFull(f, hdr[:]); err != nil {
		return nil, 0, fmt.Errorf("store: WAL header: %w", err)
	}
	if !bytes.Equal(hdr[:5], walMagic[:]) {
		return nil, 0, fmt.Errorf("store: not a koios WAL file (magic %q)", hdr[:5])
	}
	if g := binary.LittleEndian.Uint64(hdr[5:]); g != gen {
		return nil, 0, fmt.Errorf("store: WAL generation %d, manifest expects %d", g, gen)
	}
	var recs []WALRecord
	end := int64(walHeaderLen)
	var frame [8]byte
	for {
		if _, err := io.ReadFull(f, frame[:]); err != nil {
			break // clean EOF or torn frame header
		}
		size := binary.LittleEndian.Uint32(frame[:4])
		crc := binary.LittleEndian.Uint32(frame[4:])
		if size > maxBinCount {
			break // corrupt length — treat as torn tail
		}
		payload := make([]byte, size)
		if _, err := io.ReadFull(f, payload); err != nil {
			break // torn payload
		}
		if crc32.ChecksumIEEE(payload) != crc {
			break // torn or corrupt record
		}
		rec, err := decodeWALRecord(payload)
		if err != nil {
			break // framed but undecodable — stop, like any torn tail
		}
		recs = append(recs, rec)
		end += int64(8 + size)
	}
	return recs, end, nil
}

// Append logs one record. The frame — length and CRC32 of the payload, then
// the payload — is encoded into the log's own buffer and written in a
// single Write call; durability against power loss additionally needs Sync.
func (w *WAL) Append(rec WALRecord) error {
	buf := appendWALRecord(append(w.frame[:0], make([]byte, 8)...), rec)
	w.frame = buf
	payload := buf[8:]
	binary.LittleEndian.PutUint32(buf[:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[4:8], crc32.ChecksumIEEE(payload))
	if _, err := w.f.Write(buf); err != nil {
		return fmt.Errorf("store: WAL append: %w", err)
	}
	w.written += int64(len(buf))
	return nil
}

// AppendedBytes returns the record bytes the log holds past its header —
// zero right after CreateWAL, growing with every Append, and equal to the
// un-checkpointed record volume on a resumed log. This is the "WAL bytes
// since the last checkpoint" half of maintenance debt: a checkpoint swaps
// in a fresh log, resetting it to zero.
func (w *WAL) AppendedBytes() int64 { return w.written - walHeaderLen }

// Sync flushes appended records to stable storage.
func (w *WAL) Sync() error {
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("store: WAL sync: %w", err)
	}
	return nil
}

// Close closes the log file.
func (w *WAL) Close() error { return w.f.Close() }

// Path returns the log's file path.
func (w *WAL) Path() string { return w.path }

// appendWALRecord appends rec's payload encoding to buf: the op byte, then
// uvarint-framed fields, the layout decodeWALRecord reads.
func appendWALRecord(buf []byte, rec WALRecord) []byte {
	str := func(s string) {
		buf = binary.AppendUvarint(buf, uint64(len(s)))
		buf = append(buf, s...)
	}
	buf = append(buf, byte(rec.Op))
	switch rec.Op {
	case WALInsert:
		buf = binary.AppendUvarint(buf, uint64(rec.Handle))
		str(rec.Name)
		buf = binary.AppendUvarint(buf, uint64(len(rec.Elements)))
		for _, e := range rec.Elements {
			str(e)
		}
	case WALDelete:
		str(rec.Name)
	}
	return buf
}

func decodeWALRecord(payload []byte) (WALRecord, error) {
	br := newBinReader(bytes.NewReader(payload))
	op := br.raw(1)
	if br.err != nil {
		return WALRecord{}, br.err
	}
	rec := WALRecord{Op: WALOp(op[0])}
	switch rec.Op {
	case WALInsert:
		rec.Handle = int64(br.uvarint())
		rec.Name = br.str("set name")
		n := br.count("set element")
		rec.Elements = make([]string, 0, min(n, 1<<20))
		// Bail on the sticky error: the frame's CRC already passed, but a
		// count near maxBinCount in a hostile payload must not loop forever.
		for i := 0; i < n && br.err == nil; i++ {
			rec.Elements = append(rec.Elements, br.str("set element"))
		}
	case WALDelete:
		rec.Name = br.str("set name")
	default:
		return WALRecord{}, fmt.Errorf("unknown WAL op %d", rec.Op)
	}
	return rec, br.err
}
