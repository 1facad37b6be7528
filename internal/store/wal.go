package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
)

// The write-ahead log is the hot half of the durable engine: every Insert
// and Delete appends one record before it is applied in memory, and a
// checkpoint starts a fresh (empty) log once the state it covered has been
// persisted as segment snapshots. The file is the magic and the 8-byte
// generation, then one frame per record — little-endian payload length,
// CRC32 of the payload, payload — whose payload uses the field encoding of
// codec.go. A crash mid-append leaves a torn tail that recovery detects
// (ScanWAL, which reads the log whole and checks every frame with
// walFrame, stops at it), replays around, and truncates (ResumeWAL):
// recovery is always "manifest state + every complete record", never a
// panic.

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

// ResumeWAL opens an existing log for appending at end — the offset just
// past the last complete record, as reported by a preceding ScanWAL —
// truncating whatever lies beyond it (a torn tail, or gap debris the
// caller has already copied to quarantine) and seeking there. It does not
// re-scan the records: on the recovery path the log was fully scanned and
// validated moments earlier, and decoding every record twice would double
// the replay cost of a crash restart for nothing.
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
//
// The log is read whole through the FS seam, and both scans run over that
// one buffer through walFrame: the forward scan from the header to the
// first frame that fails, then the gap scan over at most walResyncLimit
// bytes after it. Records own their strings, so the buffer is garbage once
// ScanWAL returns.
func ScanWAL(fsys FS, path string, gen uint64) (recs []WALRecord, end int64, damaged bool, err error) {
	data, err := ReadFile(fsys, path)
	if err != nil {
		return nil, 0, false, fmt.Errorf("store: %w", err)
	}
	if len(data) < walHeaderLen {
		return nil, 0, false, fmt.Errorf("store: WAL header: %w", io.ErrUnexpectedEOF)
	}
	if [5]byte(data[:5]) != walMagic {
		return nil, 0, false, fmt.Errorf("store: not a koios WAL file (magic %q)", data[:5])
	}
	if g := binary.LittleEndian.Uint64(data[5:]); g != gen {
		return nil, 0, false, fmt.Errorf("store: WAL generation %d, manifest expects %d", g, gen)
	}
	off := walHeaderLen
	for {
		rec, n, ok := walFrame(data, off)
		if !ok {
			break // clean end, or a torn or corrupt frame
		}
		recs = append(recs, rec)
		off += n
	}
	// Anything valid strictly after the frame the forward scan rejected
	// means records were skipped. A CRC-checked, decodable frame there
	// cannot be torn-tail debris: random bytes pass the size/CRC/decode
	// gauntlet with probability ~2⁻³².
	window := data[:min(len(data), off+walResyncLimit)]
	for o := off + 1; o+8 < len(window); o++ {
		if _, _, ok := walFrame(window, o); ok {
			damaged = true
			break
		}
	}
	return recs, int64(off), damaged, nil
}

// walFrame is the one frame check of the log: the frame at buf[off:] —
// little-endian payload length, CRC32 of the payload, payload — must lie
// within buf, stay under the sanity bound, match its CRC and decode. It
// returns the record and the frame's length, or ok=false.
func walFrame(buf []byte, off int) (rec WALRecord, n int, ok bool) {
	if len(buf)-off < 8 {
		return WALRecord{}, 0, false
	}
	size := binary.LittleEndian.Uint32(buf[off:])
	if size > maxBinCount || uint64(size) > uint64(len(buf)-off-8) {
		return WALRecord{}, 0, false
	}
	payload := buf[off+8 : off+8+int(size)]
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(buf[off+4:]) {
		return WALRecord{}, 0, false
	}
	rec, err := decodeWALRecord(payload)
	if err != nil {
		return WALRecord{}, 0, false
	}
	return rec, 8 + int(size), true
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
// uvarint-framed fields (codec.go), the layout decodeWALRecord reads.
func appendWALRecord(buf []byte, rec WALRecord) []byte {
	buf = append(buf, byte(rec.Op))
	switch rec.Op {
	case WALInsert:
		buf = binary.AppendUvarint(buf, uint64(rec.Handle))
		buf = appendStr(buf, rec.Name)
		buf = binary.AppendUvarint(buf, uint64(len(rec.Elements)))
		for _, e := range rec.Elements {
			buf = appendStr(buf, e)
		}
	case WALDelete:
		buf = appendStr(buf, rec.Name)
	}
	return buf
}

// decodeWALRecord decodes one payload whose frame CRC already passed. The
// strings are copies: nothing in the record aliases the payload. A payload
// with bytes left over is refused, since appendWALRecord never writes one.
func decodeWALRecord(payload []byte) (WALRecord, error) {
	if len(payload) == 0 {
		return WALRecord{}, io.ErrUnexpectedEOF
	}
	rec := WALRecord{Op: WALOp(payload[0])}
	r := sliceReader{b: payload, off: 1}
	switch rec.Op {
	case WALInsert:
		rec.Handle = int64(r.uvarint())
		rec.Name = r.str("set name")
		n := r.count("set element")
		// Every element takes at least its length byte, so the bytes left
		// bound the count a hostile payload can make this allocate.
		rec.Elements = make([]string, 0, min(n, r.left()))
		for i := 0; i < n && r.err == nil; i++ {
			rec.Elements = append(rec.Elements, r.str("set element"))
		}
	case WALDelete:
		rec.Name = r.str("set name")
	default:
		return WALRecord{}, fmt.Errorf("unknown WAL op %d", rec.Op)
	}
	if r.err == nil && r.left() != 0 {
		r.err = fmt.Errorf("%d trailing payload bytes", r.left())
	}
	if r.err != nil {
		return WALRecord{}, r.err
	}
	return rec, nil
}
