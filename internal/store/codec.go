package store

import (
	"encoding/binary"
	"fmt"
	"io"
)

// The dictionary file and the WAL record payload share one field encoding:
// unsigned varints, and strings as a uvarint length followed by the bytes.
// Both are written by appending to a byte slice (appendStr,
// binary.AppendUvarint) and read back from one in-memory buffer through
// sliceReader. The limits below are sanity bounds against reading a corrupt
// length field as a huge allocation, not engine limits.
const (
	maxBinString = 1 << 24 // longest single token / set name
	maxBinCount  = 1 << 28 // most rows / elements / tokens in one file
)

// appendStr appends s as a uvarint length followed by its bytes.
func appendStr(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// sliceReader decodes the fields appendStr and binary.AppendUvarint write,
// from b[off:]. Decoding is canonical: what it accepts re-encodes to the
// same bytes. The first error sticks and every later read returns zero
// values, so a decoder checks err once at the end; a truncated or corrupt
// field is an error, never a panic or a read past b.
type sliceReader struct {
	b   []byte
	off int
	err error
}

// left reports how many bytes are still unread.
func (r *sliceReader) left() int { return len(r.b) - r.off }

// uvarint reads an unsigned varint in its shortest form, the only one
// binary.AppendUvarint writes: a longer one (a last byte of zero) is an
// error, so every field decodes from exactly one byte sequence.
func (r *sliceReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.off:])
	switch {
	case n == 0:
		r.err = io.ErrUnexpectedEOF
		return 0
	case n < 0 || (n > 1 && r.b[r.off+n-1] == 0):
		r.err = fmt.Errorf("malformed uvarint")
		return 0
	}
	r.off += n
	return v
}

// count reads a uvarint element count and checks it against maxBinCount.
func (r *sliceReader) count(what string) int {
	v := r.uvarint()
	if r.err == nil && v > maxBinCount {
		r.err = fmt.Errorf("%s count %d exceeds sanity bound", what, v)
		return 0
	}
	return int(v)
}

// field reads a length-framed string and returns its bounds in b: the
// caller slices b[lo:hi] (or a string over b) without a copy.
func (r *sliceReader) field(what string) (lo, hi int) {
	n := r.uvarint()
	if r.err != nil {
		return 0, 0
	}
	if n > maxBinString {
		r.err = fmt.Errorf("%s length %d exceeds sanity bound", what, n)
		return 0, 0
	}
	if n > uint64(r.left()) {
		r.err = fmt.Errorf("%s: %w", what, io.ErrUnexpectedEOF)
		return 0, 0
	}
	lo = r.off
	r.off += int(n)
	return lo, r.off
}

// str reads a length-framed string into a fresh copy, so the result does
// not keep b alive.
func (r *sliceReader) str(what string) string {
	lo, hi := r.field(what)
	return string(r.b[lo:hi])
}
