package store

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
)

// Uvarint-framed fields shared by the dictionary file and the WAL record
// payload: binWriter accumulates an IEEE CRC32 so the dictionary file ends
// in a checksum over its payload (parseDict checks it), and binReader
// decodes a WAL record whose frame CRC already passed, failing with a clear
// error on a truncated or corrupt field instead of panicking. Limits below
// are sanity bounds against reading a corrupt length field as a huge
// allocation, not engine limits.
const (
	maxBinString = 1 << 24 // longest single token / set name
	maxBinCount  = 1 << 28 // most rows / elements / tokens in one file
)

// binWriter buffers writes and accumulates the payload CRC.
type binWriter struct {
	w   *bufio.Writer
	crc uint32
	err error
}

func newBinWriter(w io.Writer) *binWriter { return &binWriter{w: bufio.NewWriter(w)} }

func (b *binWriter) raw(p []byte) {
	if b.err != nil {
		return
	}
	b.crc = crc32.Update(b.crc, crc32.IEEETable, p)
	_, b.err = b.w.Write(p)
}

func (b *binWriter) uvarint(v uint64) {
	var buf [binary.MaxVarintLen64]byte
	b.raw(buf[:binary.PutUvarint(buf[:], v)])
}

func (b *binWriter) str(s string) {
	b.uvarint(uint64(len(s)))
	b.raw([]byte(s))
}

// finish appends the CRC of everything written so far and flushes.
func (b *binWriter) finish() error {
	if b.err != nil {
		return b.err
	}
	var buf [4]byte
	binary.LittleEndian.PutUint32(buf[:], b.crc)
	if _, err := b.w.Write(buf[:]); err != nil {
		return err
	}
	return b.w.Flush()
}

// binReader reads the fields binWriter writes; any I/O error (including
// io.ErrUnexpectedEOF on a truncated payload) sticks.
type binReader struct {
	r   *bufio.Reader
	err error
}

func newBinReader(r io.Reader) *binReader { return &binReader{r: bufio.NewReader(r)} }

func (b *binReader) raw(n int) []byte {
	if b.err != nil {
		return nil
	}
	p := make([]byte, n)
	if _, err := io.ReadFull(b.r, p); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		b.err = err
		return nil
	}
	return p
}

func (b *binReader) uvarint() uint64 {
	if b.err != nil {
		return 0
	}
	v, err := binary.ReadUvarint(b.r)
	if err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		b.err = err
		return 0
	}
	return v
}

func (b *binReader) count(what string) int {
	v := b.uvarint()
	if b.err == nil && v > maxBinCount {
		b.err = fmt.Errorf("%s count %d exceeds sanity bound", what, v)
	}
	return int(v)
}

func (b *binReader) str(what string) string {
	n := b.uvarint()
	if b.err == nil && n > maxBinString {
		b.err = fmt.Errorf("%s length %d exceeds sanity bound", what, n)
	}
	return string(b.raw(int(n)))
}
