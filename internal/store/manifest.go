package store

import (
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
)

// The manifest is the root of the durable engine's data directory: a small
// JSON document naming the live dictionary snapshot, the live segment
// snapshot files (with their current tombstone bitsets), the active WAL
// file, and the next insertion handle. It is committed by writing
// MANIFEST.tmp, fsyncing it, and atomically renaming it over MANIFEST —
// a crash anywhere in a checkpoint leaves either the old manifest (whose
// WAL still holds every operation the new files would have covered) or the
// new one; never a mix. JSON keeps it inspectable; the bulk state lives in
// the binary files it points to.

// ManifestVersion guards against opening a directory written by an
// incompatible layout.
const ManifestVersion = 1

// ManifestName is the manifest's file name inside the data directory.
const ManifestName = "MANIFEST"

// ErrUnsyncedCommit marks a manifest commit whose rename landed but whose
// directory fsync failed: in the live filesystem the new manifest IS
// authoritative (the rename overwrote the old one and cannot be rolled
// back), but its durability across a power cut is unproven. Callers must
// adopt the new manifest and may only treat the previous generation's
// files as disposable once a later commit syncs cleanly.
var ErrUnsyncedCommit = errors.New("store: manifest committed but directory sync failed")

// ManifestSegment names one live segment snapshot. Dead is the segment's
// current tombstone bitset — authoritative over the write-time bitset
// embedded in the snapshot file, since deletes keep landing after a segment
// is persisted and are folded in at the next checkpoint.
type ManifestSegment struct {
	File string `json:"file"`
	Rows int    `json:"rows"`
	// DeadB64 is the packed tombstone bitset (little-endian uint64 words),
	// empty when no row is tombstoned.
	DeadB64 string `json:"dead,omitempty"`
}

// SetDead packs the tombstone bitset; nil or all-zero words clear it.
func (ms *ManifestSegment) SetDead(words []uint64) {
	any := false
	for _, w := range words {
		if w != 0 {
			any = true
			break
		}
	}
	if !any {
		ms.DeadB64 = ""
		return
	}
	buf := make([]byte, 8*len(words))
	for i, w := range words {
		binary.LittleEndian.PutUint64(buf[i*8:], w)
	}
	ms.DeadB64 = base64.StdEncoding.EncodeToString(buf)
}

// Dead unpacks the tombstone bitset sized for the segment's rows; all-live
// segments return a zero bitset.
func (ms *ManifestSegment) Dead() ([]uint64, error) {
	words := make([]uint64, (ms.Rows+63)/64)
	if ms.DeadB64 == "" {
		return words, nil
	}
	raw, err := base64.StdEncoding.DecodeString(ms.DeadB64)
	if err != nil {
		return nil, fmt.Errorf("store: corrupt manifest tombstones: %w", err)
	}
	if len(raw) != 8*len(words) {
		return nil, fmt.Errorf("store: corrupt manifest: %d tombstone bytes for %d rows", len(raw), ms.Rows)
	}
	for i := range words {
		words[i] = binary.LittleEndian.Uint64(raw[i*8:])
	}
	return words, nil
}

// Manifest is the versioned root document of a data directory.
type Manifest struct {
	Version int `json:"version"`
	// Gen counts checkpoints; every checkpoint starts WAL generation Gen.
	Gen uint64 `json:"gen"`
	// Dict and WAL are file names inside the data directory.
	Dict string `json:"dict"`
	WAL  string `json:"wal"`
	// NextHandle is the first unassigned insertion handle as of the
	// checkpoint; WAL replay advances it past any logged insert.
	NextHandle int64             `json:"next_handle"`
	Segments   []ManifestSegment `json:"segments"`
}

// CommitManifest atomically publishes m as dir's manifest
// (write-temp-then-rename, with the temp file and directory fsynced). A
// failed directory fsync propagates: the rename may not survive power loss,
// so the commit cannot be reported durable.
func CommitManifest(fsys FS, dir string, m *Manifest) error {
	m.Version = ManifestVersion
	raw, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("store: encode manifest: %w", err)
	}
	tmp := filepath.Join(dir, ManifestName+".tmp")
	f, err := fsys.Create(tmp)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if _, err := f.Write(append(raw, '\n')); err != nil {
		f.Close()
		return fmt.Errorf("store: write manifest: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("store: sync manifest: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if err := fsys.Rename(tmp, filepath.Join(dir, ManifestName)); err != nil {
		return fmt.Errorf("store: commit manifest: %w", err)
	}
	if err := fsys.SyncDir(dir); err != nil {
		return fmt.Errorf("%w: %v", ErrUnsyncedCommit, err)
	}
	return nil
}

// LoadManifest reads dir's manifest. A directory that has never been
// checkpointed returns (nil, nil).
func LoadManifest(fsys FS, dir string) (*Manifest, error) {
	raw, err := ReadFile(fsys, filepath.Join(dir, ManifestName))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	var m Manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, fmt.Errorf("store: corrupt manifest: %w", err)
	}
	if m.Version != ManifestVersion {
		return nil, fmt.Errorf("store: manifest version %d, this build reads %d", m.Version, ManifestVersion)
	}
	if m.Dict == "" || m.WAL == "" {
		return nil, fmt.Errorf("store: corrupt manifest: missing dictionary or WAL name")
	}
	return &m, nil
}
