// Package store persists repositories, embedding vectors and benchmark
// queries to disk and loads them back, so datasets can be generated once
// (cmd/koios-datagen), shared between runs, and served without regeneration
// (cmd/koios-server).
//
// The format is a single gzip-compressed JSON document. JSON keeps the files
// inspectable and diff-able; gzip keeps the vector payload (the bulk of the
// bytes) reasonable. Numbers round-trip exactly: vectors are stored as raw
// float32 bit patterns, not decimal.
package store

import (
	"bufio"
	"compress/gzip"
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"

	"repro/internal/sets"
)

// FormatVersion guards against reading files written by an incompatible
// layout.
const FormatVersion = 1

// File is the on-disk document.
type File struct {
	Version int     `json:"version"`
	Name    string  `json:"name"`
	Sets    []Set   `json:"sets"`
	Vectors Vectors `json:"vectors,omitempty"`
	Queries []Query `json:"queries,omitempty"`
}

// Set mirrors sets.Set without the repository-assigned ID.
type Set struct {
	Name     string   `json:"name"`
	Elements []string `json:"elements"`
}

// Query is a stored benchmark query.
type Query struct {
	Interval  int      `json:"interval"`
	SourceSet int      `json:"source_set"`
	Elements  []string `json:"elements"`
}

// Vectors stores token embeddings: a token list plus a base64 blob of
// little-endian float32s, dim values per token.
type Vectors struct {
	Dim    int      `json:"dim,omitempty"`
	Tokens []string `json:"tokens,omitempty"`
	Data   string   `json:"data,omitempty"`
}

// Empty reports whether no vectors are stored.
func (v Vectors) Empty() bool { return v.Dim == 0 || len(v.Tokens) == 0 }

// EncodeVectors packs per-token vectors for storage. Tokens without a
// vector (out of vocabulary) are skipped. Vector lengths must all equal dim.
func EncodeVectors(dim int, tokens []string, vec func(string) ([]float32, bool)) (Vectors, error) {
	var kept []string
	buf := make([]byte, 0, len(tokens)*dim*4)
	for _, tok := range tokens {
		v, ok := vec(tok)
		if !ok {
			continue
		}
		if len(v) != dim {
			return Vectors{}, fmt.Errorf("store: vector for %q has dim %d, want %d", tok, len(v), dim)
		}
		kept = append(kept, tok)
		for _, x := range v {
			buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(x))
		}
	}
	return Vectors{
		Dim:    dim,
		Tokens: kept,
		Data:   base64.StdEncoding.EncodeToString(buf),
	}, nil
}

// Decode unpacks the vectors into a lookup map.
func (v Vectors) Decode() (map[string][]float32, error) {
	if v.Empty() {
		return nil, nil
	}
	raw, err := base64.StdEncoding.DecodeString(v.Data)
	if err != nil {
		return nil, fmt.Errorf("store: corrupt vector blob: %w", err)
	}
	want := len(v.Tokens) * v.Dim * 4
	if len(raw) != want {
		return nil, fmt.Errorf("store: vector blob is %d bytes, want %d (%d tokens × dim %d)",
			len(raw), want, len(v.Tokens), v.Dim)
	}
	out := make(map[string][]float32, len(v.Tokens))
	off := 0
	for _, tok := range v.Tokens {
		vec := make([]float32, v.Dim)
		for d := 0; d < v.Dim; d++ {
			vec[d] = math.Float32frombits(binary.LittleEndian.Uint32(raw[off:]))
			off += 4
		}
		out[tok] = vec
	}
	return out, nil
}

// Write serializes the file to w (gzip JSON).
func Write(w io.Writer, f *File) error {
	f.Version = FormatVersion
	gz := gzip.NewWriter(w)
	enc := json.NewEncoder(gz)
	if err := enc.Encode(f); err != nil {
		gz.Close()
		return fmt.Errorf("store: encode: %w", err)
	}
	if err := gz.Close(); err != nil {
		return fmt.Errorf("store: flush: %w", err)
	}
	return nil
}

// Read deserializes a file from r.
func Read(r io.Reader) (*File, error) {
	gz, err := gzip.NewReader(r)
	if err != nil {
		return nil, fmt.Errorf("store: not a koios dataset file (gzip): %w", err)
	}
	defer gz.Close()
	var f File
	if err := json.NewDecoder(gz).Decode(&f); err != nil {
		return nil, fmt.Errorf("store: decode: %w", err)
	}
	if f.Version != FormatVersion {
		return nil, fmt.Errorf("store: file version %d, this build reads %d", f.Version, FormatVersion)
	}
	return &f, nil
}

// Load reads the file at path through fsys.
func Load(fsys FS, path string) (*File, error) {
	in, err := fsys.Open(path)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	defer in.Close()
	return Read(bufio.NewReader(in))
}

// Repository converts the stored sets into a repository.
func (f *File) Repository() *sets.Repository {
	raw := make([]sets.Set, len(f.Sets))
	for i, s := range f.Sets {
		raw[i] = sets.Set{Name: s.Name, Elements: s.Elements}
	}
	return sets.NewRepository(raw)
}
