package store

import (
	"bytes"
	"compress/gzip"
	"io"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/datagen"
	"repro/internal/embedding"
)

func sampleFile(t *testing.T) *File {
	t.Helper()
	model := embedding.NewModel(embedding.Config{Clusters: 20, Seed: 3})
	toks := model.Tokens()
	vecs, err := EncodeVectors(model.Dim(), toks, model.Vector)
	if err != nil {
		t.Fatal(err)
	}
	return &File{
		Name: "sample",
		Sets: []Set{
			{Name: "s1", Elements: toks[:5]},
			{Name: "s2", Elements: toks[5:9]},
			{Name: "empty", Elements: nil},
		},
		Vectors: vecs,
		Queries: []Query{{Interval: -1, SourceSet: 0, Elements: toks[:3]}},
	}
}

func TestRoundTripBuffer(t *testing.T) {
	f := sampleFile(t)
	var buf bytes.Buffer
	if err := Write(&buf, f); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != "sample" || len(got.Sets) != 3 || len(got.Queries) != 1 {
		t.Fatalf("round trip lost structure: %+v", got)
	}
	if got.Sets[0].Name != "s1" || len(got.Sets[0].Elements) != 5 {
		t.Fatalf("set content lost: %+v", got.Sets[0])
	}
}

func TestVectorsExactRoundTrip(t *testing.T) {
	model := embedding.NewModel(embedding.Config{Clusters: 15, Seed: 7})
	toks := model.Tokens()
	vecs, err := EncodeVectors(model.Dim(), toks, model.Vector)
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := vecs.Decode()
	if err != nil {
		t.Fatal(err)
	}
	for _, tok := range toks {
		want, ok := model.Vector(tok)
		if !ok {
			continue
		}
		got, ok := decoded[tok]
		if !ok {
			t.Fatalf("token %q lost", tok)
		}
		for d := range want {
			if got[d] != want[d] {
				t.Fatalf("vector for %q differs at dim %d: %v vs %v (must be bit-exact)", tok, d, got[d], want[d])
			}
		}
	}
}

func TestVectorsSkipOOV(t *testing.T) {
	model := embedding.NewModel(embedding.Config{Clusters: 30, OOVRate: 0.4, Seed: 11})
	toks := model.Tokens()
	vecs, err := EncodeVectors(model.Dim(), toks, model.Vector)
	if err != nil {
		t.Fatal(err)
	}
	if len(vecs.Tokens) >= len(toks) {
		t.Fatalf("OOV tokens not skipped: %d stored of %d", len(vecs.Tokens), len(toks))
	}
	decoded, err := vecs.Decode()
	if err != nil {
		t.Fatal(err)
	}
	if len(decoded) != len(vecs.Tokens) {
		t.Fatalf("decoded %d, stored %d", len(decoded), len(vecs.Tokens))
	}
}

func TestEncodeVectorsDimMismatch(t *testing.T) {
	_, err := EncodeVectors(4, []string{"a"}, func(string) ([]float32, bool) {
		return []float32{1, 2}, true
	})
	if err == nil {
		t.Fatal("dim mismatch accepted")
	}
}

func TestSaveLoadFile(t *testing.T) {
	f := sampleFile(t)
	path := filepath.Join(t.TempDir(), "ds.koios.gz")
	if err := saveSynced(OS, path, func(w io.Writer) error { return Write(w, f) }); err != nil {
		t.Fatal(err)
	}
	got, err := Load(OS, path)
	if err != nil {
		t.Fatal(err)
	}
	repo := got.Repository()
	if repo.Len() != 3 {
		t.Fatalf("repository has %d sets", repo.Len())
	}
	if repo.Set(0).Name != "s1" {
		t.Fatalf("set 0 = %q", repo.Set(0).Name)
	}
}

func TestLoadMissingFile(t *testing.T) {
	if _, err := Load(OS, filepath.Join(t.TempDir(), "nope.gz")); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	if _, err := Read(strings.NewReader("not gzip at all")); err == nil {
		t.Fatal("garbage accepted")
	}
	// Valid gzip, invalid JSON.
	var buf bytes.Buffer
	gz := gzip.NewWriter(&buf)
	gz.Write([]byte("{broken"))
	gz.Close()
	if _, err := Read(&buf); err == nil {
		t.Fatal("broken JSON accepted")
	}
}

func TestReadRejectsWrongVersion(t *testing.T) {
	var buf bytes.Buffer
	gz := gzip.NewWriter(&buf)
	gz.Write([]byte(`{"version": 999, "name": "x"}`))
	gz.Close()
	if _, err := Read(&buf); err == nil {
		t.Fatal("future version accepted")
	}
}

func TestDecodeRejectsTruncatedBlob(t *testing.T) {
	v := Vectors{Dim: 4, Tokens: []string{"a", "b"}, Data: "AAAA"} // 3 bytes
	if _, err := v.Decode(); err == nil {
		t.Fatal("truncated blob accepted")
	}
	v.Data = "%%%not-base64%%%"
	if _, err := v.Decode(); err == nil {
		t.Fatal("invalid base64 accepted")
	}
}

// TestDatasetEndToEnd: a generated dataset survives save/load and still
// searches identically (exercised by cmd/koios-server's load path).
func TestDatasetEndToEnd(t *testing.T) {
	ds := datagen.GenerateDefault(datagen.Twitter, 0.02)
	bench := datagen.NewBenchmark(ds, 1)
	vecs, err := EncodeVectors(ds.Model.Dim(), ds.Repo.Vocabulary(), ds.Model.Vector)
	if err != nil {
		t.Fatal(err)
	}
	f := &File{Name: string(ds.Kind)}
	for _, s := range ds.Repo.Sets() {
		f.Sets = append(f.Sets, Set{Name: s.Name, Elements: s.Elements})
	}
	for _, q := range bench.Queries {
		f.Queries = append(f.Queries, Query{Interval: q.Interval, SourceSet: q.SourceSet, Elements: q.Elements})
	}
	f.Vectors = vecs

	path := filepath.Join(t.TempDir(), "twitter.koios.gz")
	if err := saveSynced(OS, path, func(w io.Writer) error { return Write(w, f) }); err != nil {
		t.Fatal(err)
	}
	got, err := Load(OS, path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Repository().Len() != ds.Repo.Len() {
		t.Fatal("set count changed across save/load")
	}
	decoded, err := got.Vectors.Decode()
	if err != nil {
		t.Fatal(err)
	}
	if len(decoded) == 0 {
		t.Fatal("no vectors after round trip")
	}
	if len(got.Queries) != len(bench.Queries) {
		t.Fatal("queries lost")
	}
}
