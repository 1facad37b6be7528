package main

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"

	koios "repro"
	"repro/internal/store"
)

// TestOutputsMatchGenerateDataset: the JSON and TSV outputs hold the sets
// and queries of koios.GenerateDataset for the same kind and scale.
func TestOutputsMatchGenerateDataset(t *testing.T) {
	want, err := koios.GenerateDataset("dblp", 0.05)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-dataset", "dblp", "-scale", "0.05"}, &out); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Name    string
		Sets    []store.Set
		Queries []store.Query
	}
	if err := json.Unmarshal(out.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Name != "dblp" || len(doc.Sets) != len(want.Collection) || len(doc.Queries) != len(want.Queries) {
		t.Fatalf("json: %q with %d sets and %d queries, want dblp with %d and %d",
			doc.Name, len(doc.Sets), len(doc.Queries), len(want.Collection), len(want.Queries))
	}
	for i, s := range want.Collection {
		if doc.Sets[i].Name != s.Name || strings.Join(doc.Sets[i].Elements, "\t") != strings.Join(s.Elements, "\t") {
			t.Fatalf("json set %d = %v, want %v", i, doc.Sets[i], s)
		}
	}
	for i, q := range want.Queries {
		got := doc.Queries[i]
		if got.Interval != q.Interval || got.SourceSet != q.SourceSet || strings.Join(got.Elements, "\t") != strings.Join(q.Elements, "\t") {
			t.Fatalf("json query %d = %+v, want %+v", i, got, q)
		}
	}

	out.Reset()
	if err := run(context.Background(), []string{"-dataset", "dblp", "-scale", "0.05", "-format", "tsv"}, &out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(out.String(), "\n"), "\n")
	if len(lines) != len(want.Collection) {
		t.Fatalf("tsv: %d lines, want %d", len(lines), len(want.Collection))
	}
	for i, s := range want.Collection {
		if lines[i] != s.Name+"\t"+strings.Join(s.Elements, "\t") {
			t.Fatalf("tsv line %d = %q", i, lines[i])
		}
	}
}

func TestUnknownKindAndFormat(t *testing.T) {
	for _, args := range [][]string{{"-dataset", "bogus"}, {"-format", "xml"}} {
		var out bytes.Buffer
		if err := run(context.Background(), args, &out); err == nil || out.Len() != 0 {
			t.Fatalf("run %v = %v with %d bytes written, want an error and no output", args, err, out.Len())
		}
	}
}
