// Command koios-datagen synthesizes one of the evaluation datasets and
// writes it to stdout or a file, as JSON (sets + benchmark queries), TSV
// (one set per line), or the binary store format that koios-server loads
// (sets + queries + embedding vectors, gzip).
//
// Usage:
//
//	koios-datagen -dataset wdc -scale 0.1 -format tsv -o wdc.tsv
//	koios-datagen -dataset dblp -format json | jq '.sets[0]'
//	koios-datagen -dataset opendata -format store -o opendata.koios.gz
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"repro/internal/datagen"
	"repro/internal/store"
)

func main() {
	if err := run(context.Background(), os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// run generates the dataset args name, once, and writes it in the -format
// to the -o file, or to stdout when there is none.
func run(_ context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("koios-datagen", flag.ContinueOnError)
	var (
		dataset = fs.String("dataset", "opendata", "dataset kind: dblp, opendata, twitter, wdc")
		scale   = fs.Float64("scale", 0.1, "dataset scale factor")
		format  = fs.String("format", "json", "output format: json, tsv or store")
		outPath = fs.String("o", "", "output file (default stdout)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}
	kind, err := datagen.ParseKind(*dataset)
	if err != nil {
		return fmt.Errorf("koios-datagen: %w", err)
	}
	if !slices.Contains([]string{"json", "tsv", "store"}, *format) {
		return fmt.Errorf("koios-datagen: unknown format %q (want json, tsv or store)", *format)
	}

	gen := datagen.GenerateDefault(kind, *scale)
	bench := datagen.NewBenchmark(gen, gen.Spec.Seed+1)
	doc := &store.File{Name: *dataset}
	for _, s := range gen.Repo.Sets() {
		doc.Sets = append(doc.Sets, store.Set{Name: s.Name, Elements: s.Elements})
	}
	for _, q := range bench.Queries {
		doc.Queries = append(doc.Queries, store.Query{Interval: q.Interval, SourceSet: q.SourceSet, Elements: q.Elements})
	}

	var f *os.File
	out := stdout
	if *outPath != "" {
		if f, err = os.Create(*outPath); err != nil {
			return err
		}
		defer f.Close() // for the error paths; success checks Close below
		out = f
	}
	w := bufio.NewWriter(out)
	switch *format {
	case "store":
		if doc.Vectors, err = store.EncodeVectors(gen.Model.Dim(), gen.Repo.Vocabulary(), gen.Model.Vector); err == nil {
			err = store.Write(w, doc)
		}
	case "json":
		// The store document without its version and vectors.
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		err = enc.Encode(struct {
			Name    string        `json:"name"`
			Sets    []store.Set   `json:"sets"`
			Queries []store.Query `json:"queries"`
		}{doc.Name, doc.Sets, doc.Queries})
	case "tsv":
		for _, s := range doc.Sets {
			fmt.Fprintf(w, "%s\t%s\n", s.Name, strings.Join(s.Elements, "\t"))
		}
	}
	if err == nil {
		err = w.Flush()
	}
	if err == nil && f != nil {
		err = f.Close()
	}
	return err
}
