// Command koios-search runs a single top-k semantic overlap query and
// prints the result with filter statistics — either locally against a
// synthesized dataset, or remotely against a running koios-server.
//
// Usage:
//
//	koios-search -dataset opendata -scale 0.1 -query 3 -k 5
//	koios-search -dataset twitter -tokens "word1,word2,word3"
//	koios-search -server http://localhost:7411 -tokens "word1,word2"
//
// Remote queries go through the resilient client: transient failures
// (connection errors, 429 load shedding, 5xx) retry with backoff inside
// the -timeout budget, honoring the server's Retry-After.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	koios "repro"
	"repro/internal/server"
)

func main() {
	if err := run(context.Background(), os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// run answers the one query args name and prints it to stdout.
func run(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("koios-search", flag.ContinueOnError)
	var (
		dataset = fs.String("dataset", "opendata", "dataset kind: dblp, opendata, twitter, wdc")
		scale   = fs.Float64("scale", 0.1, "dataset scale factor")
		queryIx = fs.Int("query", 0, "benchmark query index to run")
		tokens  = fs.String("tokens", "", "comma-separated query tokens (overrides -query)")
		k       = fs.Int("k", 10, "result size")
		alpha   = fs.Float64("alpha", 0.8, "element similarity threshold")
		parts   = fs.Int("partitions", 4, "repository partitions")
		workers = fs.Int("workers", 1, "concurrent verifications per search")
		remote  = fs.String("server", "", "query a running koios-server at this base URL (e.g. http://localhost:7411) instead of building a local engine")
		timeout = fs.Duration("timeout", 30*time.Second, "overall remote query budget, retries included (with -server)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}
	var query []string
	for _, t := range strings.Split(*tokens, ",") {
		if t = strings.TrimSpace(t); t != "" {
			query = append(query, t)
		}
	}

	if *remote != "" {
		if len(query) == 0 {
			return fmt.Errorf("koios-search: -server mode needs -tokens (the benchmark dataset lives in the server)")
		}
		ctx, cancel := context.WithTimeout(ctx, *timeout)
		defer cancel()
		resp, err := server.NewClient(*remote, nil).SearchContext(ctx, query, *k)
		if err != nil {
			return fmt.Errorf("koios-search: %w", err)
		}
		fmt.Fprintf(stdout, "top-%d results from %s:\n", *k, *remote)
		for rank, r := range resp.Results {
			fmt.Fprintf(stdout, "  #%-3d %-18s score=%-8.2f verified=%v\n", rank+1, r.SetName, r.Score, r.Verified)
		}
		st := resp.Stats
		fmt.Fprintf(stdout, "\nfilters: candidates=%d iUB-pruned=%d no-EM=%d EM-early=%d EM=%d  (stream tuples: %d, segments: %d)\n",
			st.Candidates, st.IUBPruned, st.NoEM, st.EMEarly, st.EMFull, st.StreamTuples, st.Segments)
		return nil
	}

	ds, err := koios.GenerateDataset(*dataset, *scale)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "dataset %s: %d sets\n", ds.Name, len(ds.Collection))
	if len(query) == 0 {
		if *queryIx < 0 || *queryIx >= len(ds.Queries) {
			return fmt.Errorf("query index %d out of range (0..%d)", *queryIx, len(ds.Queries)-1)
		}
		q := ds.Queries[*queryIx]
		query = q.Elements
		fmt.Fprintf(stdout, "query: benchmark #%d (from set %d, %d elements)\n", *queryIx, q.SourceSet, len(query))
	}

	eng := koios.NewWithVectors(ds.Collection, ds.Vectors, koios.Config{
		K: *k, Alpha: *alpha, Partitions: *parts, Workers: *workers, ExactScores: true,
	})
	results, stats := eng.Search(query)

	fmt.Fprintf(stdout, "\ntop-%d results (α=%.2f):\n", *k, *alpha)
	for rank, r := range results {
		fmt.Fprintf(stdout, "  #%-3d %-18s score=%-8.2f verified=%v\n", rank+1, r.SetName, r.Score, r.Verified)
	}
	fmt.Fprintf(stdout, "\nphases: refine=%v postproc=%v  (stream tuples: %d)\n",
		stats.RefineTime.Round(1000), stats.PostprocTime.Round(1000), stats.StreamTuples)
	fmt.Fprintf(stdout, "filters: candidates=%d iUB-pruned=%d no-EM=%d EM-early=%d EM=%d finalize-EM=%d\n",
		stats.Candidates, stats.IUBPruned, stats.NoEM, stats.EMEarly, stats.EMFull, stats.FinalizeEM)
	fmt.Fprintf(stdout, "memory: %.2f MB (stream %.2f, refine %.2f, postproc %.2f)\n",
		float64(stats.TotalBytes())/1048576,
		float64(stats.MemStreamBytes)/1048576,
		float64(stats.MemCandBytes)/1048576,
		float64(stats.MemPostprocBytes)/1048576)
	return nil
}
