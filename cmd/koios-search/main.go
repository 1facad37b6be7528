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
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	koios "repro"
	"repro/internal/server"
)

func main() {
	var (
		dataset = flag.String("dataset", "opendata", "dataset kind: dblp, opendata, twitter, wdc")
		scale   = flag.Float64("scale", 0.1, "dataset scale factor")
		queryIx = flag.Int("query", 0, "benchmark query index to run")
		tokens  = flag.String("tokens", "", "comma-separated query tokens (overrides -query)")
		k       = flag.Int("k", 10, "result size")
		alpha   = flag.Float64("alpha", 0.8, "element similarity threshold")
		parts   = flag.Int("partitions", 4, "repository partitions")
		workers = flag.Int("workers", 4, "concurrent verifications per search")
		remote  = flag.String("server", "", "query a running koios-server at this base URL (e.g. http://localhost:7411) instead of building a local engine")
		timeout = flag.Duration("timeout", 30*time.Second, "overall remote query budget, retries included (with -server)")
	)
	flag.Parse()

	if *remote != "" {
		if err := searchRemote(*remote, *tokens, *k, *timeout); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	ds, err := koios.GenerateDataset(*dataset, *scale)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("dataset %s: %d sets\n", ds.Name, len(ds.Collection))

	var query []string
	switch {
	case *tokens != "":
		for _, t := range strings.Split(*tokens, ",") {
			if t = strings.TrimSpace(t); t != "" {
				query = append(query, t)
			}
		}
	case *queryIx >= 0 && *queryIx < len(ds.Queries):
		q := ds.Queries[*queryIx]
		query = q.Elements
		fmt.Printf("query: benchmark #%d (from set %d, %d elements)\n", *queryIx, q.SourceSet, len(query))
	default:
		fmt.Fprintf(os.Stderr, "query index %d out of range (0..%d)\n", *queryIx, len(ds.Queries)-1)
		os.Exit(1)
	}

	eng := koios.NewWithVectors(ds.Collection, ds.Vectors, koios.Config{
		K: *k, Alpha: *alpha, Partitions: *parts, Workers: *workers, ExactScores: true,
	})
	results, stats := eng.Search(query)

	fmt.Printf("\ntop-%d results (α=%.2f):\n", *k, *alpha)
	for rank, r := range results {
		fmt.Printf("  #%-3d %-18s score=%-8.2f verified=%v\n", rank+1, r.SetName, r.Score, r.Verified)
	}
	fmt.Printf("\nphases: refine=%v postproc=%v  (stream tuples: %d)\n",
		stats.RefineTime.Round(1000), stats.PostprocTime.Round(1000), stats.StreamTuples)
	fmt.Printf("filters: candidates=%d iUB-pruned=%d no-EM=%d EM-early=%d EM=%d finalize-EM=%d\n",
		stats.Candidates, stats.IUBPruned, stats.NoEM, stats.EMEarly, stats.EMFull, stats.FinalizeEM)
	fmt.Printf("memory: %.2f MB (stream %.2f, refine %.2f, postproc %.2f)\n",
		float64(stats.TotalBytes())/1048576,
		float64(stats.MemStreamBytes)/1048576,
		float64(stats.MemCandBytes)/1048576,
		float64(stats.MemPostprocBytes)/1048576)
}

// searchRemote runs one query against a koios-server through the resilient
// client, the whole exchange (retries included) bounded by timeout.
func searchRemote(base, tokens string, k int, timeout time.Duration) error {
	var query []string
	for _, t := range strings.Split(tokens, ",") {
		if t = strings.TrimSpace(t); t != "" {
			query = append(query, t)
		}
	}
	if len(query) == 0 {
		return fmt.Errorf("koios-search: -server mode needs -tokens (the benchmark dataset lives in the server)")
	}
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	c := server.NewClient(base, nil)
	resp, err := c.SearchContext(ctx, query, k)
	if err != nil {
		return fmt.Errorf("koios-search: %w", err)
	}
	fmt.Printf("top-%d results from %s:\n", k, base)
	for rank, r := range resp.Results {
		fmt.Printf("  #%-3d %-18s score=%-8.2f verified=%v\n", rank+1, r.SetName, r.Score, r.Verified)
	}
	st := resp.Stats
	fmt.Printf("\nfilters: candidates=%d iUB-pruned=%d no-EM=%d EM-early=%d EM=%d  (stream tuples: %d, segments: %d)\n",
		st.Candidates, st.IUBPruned, st.NoEM, st.EMEarly, st.EMFull, st.StreamTuples, st.Segments)
	return nil
}
