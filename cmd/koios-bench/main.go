// Command koios-bench regenerates the paper's evaluation tables and figures
// on the synthesized datasets, measures the single-query perf profile, and
// checks it against a recorded baseline (the CI perf-regression gate).
//
// Usage:
//
//	koios-bench -exp table2                 # one experiment
//	koios-bench -exp all -scale 0.25        # everything, quarter scale
//	koios-bench -exp throughput             # serving QPS/latency, batch ≡ serial
//	koios-bench -list                       # available experiments
//	koios-bench -perf-json fresh.json       # record a perf baseline
//	koios-bench -perf-json fresh.json -perf-compare BENCH_tokenintern.json
//	                                        # ...and fail on >15% regression
//
// See EXPERIMENTS.md for the recorded paper-vs-measured comparison.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/bench"
)

func main() {
	var (
		exp       = flag.String("exp", "all", "experiment name or 'all'")
		list      = flag.Bool("list", false, "list experiments and exit")
		perfJSON  = flag.String("perf-json", "", "measure the single-query perf profile and write it to this file instead of running experiments")
		perfName  = flag.String("perf-label", "baseline", "label recorded in the -perf-json output")
		perfBase  = flag.String("perf-compare", "", "compare the measured perf profile against this recorded baseline JSON and exit nonzero on regression")
		perfTol   = flag.Float64("perf-tolerance", 0.15, "allowed fractional regression of allocs/op and bytes/op vs the baseline")
		perfNsTol = flag.Float64("perf-ns-tolerance", 0.15, "allowed fractional regression of ns/op vs the baseline (loosen on noisy/shared machines)")
		scale     = flag.Float64("scale", 0.25, "dataset scale factor (1.0 = documented benchmark scale)")
		k         = flag.Int("k", 10, "result size k")
		alpha     = flag.Float64("alpha", 0.8, "element similarity threshold α")
		parts     = flag.Int("partitions", 10, "number of repository partitions")
		workers   = flag.Int("workers", 4, "verification workers per partition")
		queries   = flag.Int("queries", 0, "override queries per benchmark interval (0 = dataset default)")
		timeout   = flag.Duration("timeout", 120*time.Second, "per-query baseline timeout")
		chaosIt   = flag.Int("chaos-iters", 100, "randomized injections for -exp chaos")
		chaosSeed = flag.Int64("chaos-seed", 1, "reproducibility seed for -exp chaos")
		noKernel  = flag.Bool("no-kernel-filters", false, "disable the verification sandwich (core.Options.DisableSandwich); results are identical, only slower. Scan admission is not affected: index SetKernelFilters(false) is a test axis")
	)
	flag.Parse()

	if flag.NArg() > 0 {
		// A bare "koios-bench table2" used to silently run -exp all;
		// surface the mistake instead.
		fmt.Fprintf(os.Stderr, "koios-bench: unexpected arguments %q (experiments are selected with -exp)\n", flag.Args())
		os.Exit(2)
	}
	if *list {
		for _, e := range bench.Experiments() {
			fmt.Println(e)
		}
		return
	}
	// Validate the experiment selection up front — even in -perf-json mode,
	// where experiments do not run, a misspelled -exp should fail loudly
	// rather than be ignored.
	if *exp != "all" && !bench.Known(*exp) {
		fmt.Fprintf(os.Stderr, "koios-bench: unknown experiment %q; valid experiments:\n", *exp)
		for _, e := range bench.Experiments() {
			fmt.Fprintf(os.Stderr, "  %s\n", e)
		}
		fmt.Fprintln(os.Stderr, "  all")
		os.Exit(2)
	}

	r := bench.NewRunner(bench.Config{
		Scale:              *scale,
		K:                  *k,
		Alpha:              *alpha,
		Partitions:         *parts,
		Workers:            *workers,
		QueriesPerInterval: *queries,
		Timeout:            *timeout,
		ChaosIters:         *chaosIt,
		ChaosSeed:          *chaosSeed,
		NoKernelFilters:    *noKernel,
	}, os.Stdout)

	if *perfJSON != "" || *perfBase != "" {
		runPerf(r, *perfJSON, *perfName, *perfBase, *perfTol, *perfNsTol)
		return
	}

	start := time.Now()
	if *exp == "all" {
		for _, e := range bench.Experiments() {
			if err := r.Run(e); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		}
	} else if err := r.Run(*exp); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("\ntotal bench time: %v\n", time.Since(start).Round(time.Millisecond))
}

// runPerf measures the single-query perf profile once, then writes it
// and/or gates it against a recorded baseline.
func runPerf(r *bench.Runner, jsonPath, label, basePath string, allocTol, nsTol float64) {
	fail := func(err error) {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	pb := r.Perf(label)
	if jsonPath != "" {
		f, err := os.Create(jsonPath)
		if err != nil {
			fail(err)
		}
		werr := bench.EncodePerfJSON(f, pb)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			fail(werr)
		}
		fmt.Printf("perf baseline written to %s\n", jsonPath)
	}
	if basePath == "" {
		return
	}
	base, err := bench.LoadPerfBaseline(basePath)
	if err != nil {
		fail(err)
	}
	violations := bench.ComparePerf(base, pb, allocTol, nsTol)
	if len(violations) > 0 {
		fmt.Fprintf(os.Stderr, "perf regression vs %s (%q):\n", basePath, base.Label)
		for _, v := range violations {
			fmt.Fprintf(os.Stderr, "  %s\n", v)
		}
		os.Exit(1)
	}
	fmt.Printf("perf gate passed vs %s (%q): allocs/bytes within %.0f%%, ns within %.0f%%\n",
		basePath, base.Label, 100*allocTol, 100*nsTol)
}
