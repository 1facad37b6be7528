// Command koios-bench regenerates the paper's evaluation tables and figures
// on the synthesized datasets and runs the correctness experiments CI greps
// (batch ≡ serial, lazy ≡ eager, restart, chaos, fairness, multi-tenancy).
// Performance is measured by benchmark/run.sh, through the real HTTP stack.
//
// Usage:
//
//	koios-bench -exp table2                 # one experiment
//	koios-bench -exp all -scale 0.25        # everything, quarter scale
//	koios-bench -exp throughput             # batch ≡ serial on every dataset kind
//	koios-bench -list                       # available experiments
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
