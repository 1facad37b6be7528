// Command benchmark is the repository's end-to-end benchmark: it starts a
// real server.Server in-process on a loopback TCP port, drives it through
// server.Client with a closed loop of two clients, and prints every metric
// BENCHMARK.json names. See README.md in this directory.
//
//	go run ./benchmark -workload search_small -seed 1
//	go run ./benchmark -workload mixed_rw -seed 1 -trace 1 -spans spans.json
//	go run ./benchmark -repeat 5
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"
)

// metric is one reported number.
type metric struct {
	Name  string
	Unit  string
	Value float64
	// Note is printed beside the value: a sample count, a caveat.
	Note string
}

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	quick    bool
	spans    string
}

// report is what one run produced.
type report struct {
	// EndToEnd is filled by an untraced run, PerLayer by a traced one.
	EndToEnd, PerLayer []metric
	// Attempted and Failed count the ops of the measured section, by kind.
	Attempted, Failed [3]int
	// Correct is the output check's verdict; CheckErr says what it found.
	Correct  bool
	CheckErr error
}

// resultLine is the machine-readable last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	var o options
	var repeat int
	traceFlag := flag.Int("trace", 0, "0: untraced run, prints the end-to-end metrics; 1: traced run (one client, spans around every layer call), prints the per-layer metrics")
	flag.StringVar(&o.workload, "workload", "", "workload to run: search_small, search_large, search_edit or mixed_rw")
	flag.Int64Var(&o.seed, "seed", 1, "seed of the op list (queries sampled, sets held out, op order)")
	flag.Float64Var(&o.seconds, "seconds", 15, "length of the timed section; whole rounds of the fixed op list are replayed until it is used up (at least three)")
	flag.BoolVar(&o.quick, "quick", false, "tiny corpus and a single round: a smoke test, not a measurement")
	flag.StringVar(&o.spans, "spans", "", "with -trace 1: write the spans to this file as JSON")
	flag.IntVar(&repeat, "repeat", 0, "run every workload (or the one named by -workload) this many times with seeds seed, seed+1, ... in interleaved order and print each metric's median, quartiles and spread")
	flag.Parse()
	o.trace = *traceFlag != 0

	if flag.NArg() > 0 {
		fatalf("unexpected argument %q", flag.Arg(0))
	}
	if repeat > 0 {
		if err := runRepeat(os.Stdout, o, repeat); err != nil {
			fatalf("%v", err)
		}
		return
	}
	if _, ok := specByName(o.workload); !ok {
		fatalf("unknown workload %q (want one of %v)", o.workload, workloadNames())
	}
	rep, err := run(os.Stdout, o)
	if err != nil {
		fatalf("%v", err)
	}
	if err := writeResultLine(os.Stdout, rep); err != nil {
		fatalf("%v", err)
	}
	if !rep.Correct {
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(2)
}

func workloadNames() []string {
	names := make([]string, len(specs))
	for i, s := range specs {
		names[i] = s.name
	}
	return names
}

// run executes one workload once, printing the human-readable account to
// out as it goes. An error means the run could not be carried out; a failed
// output check is reported in the returned report instead.
func run(out io.Writer, o options) (*report, error) {
	s, _ := specByName(o.workload)
	if o.quick {
		s = s.quickened()
	}
	runtime.GOMAXPROCS(s.clients)
	root, err := scratchDir(s.name)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)

	fmt.Fprintf(out, "workload %s seed %d: %s\n", s.name, o.seed, s.why)
	fmt.Fprintf(out, "closed loop, %d client(s) (1 when traced), GOMAXPROCS=%d, search workers=%d, flush policy: %s\n",
		s.clients, s.clients, s.clients, flushPolicy)
	if o.trace {
		return runTraced(out, s, o, root)
	}
	return runUntraced(out, s, o, root)
}

// writeResultLine prints the last line the driver parses.
func writeResultLine(out io.Writer, rep *report) error {
	line := resultLine{Correct: rep.Correct, Metrics: map[string]metricValue{}}
	for k := range rep.Attempted {
		line.Attempted += rep.Attempted[k]
		line.Failed += rep.Failed[k]
	}
	for _, m := range append(rep.EndToEnd, rep.PerLayer...) {
		line.Metrics[m.Name] = metricValue{Value: m.Value, Unit: m.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", b)
	return err
}

func printMetrics(out io.Writer, title string, ms []metric) {
	fmt.Fprintf(out, "%s\n", title)
	for _, m := range ms {
		fmt.Fprintf(out, "  %-36s %14.6g %-6s %s\n", m.Name, m.Value, m.Unit, m.Note)
	}
}

func printCounts(out io.Writer, rep *report) {
	for k := opSearch; k <= opDelete; k++ {
		if rep.Attempted[k] == 0 {
			continue
		}
		fmt.Fprintf(out, "  %-7s attempted %7d  succeeded %7d  failed %d\n",
			k, rep.Attempted[k], rep.Attempted[k]-rep.Failed[k], rep.Failed[k])
	}
}

// setupTimes splits one set-up.
type setupTimes struct {
	generate, open, warmup, total time.Duration
}

// setUp does everything that precedes the first timed op: generate the
// corpus and the op list, build (durable: persist, load, close and reopen)
// the registry, start the server, and replay one round untimed so caches,
// scratch pools and the heap are at steady state.
func setUp(s spec, seed int64, root string, clients int) (*workload, *stack, setupTimes, error) {
	var t setupTimes
	start := time.Now()
	w, err := buildWorkload(s, seed)
	if err != nil {
		return nil, nil, t, err
	}
	t.generate = time.Since(start)

	dir := ""
	if s.durable {
		if dir, err = os.MkdirTemp(root, "data-"); err != nil {
			return nil, nil, t, err
		}
	}
	st, err := openStack(w, dir)
	if err != nil {
		return nil, nil, t, fmt.Errorf("open: %w", err)
	}
	t.open = time.Since(start) - t.generate

	if r := replay(w.subset(s.warmupOps), clients, st.do); r.firstErr != nil {
		st.close()
		return nil, nil, t, fmt.Errorf("warm-up: %w", r.firstErr)
	}
	t.total = time.Since(start)
	t.warmup = t.total - t.generate - t.open
	return w, st, t, nil
}

// runUntraced measures the end-to-end metrics: set-up (three times, the
// median is reported), then whole rounds of the op list until the timed
// section is used up, then the output check.
func runUntraced(out io.Writer, s spec, o options, root string) (*report, error) {
	setups, minRounds := 3, 3
	if o.quick {
		setups, minRounds = 1, 1
	}
	var (
		w      *workload
		st     *stack
		totals []float64
	)
	for i := 0; i < setups; i++ {
		if st != nil {
			// Only the last set-up is kept; drop the earlier one entirely
			// so it does not sit in the heap during the timed section.
			if err := st.close(); err != nil {
				return nil, fmt.Errorf("close set-up %d: %w", i, err)
			}
			w, st = nil, nil
			runtime.GC()
		}
		var t setupTimes
		var err error
		if w, st, t, err = setUp(s, o.seed, root, s.clients); err != nil {
			return nil, err
		}
		totals = append(totals, t.total.Seconds())
		fmt.Fprintf(out, "set-up %d: %.3f s (generate %.3f, open %.3f, warm-up %.3f)\n",
			i+1, t.total.Seconds(), t.generate.Seconds(), t.open.Seconds(), t.warmup.Seconds())
	}
	defer st.close()
	fmt.Fprintf(out, "%d ops per round (%d distinct queries, median query cardinality %d), %d live sets per collection, %d collection(s)\n",
		w.opsPerRound(), len(w.queries), w.medianCardinality(), len(w.seedSets), len(w.collections))

	var rounds []roundResult
	var perRound []float64
	start := time.Now()
	for {
		r := replay(w.phases, s.clients, st.do)
		rounds = append(rounds, r)
		perRound = append(perRound, r.opsPerSec())
		// Stop where the section's length is closest to -seconds: another
		// round is worth it only if more than half of it still fits.
		if len(rounds) >= minRounds && (o.quick || time.Since(start)+r.wall/2 >= time.Duration(o.seconds*float64(time.Second))) {
			break
		}
	}
	timed := time.Since(start)
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}

	rep := &report{}
	for _, r := range rounds {
		for k := range r.attempted {
			rep.Attempted[k] += r.attempted[k]
			rep.Failed[k] += r.failed[k]
		}
		if r.firstErr != nil && rep.CheckErr == nil {
			rep.CheckErr = fmt.Errorf("failed op: %w", r.firstErr)
		}
	}
	searches := latenciesMS(rounds, isSearch)
	p50, _, _ := percentile(searches, 0.50)
	p90, beyond90, ok90 := percentile(searches, 0.90)
	note90 := fmt.Sprintf("n=%d, %d beyond", len(searches), beyond90)
	if !ok90 && !o.quick {
		note90 += fmt.Sprintf(" (fewer than %d: not a supported percentile)", minBeyond)
	}
	rep.EndToEnd = []metric{
		{"setup_s", "s", median(totals), fmt.Sprintf("median of %d set-ups", len(totals))},
		{"ops_per_s", "1/s", median(perRound), fmt.Sprintf("median of %d rounds, round spread %.3f", len(rounds), spread(perRound))},
		{"search_p50_ms", "ms", p50, fmt.Sprintf("n=%d", len(searches))},
		{"search_p90_ms", "ms", p90, note90},
		{"peak_rss_mb", "MB", rss, "VmHWM before the output check"},
	}
	fmt.Fprintf(out, "timed section: %.2f s, %d rounds, ops/s per round:", timed.Seconds(), len(rounds))
	for _, v := range perRound {
		fmt.Fprintf(out, " %.4g", v)
	}
	fmt.Fprintln(out)
	printMetrics(out, "end-to-end metrics:", rep.EndToEnd)
	if writes := latenciesMS(rounds, isWrite); len(writes) > 0 {
		w99, b99, _ := percentile(writes, 0.99)
		fmt.Fprintf(out, "  writes (not gated; the traced run reports server.write_p99_ms): p99 %.4f ms (n=%d, %d beyond)\n",
			w99, len(writes), b99)
	}
	printCounts(out, rep)

	return rep.finish(out, st), nil
}

// finish runs the output check (unless an op already failed) and records and
// prints the verdict.
func (rep *report) finish(out io.Writer, st *stack) *report {
	if rep.CheckErr == nil {
		rep.CheckErr = checkOutputs(st)
	}
	rep.Correct = rep.CheckErr == nil
	if rep.Correct {
		fmt.Fprintf(out, "output check: ok\n")
	} else {
		fmt.Fprintf(out, "output check: FAILED: %v\n", rep.CheckErr)
	}
	return rep
}
