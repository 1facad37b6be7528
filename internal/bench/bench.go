// Package bench regenerates every table and figure of the paper's
// evaluation section (§VIII) on the synthesized datasets. Each experiment
// is a method on Runner that prints the same rows/series the paper reports;
// cmd/koios-bench exposes them behind -exp flags and bench_test.go wires
// them into testing.B benchmarks.
//
// Absolute numbers differ from the paper (laptop-scale synthetic data
// instead of a 64-core testbed on the real corpora); EXPERIMENTS.md records
// the measured values next to the published ones and compares the shapes.
package bench

import (
	"fmt"
	"io"
	"sort"
	"time"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/index"
)

// Config scales the experiments.
type Config struct {
	// Scale multiplies dataset sizes; 1.0 is the documented benchmark scale
	// (see datagen.DefaultSpec), 0.1 suits quick runs.
	Scale float64
	// K, Alpha, Partitions, Workers are the default search parameters
	// (§VIII-A3: α=0.8, k=10, partitions=10 unless a sweep varies them).
	K          int
	Alpha      float64
	Partitions int
	Workers    int
	// QueriesPerInterval overrides the benchmark size when > 0.
	QueriesPerInterval int
	// Timeout bounds each baseline query (the paper uses 2500 s).
	Timeout time.Duration
	// ChaosIters and ChaosSeed parameterize the chaos experiment: the
	// number of randomized fault/corruption injections (default 100) and
	// the reproducibility seed (default 1).
	ChaosIters int
	ChaosSeed  int64
	// NoKernelFilters turns off the verification sandwich (DESIGN.md §12) —
	// it sets core.Options.DisableSandwich and nothing else. Results are
	// byte-identical; the escape hatch exists for A/B measurement. The scan
	// admission filters of function sources stay on: their off switch,
	// index SetKernelFilters(false), is an axis of the equivalence tests
	// that no command reaches.
	NoKernelFilters bool
}

func (c Config) withDefaults() Config {
	if c.Scale <= 0 {
		c.Scale = 1
	}
	if c.K <= 0 {
		c.K = 10
	}
	if c.Alpha <= 0 {
		c.Alpha = 0.8
	}
	if c.Partitions <= 0 {
		c.Partitions = 10
	}
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.Timeout <= 0 {
		c.Timeout = 120 * time.Second
	}
	return c
}

// Runner executes experiments, caching datasets and indexes across them.
type Runner struct {
	cfg  Config
	out  io.Writer
	data map[datagen.Kind]*bundle
}

// bundle caches the per-dataset artifacts every experiment needs.
type bundle struct {
	ds    *datagen.Dataset
	bench *datagen.Benchmark
	src   *index.Exact
	inv   *index.Inverted
}

// NewRunner builds a runner writing experiment output to out.
func NewRunner(cfg Config, out io.Writer) *Runner {
	return &Runner{cfg: cfg.withDefaults(), out: out, data: make(map[datagen.Kind]*bundle)}
}

// Experiments lists the runnable experiment names in paper order.
func Experiments() []string {
	return []string{
		"table1", "table2", "table3", "table4", "table5",
		"fig5a", "fig5bc", "fig5d", "fig6a", "fig6bc", "fig6d",
		"fig7a", "fig7b", "fig7c", "fig7d", "fig8",
		"silkmoth", "ablation", "mixed", "recovery", "throughput",
		"lazystream", "chaos", "coldstart", "multitenant", "fairness",
	}
}

// Known reports whether exp names a runnable experiment.
func Known(exp string) bool {
	for _, e := range Experiments() {
		if e == exp {
			return true
		}
	}
	return false
}

// Run executes one experiment by name.
func (r *Runner) Run(exp string) error {
	switch exp {
	case "table1":
		r.Table1()
	case "table2":
		r.Table2()
	case "table3":
		r.Table3()
	case "table4":
		r.TableIntervals(datagen.OpenData, "Table IV (OpenData)")
	case "table5":
		r.TableIntervals(datagen.WDC, "Table V (WDC)")
	case "fig5a":
		r.FigureTime(datagen.OpenData, "Fig. 5a (OpenData response time)")
	case "fig5bc":
		r.FigurePhases(datagen.OpenData, "Fig. 5b,c (OpenData phase breakdown)")
	case "fig5d":
		r.FigureMemory(datagen.OpenData, "Fig. 5d (OpenData memory)")
	case "fig6a":
		r.FigureTime(datagen.WDC, "Fig. 6a (WDC response time)")
	case "fig6bc":
		r.FigurePhases(datagen.WDC, "Fig. 6b,c (WDC phase breakdown)")
	case "fig6d":
		r.FigureMemory(datagen.WDC, "Fig. 6d (WDC memory)")
	case "fig7a":
		r.Figure7Partitions()
	case "fig7b":
		r.Figure7Alpha()
	case "fig7c":
		r.Figure7K()
	case "fig7d":
		r.Figure7MemAlpha()
	case "fig8":
		r.Figure8Quality()
	case "silkmoth":
		r.SilkMothComparison()
	case "ablation":
		r.Ablation()
	case "mixed":
		r.MixedWorkload()
	case "recovery":
		r.RecoveryWorkload()
	case "throughput":
		return r.Throughput()
	case "lazystream":
		return r.LazyStream()
	case "chaos":
		return r.Chaos()
	case "coldstart":
		return r.ColdStart()
	case "multitenant":
		return r.MultiTenant()
	case "fairness":
		return r.Fairness()
	default:
		return fmt.Errorf("bench: unknown experiment %q (want one of %v)", exp, Experiments())
	}
	return nil
}

// bundleFor generates (once) the dataset, benchmark, token index, and
// inverted index for kind.
func (r *Runner) bundleFor(kind datagen.Kind) *bundle {
	if b, ok := r.data[kind]; ok {
		return b
	}
	spec := datagen.DefaultSpec(kind, r.cfg.Scale)
	if r.cfg.QueriesPerInterval > 0 {
		spec.QueriesPerInterval = r.cfg.QueriesPerInterval
	}
	ds := datagen.Generate(spec)
	b := &bundle{
		ds:    ds,
		bench: datagen.NewBenchmark(ds, spec.Seed+1),
		src:   index.NewExact(ds.Repo.Vocabulary(), ds.Model.Vector),
		inv:   index.NewInverted(ds.Repo),
	}
	r.data[kind] = b
	return b
}

// engineFor builds a Koios engine with the runner's default parameters,
// optionally overridden.
func (r *Runner) engineFor(b *bundle, override func(*core.Options)) *core.Engine {
	opts := core.Options{
		K:               r.cfg.K,
		Alpha:           r.cfg.Alpha,
		Partitions:      r.cfg.Partitions,
		Workers:         r.cfg.Workers,
		DisableSandwich: r.cfg.NoKernelFilters,
	}
	if override != nil {
		override(&opts)
	}
	return core.NewEngine(b.ds.Repo, b.src, opts)
}

// runKoios executes all benchmark queries and returns per-query stats.
func runKoios(eng *core.Engine, queries []datagen.Query) []core.Stats {
	out := make([]core.Stats, len(queries))
	for i, q := range queries {
		_, out[i] = eng.Search(q.Elements)
	}
	return out
}

// runBaseline executes all benchmark queries through the baseline,
// returning stats and the number of timed-out queries.
func (r *Runner) runBaseline(b *bundle, queries []datagen.Query, useIUB bool) ([]baseline.Stats, int) {
	out := make([]baseline.Stats, 0, len(queries))
	timeouts := 0
	for _, q := range queries {
		_, st, timedOut := baseline.Search(b.ds.Repo, b.inv, b.src, q.Elements, baseline.Options{
			K:       r.cfg.K,
			Alpha:   r.cfg.Alpha,
			Workers: r.cfg.Workers,
			UseIUB:  useIUB,
			Timeout: r.cfg.Timeout,
		})
		if timedOut {
			timeouts++
			continue
		}
		out = append(out, st)
	}
	return out, timeouts
}

func (r *Runner) printf(format string, args ...any) {
	fmt.Fprintf(r.out, format, args...)
}

func (r *Runner) header(title string) {
	r.printf("\n== %s ==  (scale=%.2f, k=%d, α=%.2f, partitions=%d)\n",
		title, r.cfg.Scale, r.cfg.K, r.cfg.Alpha, r.cfg.Partitions)
}

// intervalLabel formats a benchmark interval for table rows.
func intervalLabel(b *datagen.Benchmark, idx int) string {
	if idx < 0 || b.Intervals == nil {
		return "all"
	}
	iv := b.Intervals[idx]
	return fmt.Sprintf("%d-%d", iv[0], iv[1])
}

// sortedIntervals returns the populated interval indexes in order.
func sortedIntervals(groups map[int][]datagen.Query) []int {
	keys := make([]int, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}

func avgDuration(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return sum / time.Duration(len(ds))
}

func avgInt(vals []int) float64 {
	if len(vals) == 0 {
		return 0
	}
	sum := 0
	for _, v := range vals {
		sum += v
	}
	return float64(sum) / float64(len(vals))
}

func avgFloat(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range vals {
		sum += v
	}
	return sum / float64(len(vals))
}

func mb(bytes int64) float64 { return float64(bytes) / (1024 * 1024) }
