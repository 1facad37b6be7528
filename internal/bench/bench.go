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
	"slices"
	"sort"
	"time"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/index"
	"repro/internal/segment"
	"repro/internal/sets"
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

// experiment is one runnable experiment: the name -exp selects it by and
// what it runs.
type experiment struct {
	name string
	run  func(*Runner) error
}

// do adapts an experiment that reports through its output only.
func do(f func(*Runner)) func(*Runner) error {
	return func(r *Runner) error { f(r); return nil }
}

// experiments is every runnable experiment, in paper order: Experiments,
// Known and Run all read it.
var experiments = []experiment{
	{"table1", do((*Runner).Table1)},
	{"table2", do((*Runner).Table2)},
	{"table3", do((*Runner).Table3)},
	{"table4", do(func(r *Runner) { r.TableIntervals(datagen.OpenData, "Table IV (OpenData)") })},
	{"table5", do(func(r *Runner) { r.TableIntervals(datagen.WDC, "Table V (WDC)") })},
	{"fig5a", do(func(r *Runner) { r.FigureTime(datagen.OpenData, "Fig. 5a (OpenData response time)") })},
	{"fig5bc", do(func(r *Runner) { r.FigurePhases(datagen.OpenData, "Fig. 5b,c (OpenData phase breakdown)") })},
	{"fig5d", do(func(r *Runner) { r.FigureMemory(datagen.OpenData, "Fig. 5d (OpenData memory)") })},
	{"fig6a", do(func(r *Runner) { r.FigureTime(datagen.WDC, "Fig. 6a (WDC response time)") })},
	{"fig6bc", do(func(r *Runner) { r.FigurePhases(datagen.WDC, "Fig. 6b,c (WDC phase breakdown)") })},
	{"fig6d", do(func(r *Runner) { r.FigureMemory(datagen.WDC, "Fig. 6d (WDC memory)") })},
	{"fig7a", do((*Runner).Figure7Partitions)},
	{"fig7b", do((*Runner).Figure7Alpha)},
	{"fig7c", do((*Runner).Figure7K)},
	{"fig7d", do((*Runner).Figure7MemAlpha)},
	{"fig8", do((*Runner).Figure8Quality)},
	{"silkmoth", do((*Runner).SilkMothComparison)},
	{"ablation", do((*Runner).Ablation)},
	{"mixed", do((*Runner).MixedWorkload)},
	{"recovery", do((*Runner).RecoveryWorkload)},
	{"throughput", (*Runner).Throughput},
	{"scale", do((*Runner).Scale)},
	{"chaos", (*Runner).Chaos},
	{"coldstart", (*Runner).ColdStart},
	{"multitenant", (*Runner).MultiTenant},
	{"fairness", (*Runner).Fairness},
}

// Experiments lists the runnable experiment names in paper order.
func Experiments() []string {
	names := make([]string, len(experiments))
	for i, e := range experiments {
		names[i] = e.name
	}
	return names
}

// Known reports whether exp names a runnable experiment.
func Known(exp string) bool {
	return slices.ContainsFunc(experiments, func(e experiment) bool { return e.name == exp })
}

// Run executes one experiment by name.
func (r *Runner) Run(exp string) error {
	for _, e := range experiments {
		if e.name == exp {
			return e.run(r)
		}
	}
	return fmt.Errorf("bench: unknown experiment %q (want one of %v)", exp, Experiments())
}

// vectorSource builds a collection's similarity source: exact search over
// the dataset's embedding vectors, growing with the collection's dictionary.
func vectorSource(ds *datagen.Dataset) segment.SourceBuilder {
	return func(dict *sets.Dictionary) index.NeighborSource {
		return index.NewDynamicExact(dict, ds.Model.Vector)
	}
}

// bundleFor generates (once) the dataset, benchmark, token index, and
// inverted index for kind.
func (r *Runner) bundleFor(kind datagen.Kind) *bundle {
	if b, ok := r.data[kind]; ok {
		return b
	}
	b := r.newBundle(kind, r.cfg.Scale)
	r.data[kind] = b
	return b
}

// newBundle generates the dataset, benchmark, token index, and inverted
// index for kind at scale, uncached.
func (r *Runner) newBundle(kind datagen.Kind, scale float64) *bundle {
	spec := datagen.DefaultSpec(kind, scale)
	if r.cfg.QueriesPerInterval > 0 {
		spec.QueriesPerInterval = r.cfg.QueriesPerInterval
	}
	ds := datagen.Generate(spec)
	return &bundle{
		ds:    ds,
		bench: datagen.NewBenchmark(ds, spec.Seed+1),
		src:   index.NewExact(ds.Repo.Vocabulary(), ds.Model.Vector),
		inv:   index.NewInverted(ds.Repo),
	}
}

// engineFor builds a Koios engine with the runner's default parameters,
// optionally overridden.
func (r *Runner) engineFor(b *bundle, override func(*core.Options)) *core.Engine {
	opts := core.Options{
		K:          r.cfg.K,
		Alpha:      r.cfg.Alpha,
		Partitions: r.cfg.Partitions,
		Workers:    r.cfg.Workers,
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

// mean is the average of vals (0 for none).
func mean[T int | float64](vals []T) float64 {
	if len(vals) == 0 {
		return 0
	}
	var sum T
	for _, v := range vals {
		sum += v
	}
	return float64(sum) / float64(len(vals))
}

func mb(bytes int64) float64 { return float64(bytes) / (1024 * 1024) }
