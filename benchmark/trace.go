package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"repro/internal/collection"
	"repro/internal/core"
	"repro/internal/index"
	"repro/internal/matching"
	"repro/internal/segment"
	"repro/internal/sets"
	"repro/internal/sim"
	"repro/internal/store"
)

// span is one timed call into a layer's public entry point, made by the
// benchmark itself. The spans of one op share Op; Parent is the span of the
// enclosing layer. The layers of one op are measured by running the op again
// at each boundary (over HTTP, then directly on the collection, then directly
// on the manager or the index), so a child's interval does not lie inside its
// parent's: nesting is by Parent, and self time is computed from durations.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // 0: no parent
	Op      int    `json:"op"`     // index into the traced op list; -1 for a probe outside it
	Layer   string `json:"layer"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.EndNS - s.StartNS) }

// tracer keeps the spans in memory until the run ends. The traced run has a
// single client, so no lock is needed.
type tracer struct {
	t0    time.Time
	spans []span
}

func (t *tracer) add(parent, op int, layer, name string, start, end time.Time) int {
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Op: op, Layer: layer, Name: name,
		StartNS: start.Sub(t.t0).Nanoseconds(), EndNS: end.Sub(t.t0).Nanoseconds(),
	})
	return id
}

// selfTimes returns each span's self time: its duration minus the durations
// of its direct children. Because a child is a separate run of the same work
// it can come out slower than its parent, so a single span's self time may
// be negative; the noise cancels in a mean over many ops, which is what the
// metrics report (floored at zero there).
func selfTimes(spans []span) map[int]time.Duration {
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		self[s.ID] += s.dur()
		if s.Parent != 0 {
			self[s.Parent] -= s.dur()
		}
	}
	return self
}

// layerMeans averages span durations and self times by (layer, name).
type layerMeans struct {
	dur, self map[string]float64 // microseconds
	count     map[string]int
}

func meansOf(spans []span) layerMeans {
	m := layerMeans{dur: map[string]float64{}, self: map[string]float64{}, count: map[string]int{}}
	self := selfTimes(spans)
	for _, s := range spans {
		k := s.Layer + "/" + s.Name
		m.dur[k] += float64(s.dur().Nanoseconds()) / 1e3
		m.self[k] += float64(self[s.ID].Nanoseconds()) / 1e3
		m.count[k]++
	}
	for k, n := range m.count {
		m.dur[k] /= float64(n)
		m.self[k] = max(m.self[k]/float64(n), 0)
	}
	return m
}

func writeSpans(path string, spans []span) error {
	b, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// opIndex numbers the ops of phases consecutively.
func opIndex(phases [][]op) map[*op]int {
	idx := make(map[*op]int)
	n := 0
	for p := range phases {
		for i := range phases[p] {
			idx[&phases[p][i]] = n
			n++
		}
	}
	return idx
}

// funnel sums the engine statistics of the directly executed searches.
type funnel struct {
	searches                                     int
	candidates, iubPruned, noEM, emEarly, emFull int
	tuples, retrieved, queryElems, cuts          int
	verifyCalls, skipped, iterations, segments   int
	refine, postproc                             time.Duration
	memoryBytes                                  int64
}

func (f *funnel) add(q []string, st *core.Stats) {
	f.searches++
	f.candidates += st.Candidates
	f.iubPruned += st.IUBPruned
	f.noEM += st.NoEM
	f.emEarly += st.EMEarly
	f.emFull += st.EMFull
	f.tuples += st.StreamTuples
	f.retrieved += st.StreamRetrieved
	f.queryElems += len(q)
	if st.StreamCut {
		f.cuts++
	}
	f.verifyCalls += st.VerifyCalls
	f.skipped += st.HungarianSkipped
	f.iterations += st.HungarianIterations
	f.segments += st.Segments
	f.refine += st.RefineTime
	f.postproc += st.PostprocTime
	f.memoryBytes += st.TotalBytes()
}

// runTraced produces the per-layer metrics. With one client it replays the
// traced op list over HTTP untraced (twice; the second is the baseline), then over HTTP
// with a span around every request, then directly on the collections, then
// directly on the managers (writes) and the similarity index (searches);
// counts are read at the same boundaries. A few probes time single entry
// points of the layers below on the workload's own data.
func runTraced(out io.Writer, s spec, o options, root string) (*report, error) {
	w, st, setup, err := setUp(s, o.seed, root, 1)
	if err != nil {
		return nil, err
	}
	defer st.close()
	fmt.Fprintf(out, "set-up: %.3f s (generate %.3f, open %.3f, warm-up %.3f)\n",
		setup.total.Seconds(), setup.generate.Seconds(), setup.open.Seconds(), setup.warmup.Seconds())
	phases := w.subset(s.traceOps)
	idx := opIndex(phases)
	nOps := len(idx)
	fmt.Fprintf(out, "traced op list: %d of the round's %d ops, one client\n", nOps, w.opsPerRound())

	ticks0 := readCPUTicks()
	// Two untraced passes; the traced one is compared with the second, its
	// neighbour in time (the first still shows warm-up effects).
	var passRates []float64
	for i := 0; i < 2; i++ {
		r := replay(phases, 1, st.do)
		if r.firstErr != nil {
			return nil, fmt.Errorf("untraced pass: %w", r.firstErr)
		}
		passRates = append(passRates, r.opsPerSec())
	}
	untraced := passRates[1]

	// Pass A: the whole request, through the real HTTP stack.
	tr := &tracer{t0: time.Now()}
	info0, err := st.root.Info()
	if err != nil {
		return nil, err
	}
	serverSpan := make([]int, nOps)
	passA := replay(phases, 1, func(o *op) (time.Duration, error) {
		start := time.Now()
		d, err := st.do(o)
		serverSpan[idx[o]] = tr.add(0, idx[o], "server", "client."+o.kind.String(), start, start.Add(d))
		return d, err
	})
	info1, err := st.root.Info()
	if err != nil {
		return nil, err
	}
	passRates = append(passRates, passA.opsPerSec())

	// Pass B: the same ops called directly on the collection, the way the
	// server's handlers call it.
	ctx := context.Background()
	var fun funnel
	collSpan := make([]int, nOps)
	refineSpan := make([]int, nOps)
	var admitNS []float64
	var answers []answeredSearch
	passB := replay(phases, 1, func(o *op) (time.Duration, error) {
		col := st.collection(o.coll)
		i := idx[o]
		t0 := time.Now()
		switch o.kind {
		case opSearch:
			if err := col.AdmitSearch(1); err != nil {
				return 0, err
			}
			t1 := time.Now()
			res, stats, err := col.Manager().Search(ctx, o.elems, 0)
			t2 := time.Now()
			col.ReleaseSearch(1)
			t3 := time.Now()
			if err != nil {
				return 0, err
			}
			collSpan[i] = tr.add(serverSpan[i], i, "collection", "AdmitSearch+Manager.Search", t0, t3)
			seg := tr.add(collSpan[i], i, "segment", "Manager.Search", t1, t2)
			refineSpan[i] = tr.add(seg, i, "core", "refine", t1, t1.Add(stats.RefineTime))
			tr.add(seg, i, "core", "postproc", t2.Add(-stats.PostprocTime), t2)
			admitNS = append(admitNS, float64(t1.Sub(t0)+t3.Sub(t2)))
			fun.add(o.elems, &stats)
			if len(answers) < 4 {
				answers = append(answers, answeredSearch{o.elems, res, o.coll})
			}
			return t3.Sub(t0), nil
		case opInsert:
			_, err := col.Insert(o.name, o.elems)
			t1 := time.Now()
			collSpan[i] = tr.add(serverSpan[i], i, "collection", "Collection.Insert", t0, t1)
			return t1.Sub(t0), err
		default:
			_, err := col.Delete(o.name)
			t1 := time.Now()
			collSpan[i] = tr.add(serverSpan[i], i, "collection", "Collection.Delete", t0, t1)
			return t1.Sub(t0), err
		}
	})
	if passB.firstErr != nil {
		return nil, fmt.Errorf("direct collection pass: %w", passB.firstErr)
	}

	// Pass C: one layer further down — writes straight on the manager,
	// searches' token streams straight on the similarity source.
	alpha := servingOptions().Alpha
	passC := replay(phases, 1, func(o *op) (time.Duration, error) {
		mgr := st.collection(o.coll).Manager()
		i := idx[o]
		t0 := time.Now()
		var err error
		switch o.kind {
		case opSearch:
			stream := index.NewStream(o.elems, mgr.Source(), alpha)
			for {
				if _, ok := stream.Next(); !ok {
					break
				}
			}
			t1 := time.Now()
			tr.add(refineSpan[i], i, "index", "NewStream+drain", t0, t1)
			return t1.Sub(t0), nil
		case opInsert:
			_, err = mgr.Insert(o.name, o.elems)
			t1 := time.Now()
			tr.add(collSpan[i], i, "segment", "Manager.Insert", t0, t1)
			return t1.Sub(t0), err
		default:
			_, err = mgr.Delete(o.name)
			t1 := time.Now()
			tr.add(collSpan[i], i, "segment", "Manager.Delete", t0, t1)
			return t1.Sub(t0), err
		}
	})
	if passC.firstErr != nil {
		return nil, fmt.Errorf("direct manager pass: %w", passC.firstErr)
	}
	ticks1 := readCPUTicks()

	p := &probes{w: w, st: st, tr: tr, root: root}
	if err := p.run(phases, answers); err != nil {
		return nil, fmt.Errorf("probe: %w", err)
	}

	m := meansOf(tr.spans)
	searches := float64(fun.searches)
	nSearch := float64(passA.attempted[opSearch])
	cacheLookups := float64(info1.SimCache.Hits + info1.SimCache.Misses - info0.SimCache.Hits - info0.SimCache.Misses)
	queries := float64(info1.Throughput.QueriesTotal - info0.Throughput.QueriesTotal)
	var refused, slowed, stalled int64
	refused = info1.Resilience.ShedTotal + info1.Throughput.TimeoutsTotal
	for _, c := range info1.Collections {
		refused += c.Counters.QuotaRejectedTotal + c.Counters.RateLimitedTotal + c.Counters.ShedTotal +
			c.Counters.SlowedTotal + c.Counters.StalledTotal
		slowed += c.Counters.SlowedTotal
		stalled += c.Counters.StalledTotal
	}
	var schedRuns, schedRetries int64
	if info1.Scheduler != nil {
		schedRuns, schedRetries = info1.Scheduler.RunsTotal, info1.Scheduler.RetriesTotal
	}
	writeSelf := 0.0
	if n := m.count["server/client.insert"] + m.count["server/client.delete"]; n > 0 {
		writeSelf = (m.self["server/client.insert"]*float64(m.count["server/client.insert"]) +
			m.self["server/client.delete"]*float64(m.count["server/client.delete"])) / float64(n)
	}
	// Inserts take ten times as long as deletes, so a median over both would
	// sit in the gap between the two; the tail is all inserts either way.
	inserts := latenciesMS([]roundResult{passA}, func(k opKind) bool { return k == opInsert })
	i50, _, _ := percentile(inserts, 0.50)
	writes := latenciesMS([]roundResult{passA}, isWrite)
	w99, w99beyond, _ := percentile(writes, 0.99)
	cutNote := "refine minus the stream re-run; an upper bound on the index share where the lazy cut stops the stream early"

	rep := &report{Attempted: passA.attempted, Failed: passA.failed}
	if passA.firstErr != nil {
		rep.CheckErr = fmt.Errorf("failed op: %w", passA.firstErr)
	}
	rep.PerLayer = []metric{
		{"server.self_us_per_search", "us", p.serverSelfUS, fmt.Sprintf("HTTP round trip minus the direct call, paired on %d searches", p.serverPairs)},
		{"server.self_us_per_write", "us", writeSelf, ""},
		{"server.queue_wait_us_per_search", "us", ratio(float64(info1.Throughput.QueueWaitUSSum-info0.Throughput.QueueWaitUSSum), queries), "non-zero means the harness oversubscribed the pool"},
		{"server.refused_total", "count", float64(refused), ""},
		{"server.insert_p50_ms", "ms", i50, fmt.Sprintf("n=%d", len(inserts))},
		{"server.write_p99_ms", "ms", w99, fmt.Sprintf("n=%d, %d beyond", len(writes), w99beyond)},
		{"collection.admit_ns_per_search", "ns", mean(admitNS), "AdmitSearch + ReleaseSearch"},
		{"collection.insert_self_us", "us", m.self["collection/Collection.Insert"], "Collection.Insert minus Manager.Insert"},
		{"collection.slowed_total", "count", float64(slowed), ""},
		{"collection.stalled_total", "count", float64(stalled), ""},
		{"sched.runs_total", "count", float64(schedRuns), "varies with timing"},
		{"sched.retries_total", "count", float64(schedRetries), ""},
		{"segment.search_self_us", "us", m.self["segment/Manager.Search"], "Manager.Search minus refine and postproc"},
		{"segment.segments_per_search", "count", ratio(float64(fun.segments), searches), ""},
		{"segment.insert_us", "us", m.dur["segment/Manager.Insert"], ""},
		{"segment.delete_us", "us", m.dur["segment/Manager.Delete"], ""},
		{"segment.compact_ms", "ms", p.compactMS, ""},
		{"segment.checkpoint_ms", "ms", p.checkpointMS, ""},
		{"segment.reopen_ms", "ms", p.reopenMS, "registry Close + OpenRegistry"},
		{"store.wal_append_us", "us", p.walAppendUS, fmt.Sprintf("%d records", p.walRecords)},
		{"store.wal_bytes_per_user_byte", "ratio", p.walBytesPerUserByte, "exact"},
		{"store.segment_write_ms", "ms", p.segmentWriteMS, fmt.Sprintf("%d rows", len(w.seedSets))},
		{"store.segment_open_ms", "ms", p.segmentOpenMS, ""},
		{"store.disk_bytes_per_live_byte", "ratio", p.diskBytesPerLiveByte, ""},
		{"core.refine_us_per_search", "us", ratio(float64(fun.refine.Microseconds()), searches), ""},
		{"core.refine_self_us", "us", m.self["core/refine"], cutNote},
		{"core.postproc_us_per_search", "us", ratio(float64(fun.postproc.Microseconds()), searches), ""},
		{"core.candidates_per_search", "count", ratio(float64(fun.candidates), searches), ""},
		{"core.iub_pruned_frac", "ratio", ratio(float64(fun.iubPruned), float64(fun.candidates)), "of candidates"},
		{"core.no_em_frac", "ratio", ratio(float64(fun.noEM), float64(fun.candidates)), "of candidates"},
		{"core.em_early_frac", "ratio", ratio(float64(fun.emEarly), float64(fun.candidates)), "of candidates"},
		{"core.em_full_frac", "ratio", ratio(float64(fun.emFull), float64(fun.candidates)), "of candidates"},
		{"core.stream_consumed_frac", "ratio", ratio(float64(fun.tuples), float64(fun.retrieved+fun.queryElems)), "tuples consumed of tuples retrieved"},
		{"core.stream_cut_frac", "ratio", ratio(float64(fun.cuts), searches), "searches that cut the stream"},
		{"core.memory_bytes_per_search", "B", ratio(float64(fun.memoryBytes), searches), ""},
		{"index.stream_us_per_search", "us", m.dur["index/NewStream+drain"], ""},
		{"index.neighbors_us_per_token", "us", p.neighborsUS, fmt.Sprintf("%d tokens", p.neighborTokens)},
		{"index.retrieved_per_search", "count", ratio(float64(fun.retrieved), searches), ""},
		{"sim.cache_hit_rate", "ratio", ratio(float64(info1.SimCache.Hits-info0.SimCache.Hits), cacheLookups), "default collection, HTTP pass"},
		{"sim.cache_evictions_per_search", "count", ratio(float64(info1.SimCache.Evictions-info0.SimCache.Evictions), nSearch), ""},
		{"sim.cache_lookup_ns", "ns", p.cacheLookupNS, ""},
		{"sim.dot_ns_per_pair", "ns", p.dotNS, ""},
		{"sim.kernel_ns_per_pair", "ns", p.kernelNS, "edit-similarity kernel over the vocabulary"},
		{"matching.verify_calls_per_search", "count", ratio(float64(fun.verifyCalls), searches), ""},
		{"matching.hungarian_skipped_frac", "ratio", ratio(float64(fun.skipped), float64(fun.verifyCalls)), "of verify calls"},
		{"matching.hungarian_iters_per_search", "count", ratio(float64(fun.iterations), searches), ""},
		{"matching.verify_us_per_pair", "us", p.verifyUS, fmt.Sprintf("%d (query, result) pairs", p.verifyPairs)},
		{"setup.generate_s", "s", setup.generate.Seconds(), ""},
		{"setup.open_s", "s", setup.open.Seconds(), ""},
		{"setup.warmup_s", "s", setup.warmup.Seconds(), "one client"},
		{"trace.overhead_frac", "ratio", 1 - ratio(passA.opsPerSec(), untraced), fmt.Sprintf("traced %.4g vs untraced %.4g ops/s, one client", passA.opsPerSec(), untraced)},
		{"harness.round_spread", "ratio", spread(passRates), "over the three HTTP passes"},
		{"host.steal_frac", "ratio", stealFrac(ticks0, ticks1), ""},
	}
	printMetrics(out, "per-layer metrics (0 where the workload never calls that entry point):", rep.PerLayer)
	printCounts(out, rep)

	spansPath := o.spans
	if spansPath == "" {
		spansPath = filepath.Join(buildDir, "spans-"+s.name+".json")
	}
	if err := writeSpans(spansPath, tr.spans); err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "%d spans written to %s\n", len(tr.spans), spansPath)

	return rep.finish(out, st), nil
}

// probes times single entry points of the lower layers on the workload's own
// data, each under its own span.
type probes struct {
	w    *workload
	st   *stack
	tr   *tracer
	root string

	serverSelfUS                      float64
	serverPairs                       int
	neighborsUS                       float64
	neighborTokens                    int
	cacheLookupNS, dotNS, kernelNS    float64
	verifyUS                          float64
	verifyPairs                       int
	walAppendUS, walBytesPerUserByte  float64
	walRecords                        int
	segmentWriteMS, segmentOpenMS     float64
	compactMS, checkpointMS, reopenMS float64
	diskBytesPerLiveByte              float64
}

// timed runs fn under a probe span and returns its duration.
func (p *probes) timed(layer, name string, fn func()) time.Duration {
	start := time.Now()
	fn()
	end := time.Now()
	p.tr.add(0, -1, layer, name, start, end)
	return end.Sub(start)
}

func (p *probes) run(phases [][]op, answers []answeredSearch) error {
	if err := p.serverOverhead(phases); err != nil {
		return err
	}
	p.simAndIndex()
	p.matching(answers)
	if err := p.store(); err != nil {
		return err
	}
	if p.st.dir != "" {
		return p.durable()
	}
	return nil
}

// serverOverhead measures what the layers above the collection add to a
// search. Differencing the HTTP pass and the direct pass cannot resolve it:
// the passes run seconds apart, the host drifts by several per cent between
// them, and the overhead is a fraction of a millisecond on a search of tens
// of milliseconds. So each traced search is run once more to warm the sim
// cache and then alternately direct, over HTTP, direct, over HTTP; the four
// calls see the same cache and the same host within a few milliseconds, and
// a search's overhead is its mean HTTP time minus its mean direct time. The
// metric is the median over the searches: one garbage collection inside a
// 100 ms search would otherwise outweigh every other pair.
func (p *probes) serverOverhead(phases [][]op) error {
	ctx := context.Background()
	var overheadUS []float64
	start := time.Now()
	for _, phase := range phases {
		for i := range phase {
			o := &phase[i]
			if o.kind != opSearch {
				continue
			}
			col := p.st.collection(o.coll)
			direct := func() (time.Duration, error) {
				t0 := time.Now()
				if err := col.AdmitSearch(1); err != nil {
					return 0, err
				}
				_, _, err := col.Manager().Search(ctx, o.elems, 0)
				col.ReleaseSearch(1)
				return time.Since(t0), err
			}
			calls := []func() (time.Duration, error){func() (time.Duration, error) { return p.st.do(o) }, direct}
			if _, err := calls[0](); err != nil {
				return err
			}
			var diff time.Duration
			for n := 0; n < 4; n++ {
				d, err := calls[(n+1)%2]()
				if err != nil {
					return err
				}
				if n%2 == 0 {
					d = -d
				}
				diff += d
			}
			overheadUS = append(overheadUS, float64(diff.Nanoseconds())/2e3)
		}
	}
	p.tr.add(0, -1, "server", "paired HTTP and direct searches", start, time.Now())
	p.serverPairs = len(overheadUS)
	p.serverSelfUS = max(median(overheadUS), 0)
	return nil
}

// queryTokens returns up to n distinct tokens of the workload's queries.
func (p *probes) queryTokens(n int) []string {
	seen := make(map[string]bool)
	var out []string
	for _, q := range p.w.queries {
		for _, tok := range q {
			if !seen[tok] {
				seen[tok] = true
				if out = append(out, tok); len(out) == n {
					return out
				}
			}
		}
	}
	return out
}

func (p *probes) simAndIndex() {
	toks := p.queryTokens(64)
	vocab := p.w.ds.Repo.Vocabulary()
	src := p.st.collection(0).Manager().Source()
	alpha := servingOptions().Alpha

	d := p.timed("index", "Source.Neighbors", func() {
		for _, tok := range toks {
			src.Neighbors(tok, alpha)
		}
	})
	p.neighborTokens = len(toks)
	p.neighborsUS = ratio(float64(d.Microseconds()), float64(len(toks)))

	// The cache probe fills a default-size table with the (query token,
	// vocabulary token) ID pairs a scan of this workload looks up, then
	// reads them back in a shuffled order.
	const pairs = 1 << 18
	cache := sim.NewPairCache(sim.DefaultPairCacheSize)
	as, bs := make([]int32, pairs), make([]int32, pairs)
	for i := range as {
		as[i] = int32(i % max(len(toks), 1))
		bs[i] = int32(len(toks) + i/max(len(toks), 1)%max(len(vocab), 1))
		cache.Put(as[i], bs[i], 0.5)
	}
	order := rand.New(rand.NewSource(1)).Perm(pairs)
	var sink float64
	d = p.timed("sim", "PairCache.Lookup", func() {
		for _, i := range order {
			v, _ := cache.Lookup(as[i], bs[i])
			sink += v
		}
	})
	p.cacheLookupNS = float64(d.Nanoseconds()) / pairs

	var qv, vv [][]float32
	for _, tok := range toks {
		if v, ok := p.w.ds.Model.Vector(tok); ok {
			qv = append(qv, v)
		}
	}
	for _, tok := range vocab {
		if v, ok := p.w.ds.Model.Vector(tok); ok {
			vv = append(vv, v)
		}
	}
	d = p.timed("sim", "Dot", func() {
		for _, a := range qv {
			for _, b := range vv {
				sink += sim.Dot(a, b)
			}
		}
	})
	p.dotNS = ratio(float64(d.Nanoseconds()), float64(len(qv)*len(vv)))

	scores := make([]float64, len(vocab))
	d = p.timed("sim", "EditSimilarity.NewKernel+SimBatch", func() {
		for _, tok := range toks {
			sim.EditSimilarity{}.NewKernel(tok).SimBatch(vocab, scores)
		}
	})
	p.kernelNS = ratio(float64(d.Nanoseconds()), float64(len(toks)*len(vocab)))
	_ = sink
}

// answeredSearch is one directly executed search and what it returned.
type answeredSearch struct {
	query   []string
	results []segment.Result
	coll    int
}

// matching times the exact verification of each returned set against its
// query: the dense weight matrix built with the source's PairSim, solved by
// HungarianBounded without a bound.
func (p *probes) matching(answers []answeredSearch) {
	alpha := servingOptions().Alpha
	var total time.Duration
	for _, a := range answers {
		mgr := p.st.collection(a.coll).Manager()
		scorer, ok := index.ScorerOf(mgr.Source())
		if !ok {
			return
		}
		for _, res := range a.results {
			rec, ok := mgr.SetByName(res.Name)
			if !ok {
				continue
			}
			weights := make([][]float64, len(a.query))
			for i, q := range a.query {
				weights[i] = make([]float64, len(rec.Elements))
				for j, c := range rec.Elements {
					if q == c {
						weights[i][j] = 1
					} else if s := scorer.PairSim(q, c); s >= alpha {
						weights[i][j] = s
					}
				}
			}
			total += p.timed("matching", "HungarianBounded", func() { matching.HungarianBounded(weights, nil) })
			p.verifyPairs++
		}
	}
	p.verifyUS = ratio(float64(total.Microseconds()), float64(p.verifyPairs))
}

// store times the storage primitives on scratch files: the WAL records of
// the round's writes (on a read-only workload, of inserting its query sets),
// and the seed sets as one v2 segment file.
func (p *probes) store() error {
	var recs []store.WALRecord
	var user int64
	for _, phase := range p.w.phases {
		for i, o := range phase {
			switch o.kind {
			case opInsert:
				recs = append(recs, store.WALRecord{Op: store.WALInsert, Handle: int64(i), Name: o.name, Elements: o.elems})
				user += userBytes(o.name, o.elems)
			case opDelete:
				recs = append(recs, store.WALRecord{Op: store.WALDelete, Name: o.name})
				user += userBytes(o.name, nil)
			}
		}
	}
	if len(recs) == 0 {
		for i, q := range p.w.queries {
			name := fmt.Sprintf("query-%d", i)
			recs = append(recs, store.WALRecord{Op: store.WALInsert, Handle: int64(i), Name: name, Elements: q})
			user += userBytes(name, q)
		}
	}
	wal, err := store.CreateWAL(store.OS, filepath.Join(p.root, "probe.wal"), 1)
	if err != nil {
		return err
	}
	var appendErr error
	d := p.timed("store", "WAL.Append", func() {
		for _, rec := range recs {
			if err := wal.Append(rec); err != nil {
				appendErr = err
				return
			}
		}
	})
	written := wal.AppendedBytes()
	if err := wal.Close(); appendErr == nil {
		appendErr = err
	}
	if appendErr != nil {
		return appendErr
	}
	p.walRecords = len(recs)
	p.walAppendUS = ratio(float64(d.Microseconds()), float64(len(recs)))
	p.walBytesPerUserByte = ratio(float64(written), float64(user))

	repo := sets.NewRepository(p.w.seedSets)
	snap := &store.SegmentSnapshot{VocabN: repo.VocabSize(), Dead: make([]uint64, (repo.Len()+63)/64)}
	for i, row := range repo.Sets() {
		snap.Rows = append(snap.Rows, store.SegmentRow{Handle: int64(i), Name: row.Name, ElemIDs: row.ElemIDs})
	}
	path := filepath.Join(p.root, "probe.seg")
	var segErr error
	d = p.timed("store", "SaveSegmentV2", func() { segErr = store.SaveSegmentV2(store.OS, path, snap) })
	if segErr != nil {
		return segErr
	}
	p.segmentWriteMS = float64(d.Microseconds()) / 1e3
	var ms *store.MappedSegment
	d = p.timed("store", "OpenMappedSegment", func() { ms, segErr = store.OpenMappedSegment(store.OS, path) })
	if segErr != nil {
		return segErr
	}
	p.segmentOpenMS = float64(d.Microseconds()) / 1e3
	return ms.Release()
}

// durable times the maintenance entry points on the default collection's
// manager as the run left it, then a restart of the whole registry, and
// measures the space the closed directory takes per live byte.
func (p *probes) durable() error {
	mgr := p.st.collection(0).Manager()
	var err error
	d := p.timed("segment", "Manager.Compact", func() { err = mgr.Compact() })
	if err != nil {
		return err
	}
	p.compactMS = float64(d.Microseconds()) / 1e3
	d = p.timed("segment", "Manager.Checkpoint", func() { err = mgr.Checkpoint() })
	if err != nil {
		return err
	}
	p.checkpointMS = float64(d.Microseconds()) / 1e3

	var live int64
	for i := range p.w.collections {
		live += p.st.collection(i).Bytes()
	}
	if err := p.st.stopServing(); err != nil {
		return err
	}
	d = p.timed("segment", "Registry.Close", func() { err = p.st.reg.Close() })
	if err != nil {
		return err
	}
	disk, err := dirBytes(p.st.dir)
	if err != nil {
		return err
	}
	d += p.timed("segment", "OpenRegistry", func() {
		p.st.reg, err = collection.OpenRegistry(p.st.dir, nil, registryConfig(p.w))
	})
	if err != nil {
		return err
	}
	p.reopenMS = float64(d.Microseconds()) / 1e3
	p.diskBytesPerLiveByte = ratio(float64(disk), float64(live))
	return p.st.serve()
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		return nil
	})
	return total, err
}
