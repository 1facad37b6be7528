package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/collection"
	"repro/internal/core"
	"repro/internal/index"
	"repro/internal/segment"
	"repro/internal/server"
	"repro/internal/sets"
	"repro/internal/sim"
)

// servingOptions is the serving configuration every workload runs: one
// partition and one verification worker per query (concurrency comes from
// the server's worker pool), exact scores as the HTTP API promises.
func servingOptions() core.Options {
	return core.Options{K: 10, Alpha: 0.8, Partitions: 1, Workers: 1, ExactScores: true}.WithDefaults()
}

// flushPolicy is stated with every result: durable collections append to the
// WAL without an fsync per write (segment.Config.SyncWAL off, the server's
// default), checkpoints fsync.
const flushPolicy = "SyncWAL=false (no fsync per write; checkpoints fsync)"

// sourceBuilder returns the similarity source constructor for w.
func sourceBuilder(w *workload) segment.SourceBuilder {
	if w.spec.source == editSource {
		return func(dict *sets.Dictionary) index.NeighborSource {
			return index.NewDynamicFunc(dict, sim.EditSimilarity{})
		}
	}
	vec := w.ds.Model.Vector
	return func(dict *sets.Dictionary) index.NeighborSource {
		return index.NewDynamicExact(dict, vec)
	}
}

func registryConfig(w *workload) collection.Config {
	cfg := collection.Config{Build: sourceBuilder(w), Opts: servingOptions()}
	if w.spec.durable {
		cfg.Maintenance = collection.MaintenanceConfig{Workers: 1}
	}
	return cfg
}

// stack is one running instance of the system under test: a registry behind
// a real server.Server on a loopback TCP port, and the clients that talk to
// it.
type stack struct {
	w    *workload
	dir  string // data directory; "" for in-memory registries
	reg  *collection.Registry
	http *http.Server
	done chan error // result of http.Serve
	// clients[i] addresses w.collections[i].
	clients []*server.Client
	root    *server.Client
	hc      *http.Client
}

// openStack builds the registry for w and serves it. Durable workloads get
// their collections written the way an operator would: the default
// collection seeded into dir, the second one created and loaded over HTTP,
// then everything closed and reopened from disk — so the timed section runs
// against recovered, mmap-served segments.
func openStack(w *workload, dir string) (*stack, error) {
	s := &stack{w: w}
	if !w.spec.durable {
		s.reg = collection.NewRegistry(w.seedSets, registryConfig(w))
		return s, s.serve()
	}
	s.dir = dir
	var err error
	if s.reg, err = collection.OpenRegistry(dir, w.seedSets, registryConfig(w)); err != nil {
		return nil, err
	}
	if err := s.serve(); err != nil {
		s.reg.Close()
		return nil, err
	}
	for i, name := range w.collections[1:] {
		if _, err := s.root.CreateCollection(context.Background(), name, collection.Quota{}); err != nil {
			s.close()
			return nil, fmt.Errorf("create %s: %w", name, err)
		}
		for _, st := range w.seedSets {
			if _, err := s.clients[i+1].Insert(st.Name, st.Elements); err != nil {
				s.close()
				return nil, fmt.Errorf("load %s: %w", name, err)
			}
		}
	}
	if err := s.reopen(); err != nil {
		return nil, err
	}
	return s, nil
}

// serve starts the HTTP server over s.reg on a free loopback port and builds
// the clients. Retries are off: a refusal is a failed op, not a hidden
// back-off.
func (s *stack) serve() error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	s.http = &http.Server{Handler: server.NewRegistry(s.reg, server.Config{
		SearchWorkers: s.w.spec.clients,
		QueryTimeout:  60 * time.Second,
	})}
	s.done = make(chan error, 1)
	go func() { s.done <- s.http.Serve(ln) }()

	s.hc = &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: s.w.spec.clients,
		MaxConnsPerHost:     s.w.spec.clients,
	}}
	s.root = server.NewClient("http://"+ln.Addr().String(), s.hc)
	s.root.SetRetry(server.RetryPolicy{MaxAttempts: 1})
	s.clients = make([]*server.Client, len(s.w.collections))
	for i, name := range s.w.collections {
		s.clients[i] = s.root
		if name != collection.DefaultName {
			s.clients[i] = s.root.Collection(name)
		}
	}
	return nil
}

// stopServing shuts the HTTP server down and waits for its goroutine.
func (s *stack) stopServing() error {
	if s.http == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.http.Shutdown(ctx)
	if serr := <-s.done; err == nil && !errors.Is(serr, http.ErrServerClosed) {
		err = serr
	}
	s.hc.CloseIdleConnections()
	s.http = nil
	return err
}

// reopen closes the durable registry (a checkpoint) and recovers it from the
// directory, then serves the recovered registry.
func (s *stack) reopen() error {
	if err := s.stopServing(); err != nil {
		return err
	}
	if err := s.reg.Close(); err != nil {
		return fmt.Errorf("close registry: %w", err)
	}
	var err error
	if s.reg, err = collection.OpenRegistry(s.dir, nil, registryConfig(s.w)); err != nil {
		return fmt.Errorf("reopen registry: %w", err)
	}
	return s.serve()
}

// close stops the server and the registry and removes the data directory.
func (s *stack) close() error {
	err := s.stopServing()
	if cerr := s.reg.Close(); err == nil {
		err = cerr
	}
	if s.dir != "" {
		if rerr := os.RemoveAll(s.dir); err == nil {
			err = rerr
		}
	}
	return err
}

// collection returns the registry's collection behind w.collections[i].
func (s *stack) collection(i int) *collection.Collection {
	c, _ := s.reg.Get(s.w.collections[i])
	return c
}

// sample is one completed op as a client saw it.
type sample struct {
	kind opKind
	ns   int64
}

// roundResult is one replay of the round's op list.
type roundResult struct {
	wall    time.Duration
	samples []sample // successful ops only
	// attempted and failed count ops by kind.
	attempted, failed [3]int
	firstErr          error
}

func (r *roundResult) opsPerSec() float64 {
	n := 0
	for _, a := range r.attempted {
		n += a
	}
	return float64(n) / r.wall.Seconds()
}

// do issues one op through the HTTP client and returns its latency.
func (s *stack) do(o *op) (time.Duration, error) {
	c := s.clients[o.coll]
	start := time.Now()
	var err error
	switch o.kind {
	case opSearch:
		_, err = c.Search(o.elems, 0)
	case opInsert:
		_, err = c.Insert(o.name, o.elems)
	case opDelete:
		_, err = c.Delete(o.name)
	}
	return time.Since(start), err
}

// replay runs one round as a closed loop: clients goroutines each take the
// next op of the phase, send it, and wait for the decoded reply before
// taking another; a barrier separates the phases. exec is the call made per
// op — s.do for the HTTP stack, a direct layer call in the traced passes.
func replay(phases [][]op, clients int, exec func(o *op) (time.Duration, error)) roundResult {
	var res roundResult
	perClient := make([]roundResult, clients)
	start := time.Now()
	for _, phase := range phases {
		var next atomic.Int64
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(r *roundResult) {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= len(phase) {
						return
					}
					o := &phase[i]
					d, err := exec(o)
					r.attempted[o.kind]++
					if err != nil {
						r.failed[o.kind]++
						if r.firstErr == nil {
							r.firstErr = fmt.Errorf("%s %q: %w", o.kind, o.name, err)
						}
						continue
					}
					r.samples = append(r.samples, sample{o.kind, d.Nanoseconds()})
				}
			}(&perClient[c])
		}
		wg.Wait()
	}
	res.wall = time.Since(start)
	for _, r := range perClient {
		res.samples = append(res.samples, r.samples...)
		for k := range r.attempted {
			res.attempted[k] += r.attempted[k]
			res.failed[k] += r.failed[k]
		}
		if res.firstErr == nil {
			res.firstErr = r.firstErr
		}
	}
	return res
}

// latenciesMS extracts the sorted latencies, in milliseconds, of the ops
// accepted by keep.
func latenciesMS(rounds []roundResult, keep func(opKind) bool) []float64 {
	var out []float64
	for _, r := range rounds {
		for _, s := range r.samples {
			if keep(s.kind) {
				out = append(out, float64(s.ns)/1e6)
			}
		}
	}
	sort.Float64s(out)
	return out
}

func isSearch(k opKind) bool { return k == opSearch }
func isWrite(k opKind) bool  { return k != opSearch }

// buildDir is where run.sh builds and where the benchmark writes: everything
// stays inside the checkout it runs in.
const buildDir = ".bench_build"

// scratchDir makes a fresh directory under buildDir.
func scratchDir(label string) (string, error) {
	root := filepath.Join(buildDir, "tmp")
	if err := os.MkdirAll(root, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(root, label+"-")
}
