// Command koios-server serves top-k semantic overlap search over HTTP.
//
// It loads a dataset either from a file written by `koios-datagen -format
// store` or by generating one of the synthetic evaluation corpora, builds
// the indexes once, and answers JSON queries. The collection stays mutable
// while serving: POST /v1/sets and DELETE /v1/sets/{name} insert and remove
// sets without a restart (see the segment manager, DESIGN.md §4).
//
// With -dir the collection is durable (DESIGN.md §8): every insert/delete
// is write-ahead logged, sealed segments are snapshotted to disk, and a
// restarted server recovers the exact collection — the dataset flags then
// only seed a fresh directory (and keep supplying the embedding vectors,
// which are not persisted).
//
// Serving throughput (DESIGN.md §9): searches run through a bounded worker
// pool (-workers; queries beyond it queue), each query gets a -query-timeout,
// and POST /v1/search/batch answers many queries against one snapshot.
// GET /v1/info reports queue depth and latency percentiles.
//
// Multi-tenant serving (DESIGN.md §14): one process serves N named
// collections. POST /v1/collections creates one (optionally with a quota),
// /v1/collections/{name}/... scopes every data route, and the un-scoped
// routes keep serving the default collection byte-identically. With -dir,
// named collections live in their own sub-directories under
// <dir>/collections/ and recover independently on restart. The -default-*
// flags set the quota applied to collections created without one
// (0 = unlimited); -shed-p99 adds latency-driven load shedding.
//
// Background scheduling & fairness (DESIGN.md §15): -bg-workers > 0 moves
// every collection's compactions and checkpoints into one coordinated
// scheduler — at most that many background ops run at once across the
// whole process, shared by weighted fair scheduling (collection quota
// weights, -default-weight for the rest), with retry-with-backoff on
// failures and deferral while search latency is blown. Search admission
// then also runs deficit-round-robin weighted fair queueing across
// collections, and a collection whose maintenance backlog crosses the
// -slowdown-sealed / -stall-sealed (or WAL-volume) thresholds has inserts
// refused with a typed 503 maintenance_backlog + Retry-After instead of
// silently slowing down. With -bg-workers 0 (the default) nothing
// changes: collections self-maintain and writes never stall.
//
//	koios-server -dataset opendata -scale 0.1 -addr :7411
//	koios-server -data wdc.koios.gz -addr :7411
//	koios-server -dataset twitter -scale 0.1 -dir ./koios-data
//	koios-server -dataset twitter -workers 8 -query-timeout 10s
//
//	curl -s localhost:7411/v1/info
//	curl -s -X POST localhost:7411/v1/search \
//	     -d '{"query": ["alpha", "beta"], "k": 5}'
//	curl -s -X POST localhost:7411/v1/search/batch \
//	     -d '{"queries": [["alpha", "beta"], ["gamma"]], "k": 5}'
//	curl -s -X POST localhost:7411/v1/sets \
//	     -d '{"name": "mine", "elements": ["alpha", "gamma"]}'
//	curl -s localhost:7411/v1/sets/mine
//	curl -s -X DELETE localhost:7411/v1/sets/mine
//
// The server shuts down gracefully on SIGINT/SIGTERM, draining in-flight
// requests for up to -drain before exiting; a durable server then
// checkpoints, so the next start replays no WAL.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/collection"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/index"
	"repro/internal/segment"
	"repro/internal/server"
	"repro/internal/sets"
	"repro/internal/store"
)

func main() {
	var (
		addr     = flag.String("addr", ":7411", "listen address")
		data     = flag.String("data", "", "dataset file written by koios-datagen -format store")
		dataset  = flag.String("dataset", "opendata", "synthetic dataset kind when -data is empty")
		scale    = flag.Float64("scale", 0.1, "synthetic dataset scale")
		dir      = flag.String("dir", "", "data directory for durable storage (WAL + segment snapshots); empty = in-memory")
		sync     = flag.Bool("sync", false, "fsync the WAL after every insert/delete (durable mode only)")
		k        = flag.Int("k", 10, "result size of a search that names no k (every collection's default_k in /v1/info)")
		alpha    = flag.Float64("alpha", 0.8, "element similarity threshold of every collection, for /v1/search and /v1/overlap alike")
		parts    = flag.Int("partitions", 4, "partitions a seed or compacted segment is built with and refined in parallel")
		workers  = flag.Int("workers", 0, "max concurrently executing searches (worker pool size; 0 = GOMAXPROCS)")
		verifyW  = flag.Int("verify-workers", 4, "exact-matching verifications one search of any collection runs concurrently during post-processing")
		qTimeout = flag.Duration("query-timeout", 30*time.Second, "per-query execution timeout (0 = unlimited)")
		seal     = flag.Int("seal", 256, "memtable sets buffered before sealing a segment")
		maxSegs  = flag.Int("max-segments", 4, "sealed segments tolerated before compaction")
		maxQueue = flag.Int("max-queue", 0, "worker-pool queue depth beyond which searches are shed with 429 (0 = 8 × search workers)")
		shedP99  = flag.Duration("shed-p99", 0, "shed new searches with 429 while the recent p99 latency exceeds this and queries are queueing (0 = disabled)")
		drain    = flag.Duration("drain", 10*time.Second, "graceful shutdown drain timeout")

		defMaxSets     = flag.Int64("default-max-sets", 0, "default per-collection live-set quota for collections created without one (0 = unlimited)")
		defMaxBytes    = flag.Int64("default-max-bytes", 0, "default per-collection byte quota (summed element bytes; 0 = unlimited)")
		defQPS         = flag.Float64("default-qps", 0, "default per-collection search rate limit in queries/sec (0 = unlimited)")
		defBurst       = flag.Int("default-burst", 0, "default rate-limit burst (0 = qps rounded up)")
		defMaxInFlight = flag.Int64("default-max-inflight", 0, "default per-collection concurrent-search cap (0 = unlimited)")
		defWeight      = flag.Int("default-weight", 0, "default per-collection fair-share weight for search scheduling and background maintenance (0 = 1)")

		bgWorkers     = flag.Int("bg-workers", 0, "background maintenance workers shared across ALL collections: compactions and checkpoints run through one coordinated scheduler with weighted fair sharing and write stalls (0 = legacy per-collection self-maintenance, writes never stall)")
		checkpointWAL = flag.Int64("checkpoint-wal", 0, "un-checkpointed WAL bytes at which the scheduler checkpoints a collection (0 = 1 MiB; needs -bg-workers)")
		slowSealed    = flag.Int("slowdown-sealed", 0, "sealed segments at which a collection's inserts start being refused with 503 maintenance_backlog (0 = 4 × -max-segments; needs -bg-workers)")
		stallSealed   = flag.Int("stall-sealed", 0, "sealed segments at which a collection's inserts are fully stalled until maintenance drains (0 = 8 × -max-segments; needs -bg-workers)")
	)
	flag.Parse()

	// Boot protocol (DESIGN.md §11): bind the port and answer probes
	// before recovery starts — /healthz says the process is alive while
	// /readyz answers 503 until the collection is loaded — so an
	// orchestrator can tell "recovering a big directory" from "crashed".
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	sw := server.NewSwapper()
	srv := &http.Server{Handler: sw}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()
	log.Printf("koios-server: listening on %s, loading collection (readyz 503 until recovery completes)", ln.Addr())

	reg, err := loadRegistry(*data, *dataset, *scale, *dir, core.Options{
		K:           *k,
		Alpha:       *alpha,
		Partitions:  *parts,
		Workers:     *verifyW,
		ExactScores: true,
	}, segment.Config{SealThreshold: *seal, MaxSegments: *maxSegs, SyncWAL: *sync},
		collection.Quota{
			MaxSets:     *defMaxSets,
			MaxBytes:    *defMaxBytes,
			RatePerSec:  *defQPS,
			Burst:       *defBurst,
			MaxInFlight: *defMaxInFlight,
			Weight:      *defWeight,
		},
		collection.MaintenanceConfig{
			Workers:            *bgWorkers,
			CheckpointWALBytes: *checkpointWAL,
			SlowdownSealed:     *slowSealed,
			StallSealed:        *stallSealed,
		})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	sw.Swap(server.NewRegistry(reg, server.Config{
		SearchWorkers:  *workers,
		QueryTimeout:   *qTimeout,
		MaxQueueDepth:  *maxQueue,
		ShedLatencyP99: *shedP99,
	}))
	var totalSets, totalTokens int
	for _, c := range reg.List() {
		m := c.Manager()
		totalSets += m.Len()
		totalTokens += m.VocabSize()
		if h := m.Health(); h.Degraded {
			log.Printf("koios-server: WARNING: collection %q recovery quarantined %d damaged file(s); serving the survivors degraded — POST /v1/collections/%s/repair to re-persist and clear", c.Name(), len(h.Quarantined), c.Name())
			for _, q := range h.Quarantined {
				log.Printf("koios-server:   quarantined %s: %s", q.File, q.Reason)
			}
		}
	}
	mgr := reg.Default().Manager()
	durability := "in-memory"
	if mgr.Dir() != "" {
		durability = "durable in " + mgr.Dir()
	}
	log.Printf("koios-server: ready — %d collection(s), %d sets, %d tokens, %s", len(reg.List()), totalSets, totalTokens, durability)

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGINT, syscall.SIGTERM)
	select {
	case err := <-errCh:
		// Listener failed before any signal (port in use, …).
		log.Fatal(err)
	case sig := <-sigCh:
		log.Printf("koios-server: %v, draining for up to %v", sig, *drain)
		ctx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			log.Printf("koios-server: forced shutdown: %v", err)
			srv.Close()
		}
		if err := <-errCh; err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Printf("koios-server: %v", err)
		}
		// Checkpoint + close every collection's WAL so the next start
		// replays nothing.
		if err := reg.Close(); err != nil {
			log.Printf("koios-server: close: %v", err)
		}
		log.Print("koios-server: bye")
	}
}

func loadRegistry(path, kind string, scale float64, dir string, opts core.Options, segCfg segment.Config, defQuota collection.Quota, maint collection.MaintenanceConfig) (*collection.Registry, error) {
	var (
		seed []sets.Set
		vec  func(string) ([]float32, bool)
	)
	if path != "" {
		f, err := store.Load(store.OS, path)
		if err != nil {
			return nil, err
		}
		vecs, err := f.Vectors.Decode()
		if err != nil {
			return nil, err
		}
		if len(vecs) == 0 {
			return nil, fmt.Errorf("koios-server: %s has no vectors; regenerate with koios-datagen -format store", path)
		}
		seed = f.Repository().Sets()
		vec = func(tok string) ([]float32, bool) {
			v, ok := vecs[tok]
			return v, ok
		}
	} else {
		ds := datagen.GenerateDefault(datagen.Kind(kind), scale)
		seed = ds.Repo.Sets()
		vec = ds.Model.Vector
	}
	build := func(dict *sets.Dictionary) index.NeighborSource {
		return index.NewDynamicExact(dict, vec)
	}
	regCfg := collection.Config{
		Build:        build,
		Opts:         opts,
		SegCfg:       segCfg,
		DefaultQuota: defQuota,
		Maintenance:  maint,
	}
	if dir == "" {
		return collection.NewRegistry(seed, regCfg), nil
	}
	if segment.Initialized(dir) {
		log.Printf("koios-server: recovering collections from %s (dataset flags seed fresh directories only)", dir)
	}
	return collection.OpenRegistry(dir, seed, regCfg)
}
