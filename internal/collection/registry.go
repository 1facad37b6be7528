package collection

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"sync"

	"repro/internal/core"
	"repro/internal/sched"
	"repro/internal/segment"
	"repro/internal/sets"
)

// CollectionsDirName is the sub-directory of a durable registry's root
// that holds the named collections (one directory per collection). The
// root itself is the default collection's directory — the pre-multi-tenant
// layout, unchanged.
const CollectionsDirName = "collections"

// tenantFileName is the per-collection metadata file (quota), written into
// the collection's directory on create and re-read on recovery.
const tenantFileName = "TENANT.json"

// ErrExists is returned by Create for a name already in use.
var ErrExists = errors.New("collection: name already exists")

// ErrNotFound is returned for operations on an unknown collection.
var ErrNotFound = errors.New("collection: no such collection")

// ErrDefault is returned by Drop on the default collection, which always
// exists (the legacy un-scoped routes serve it).
var ErrDefault = errors.New("collection: the default collection cannot be dropped")

// ErrClosed is returned by mutating registry operations after Close.
var ErrClosed = errors.New("collection: registry is closed")

// nameRE is the collection-name grammar: a filesystem- and URL-safe subset
// so a name can be its own directory and path segment. Must start with an
// alphanumeric (no dotfiles, no traversal) and stay short.
var nameRE = regexp.MustCompile(`^[a-zA-Z0-9][a-zA-Z0-9._-]{0,63}$`)

// ValidName reports whether name is a legal collection name.
func ValidName(name string) bool { return nameRE.MatchString(name) }

// Registry owns the named collections of one process. All methods are safe
// for concurrent use; Get/List take a read lock only, so serving traffic
// never contends with create/drop beyond that.
type Registry struct {
	dir      string // root directory; "" = in-memory
	build    segment.SourceBuilder
	opts     core.Options
	segCfg   segment.Config
	defaults Quota       // quota applied to collections created without one
	clock    sched.Clock // the rate limiters' and the scheduler's time

	// maint is the resolved maintenance policy and sched the coordinated
	// scheduler driving it: the only thing that compacts or checkpoints a
	// collection besides explicit calls and Close.
	maint MaintenanceConfig
	sched *sched.Scheduler

	mu     sync.RWMutex
	cols   map[string]*Collection
	closed bool
}

// Config parameterizes a registry.
type Config struct {
	// Build constructs each collection's similarity source over its own
	// dictionary (collections are fully independent engines).
	Build segment.SourceBuilder
	// Opts and SegCfg are shared engine/segment settings; every collection
	// gets its own manager built from them.
	Opts   core.Options
	SegCfg segment.Config
	// DefaultQuota applies to the default collection and to collections
	// created without an explicit quota. The zero value is unlimited —
	// the pre-multi-tenant behavior.
	DefaultQuota Quota
	// Maintenance is the policy of the scheduler that compacts and
	// checkpoints every collection, and of write degradation (DESIGN.md
	// §15). The zero value is the default policy.
	Maintenance MaintenanceConfig
	// Clock times the rate limiters and the scheduler; nil = the wall
	// clock. Tests pass a sched.Manual.
	Clock sched.Clock
}

// NewRegistry builds an in-memory registry whose default collection is
// seeded with seed.
func NewRegistry(seed []sets.Set, cfg Config) *Registry {
	r := newRegistry("", cfg)
	r.add(DefaultName, segment.NewManager(seed, r.build, r.opts, r.segCfg), r.defaults)
	return r
}

// OpenRegistry builds a durable registry rooted at dir. The default
// collection opens (or is seeded) in dir itself — byte-compatible with a
// pre-multi-tenant data directory — and every sub-directory of
// dir/collections is recovered as a named collection, in lexicographic
// order, each through the same manifest/WAL machinery the default uses.
// A named collection whose directory cannot be opened fails the whole
// recovery: the registry never silently serves fewer tenants than were
// created (file-level damage inside a collection is handled below this
// layer by quarantine + degraded mode).
func OpenRegistry(dir string, seed []sets.Set, cfg Config) (_ *Registry, err error) {
	r := newRegistry(dir, cfg)
	defer func() {
		if err != nil {
			r.sched.Stop()
		}
	}()
	mgr, err := segment.Open(dir, seed, r.build, r.opts, r.segCfg)
	if err != nil {
		return nil, err
	}
	r.add(DefaultName, mgr, r.defaults)

	sub := filepath.Join(dir, CollectionsDirName)
	entries, err := os.ReadDir(sub) // sorted by name
	if os.IsNotExist(err) {
		return r, nil
	} else if err != nil {
		return nil, fmt.Errorf("collection: scan %s: %w", sub, err)
	}
	for _, e := range entries {
		name := e.Name()
		if !e.IsDir() || !ValidName(name) {
			continue
		}
		q, err := readTenantFile(filepath.Join(sub, name))
		if err != nil {
			return nil, fmt.Errorf("collection: recover %q: %w", name, err)
		}
		m, err := segment.Open(filepath.Join(sub, name), nil, r.build, r.opts, r.segCfg)
		if err != nil {
			return nil, fmt.Errorf("collection: recover %q: %w", name, err)
		}
		r.add(name, m, q)
	}
	return r, nil
}

func newRegistry(dir string, cfg Config) *Registry {
	clock := cfg.Clock
	if clock == nil {
		clock = sched.WallClock{}
	}
	r := &Registry{
		dir:      dir,
		build:    cfg.Build,
		opts:     cfg.Opts,
		segCfg:   cfg.SegCfg,
		defaults: cfg.DefaultQuota,
		clock:    clock,
		maint:    cfg.Maintenance.withDefaults(cfg.SegCfg),
		cols:     make(map[string]*Collection),
	}
	r.sched = sched.New(sched.Config{Workers: r.maint.Workers, UrgentScore: r.maint.UrgentScore, Clock: clock})
	// Every manager this registry builds reports debt growth to the
	// scheduler; the notify hook is lock-free, as the Manager calls it under
	// its writer lock.
	r.segCfg.OnMaintenance = r.sched.Notify
	return r
}

// add wraps a freshly built manager as the named collection and hands it
// to the coordinated scheduler.
func (r *Registry) add(name string, mgr *segment.Manager, q Quota) *Collection {
	c := newCollection(name, mgr, q, r.clock.Now)
	c.maint = &r.maint
	r.cols[name] = c
	r.sched.Register(name, c.Weight(), &maintTarget{col: c, cfg: r.maint})
	return c
}

// Scheduler returns the coordinated maintenance scheduler. The serving
// layer uses it to install the load probe and to export scheduler state on
// /v1/info.
func (r *Registry) Scheduler() *sched.Scheduler { return r.sched }

// Default returns the always-present default collection.
func (r *Registry) Default() *Collection {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.cols[DefaultName]
}

// Get returns the named collection.
func (r *Registry) Get(name string) (*Collection, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	c, ok := r.cols[name]
	return c, ok
}

// List returns every collection sorted by name (default first).
func (r *Registry) List() []*Collection {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]*Collection, 0, len(r.cols))
	for _, c := range r.cols {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool {
		if (out[i].name == DefaultName) != (out[j].name == DefaultName) {
			return out[i].name == DefaultName
		}
		return out[i].name < out[j].name
	})
	return out
}

// Create adds a new empty collection. A zero quota takes the registry
// default. On durable registries the collection gets its own directory
// (with manifest, WAL, and a TENANT.json carrying the quota) and is
// immediately crash-safe. The new collection cannot be searched or written
// through the registry until Create returns, so creation needs no
// coordination with serving traffic.
func (r *Registry) Create(name string, q Quota) (*Collection, error) {
	if !ValidName(name) {
		return nil, fmt.Errorf("collection: invalid name %q (want %s)", name, nameRE)
	}
	if q.IsZero() {
		q = r.defaults
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return nil, ErrClosed
	}
	if _, ok := r.cols[name]; ok {
		return nil, fmt.Errorf("%w: %q", ErrExists, name)
	}
	var mgr *segment.Manager
	if r.dir == "" {
		mgr = segment.NewManager(nil, r.build, r.opts, r.segCfg)
	} else {
		dir := filepath.Join(r.dir, CollectionsDirName, name)
		var err error
		if mgr, err = segment.Open(dir, nil, r.build, r.opts, r.segCfg); err != nil {
			return nil, fmt.Errorf("collection: create %q: %w", name, err)
		}
		if err := writeTenantFile(dir, q); err != nil {
			mgr.Close()
			os.RemoveAll(dir)
			return nil, fmt.Errorf("collection: create %q: %w", name, err)
		}
	}
	return r.add(name, mgr, q), nil
}

// Drop removes a named collection: it disappears from the registry, its
// manager closes (in-flight searches finish against their snapshots — the
// engine serves from immutable state), and on durable registries its
// directory is deleted. The default collection cannot be dropped.
func (r *Registry) Drop(name string) error {
	if name == DefaultName {
		return ErrDefault
	}
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return ErrClosed
	}
	c, ok := r.cols[name]
	if !ok {
		r.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	delete(r.cols, name)
	r.mu.Unlock()

	// Deschedule first so no new maintenance round starts against the
	// closing manager (one already in flight finishes or, once Close has
	// run, returns ErrClosed — Compact and Close serialize on the manager's
	// own locks).
	r.sched.Unregister(name)
	// Close and delete outside the lock: neither blocks serving traffic on
	// other collections, and searches already running against the dropped
	// collection's snapshot complete safely (segments are immutable and,
	// when mapped, stay mapped until their last reference is released).
	err := c.mgr.Close()
	if r.dir != "" {
		if rmErr := os.RemoveAll(filepath.Join(r.dir, CollectionsDirName, name)); err == nil {
			err = rmErr
		}
	}
	return err
}

// Close stops the maintenance scheduler (waiting out in-flight background
// ops) and closes every collection (checkpointing durable ones). Further
// Create/Drop calls fail with ErrClosed; existing collections keep
// answering searches from their last snapshots.
func (r *Registry) Close() error {
	// Stop the scheduler before closing managers: Stop waits for in-flight
	// runs, so no compaction races a closing manager. Outside r.mu — runs
	// never take the registry lock, but there is no reason to serialize
	// serving reads behind the wait either.
	r.sched.Stop()
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return nil
	}
	r.closed = true
	var first error
	for _, c := range r.cols {
		if err := c.mgr.Close(); first == nil {
			first = err
		}
	}
	return first
}

// tenantFile is the on-disk metadata of one named collection.
type tenantFile struct {
	Name  string `json:"name"`
	Quota Quota  `json:"quota"`
}

// writeTenantFile commits the collection metadata by write-to-temp +
// atomic rename, the same discipline the manifest uses. Quota metadata is
// advisory (losing it degrades to the unlimited quota, never to data
// loss), so the write is not fsync-chained like the data files.
func writeTenantFile(dir string, q Quota) error {
	raw, err := json.MarshalIndent(tenantFile{Name: filepath.Base(dir), Quota: q}, "", "  ")
	if err != nil {
		return err
	}
	tmp := filepath.Join(dir, tenantFileName+".tmp")
	if err := os.WriteFile(tmp, append(raw, '\n'), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, filepath.Join(dir, tenantFileName))
}

// readTenantFile recovers a collection's quota; a missing file (an older
// layout, or a crash between MkdirAll and the metadata write) is the
// unlimited quota, not an error.
func readTenantFile(dir string) (Quota, error) {
	raw, err := os.ReadFile(filepath.Join(dir, tenantFileName))
	if err != nil {
		if os.IsNotExist(err) {
			return Quota{}, nil
		}
		return Quota{}, err
	}
	var tf tenantFile
	if err := json.Unmarshal(raw, &tf); err != nil {
		return Quota{}, fmt.Errorf("%s: %w", tenantFileName, err)
	}
	return tf.Quota, nil
}
