package collection

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/segment"
	"repro/internal/sets"
)

func TestValidName(t *testing.T) {
	valid := []string{"a", "A9", "tenant-1", "logs.2026", "x_y", strings.Repeat("a", 64)}
	for _, name := range valid {
		if !ValidName(name) {
			t.Errorf("ValidName(%q) = false, want true", name)
		}
	}
	invalid := []string{
		"", "-leading", ".hidden", "_x", "has space", "slash/inside",
		"semi;colon", strings.Repeat("a", 65), "ünïcode",
	}
	for _, name := range invalid {
		if ValidName(name) {
			t.Errorf("ValidName(%q) = true, want false", name)
		}
	}
}

func TestRegistryCRUD(t *testing.T) {
	seed := []sets.Set{{Name: "s0", Elements: []string{"x"}}}
	reg := NewRegistry(seed, testConfig())

	// The default collection always exists, is seeded, and cannot be
	// shadowed or dropped.
	def := reg.Default()
	if def.Name() != DefaultName || def.Manager().Len() != 1 {
		t.Fatalf("default = %s/%d sets, want %s/1", def.Name(), def.Manager().Len(), DefaultName)
	}
	if _, err := reg.Create(DefaultName, Quota{}); !errors.Is(err, ErrExists) {
		t.Fatalf("Create(default) = %v, want ErrExists", err)
	}
	if err := reg.Drop(DefaultName); !errors.Is(err, ErrDefault) {
		t.Fatalf("Drop(default) = %v, want ErrDefault", err)
	}

	if _, err := reg.Create("bad name", Quota{}); err == nil {
		t.Fatal("Create with an invalid name succeeded")
	}

	a, err := reg.Create("a", Quota{MaxSets: 3})
	if err != nil {
		t.Fatal(err)
	}
	if a.Quota().MaxSets != 3 {
		t.Fatalf("quota = %+v, want MaxSets 3", a.Quota())
	}
	if _, err := reg.Create("a", Quota{}); !errors.Is(err, ErrExists) {
		t.Fatalf("duplicate Create = %v, want ErrExists", err)
	}
	if _, ok := reg.Get("a"); !ok {
		t.Fatal("Get(a) missed a live collection")
	}
	if _, ok := reg.Get("nope"); ok {
		t.Fatal("Get(nope) found a ghost")
	}

	// List: default first, then lexicographic.
	if _, err := reg.Create("z", Quota{}); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Create("b", Quota{}); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, c := range reg.List() {
		names = append(names, c.Name())
	}
	want := []string{DefaultName, "a", "b", "z"}
	if fmt.Sprint(names) != fmt.Sprint(want) {
		t.Fatalf("List order %v, want %v", names, want)
	}

	if err := reg.Drop("nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Drop(nope) = %v, want ErrNotFound", err)
	}
	if err := reg.Drop("a"); err != nil {
		t.Fatal(err)
	}
	if _, ok := reg.Get("a"); ok {
		t.Fatal("dropped collection still resolvable")
	}

	if err := reg.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Create("late", Quota{}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Create after Close = %v, want ErrClosed", err)
	}
	if err := reg.Drop("b"); !errors.Is(err, ErrClosed) {
		t.Fatalf("Drop after Close = %v, want ErrClosed", err)
	}
}

func TestRegistryDefaultQuota(t *testing.T) {
	cfg := testConfig()
	cfg.DefaultQuota = Quota{MaxSets: 1}
	reg := NewRegistry(nil, cfg)
	c, err := reg.Create("t", Quota{})
	if err != nil {
		t.Fatal(err)
	}
	// A zero quota at Create inherits the registry-wide default.
	if c.Quota().MaxSets != 1 {
		t.Fatalf("quota = %+v, want the registry default MaxSets 1", c.Quota())
	}
	// An explicit quota overrides it.
	c2, err := reg.Create("u", Quota{MaxSets: 9})
	if err != nil {
		t.Fatal(err)
	}
	if c2.Quota().MaxSets != 9 {
		t.Fatalf("quota = %+v, want the explicit MaxSets 9", c2.Quota())
	}
}

func TestDurableRegistryRoundTrip(t *testing.T) {
	dir := t.TempDir()
	seed := []sets.Set{{Name: "s0", Elements: []string{"alpha", "beta"}}}

	reg, err := OpenRegistry(dir, seed, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	a, err := reg.Create("tenant-a", Quota{MaxSets: 10, MaxBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	b, err := reg.Create("tenant-b", Quota{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Insert("doc-a", []string{"aa", "ab"}); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Insert("doc-b", []string{"bb"}); err != nil {
		t.Fatal(err)
	}
	// The default collection lives at the root, named ones under
	// collections/<name>/ with a TENANT.json.
	if _, err := os.Stat(filepath.Join(dir, CollectionsDirName, "tenant-a", tenantFileName)); err != nil {
		t.Fatalf("tenant-a metadata: %v", err)
	}
	if err := reg.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: every collection recovers independently — contents, quota,
	// and byte accounting included. The seed must not re-apply.
	reg2, err := OpenRegistry(dir, seed, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer reg2.Close()
	var names []string
	for _, c := range reg2.List() {
		names = append(names, c.Name())
	}
	want := []string{DefaultName, "tenant-a", "tenant-b"}
	if fmt.Sprint(names) != fmt.Sprint(want) {
		t.Fatalf("recovered collections %v, want %v", names, want)
	}
	a2, _ := reg2.Get("tenant-a")
	if q := a2.Quota(); q.MaxSets != 10 || q.MaxBytes != 1<<20 {
		t.Fatalf("recovered quota %+v, want MaxSets 10 MaxBytes 1MiB", q)
	}
	if got, ok := a2.Manager().SetByName("doc-a"); !ok || len(got.Elements) != 2 {
		t.Fatalf("tenant-a recovery: doc-a = %+v, %v", got, ok)
	}
	if got := a2.Bytes(); got != 4 {
		t.Fatalf("tenant-a recovered bytes = %d, want 4", got)
	}
	b2, _ := reg2.Get("tenant-b")
	if _, ok := b2.Manager().SetByName("doc-a"); ok {
		t.Fatal("tenant-a's set leaked into tenant-b")
	}
	if reg2.Default().Manager().Len() != 1 {
		t.Fatalf("default recovered %d sets, want 1", reg2.Default().Manager().Len())
	}

	// Drop removes the directory; a third open no longer sees it.
	if err := reg2.Drop("tenant-b"); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, CollectionsDirName, "tenant-b")); !os.IsNotExist(err) {
		t.Fatalf("tenant-b directory survived the drop: %v", err)
	}
	reg2.Close()
	reg3, err := OpenRegistry(dir, seed, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer reg3.Close()
	if _, ok := reg3.Get("tenant-b"); ok {
		t.Fatal("dropped collection resurrected on reopen")
	}
}

// TestConcurrentCreateDropVsSearch exercises the registry under -race:
// create/drop churn on some names must never disturb in-flight searches on
// sibling collections.
func TestConcurrentCreateDropVsSearch(t *testing.T) {
	reg := NewRegistry(nil, testConfig())
	stable, err := reg.Create("stable", Quota{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if _, err := stable.Insert(fmt.Sprintf("s%d", i), []string{"tok", fmt.Sprintf("t%d", i)}); err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	// Churners: create and drop throwaway collections, inserting into each.
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 16; i++ {
				name := fmt.Sprintf("churn-%d", g)
				c, err := reg.Create(name, Quota{MaxSets: 4})
				if err != nil {
					errs <- fmt.Errorf("create %s: %w", name, err)
					return
				}
				if _, err := c.Insert("x", []string{"y"}); err != nil {
					errs <- fmt.Errorf("insert into %s: %w", name, err)
					return
				}
				if err := reg.Drop(name); err != nil {
					errs <- fmt.Errorf("drop %s: %w", name, err)
					return
				}
			}
		}(g)
	}
	// Searchers: hammer the stable sibling; every query must keep finding
	// its exact-match set.
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 64; i++ {
				if err := stable.AdmitSearch(1); err != nil {
					errs <- fmt.Errorf("admit: %w", err)
					return
				}
				res, _, err := stable.Manager().Search(context.Background(), []string{"tok", "t3"}, 1)
				stable.ReleaseSearch(1)
				if err != nil || len(res) == 0 || res[0].Name != "s3" {
					errs <- fmt.Errorf("search during churn: got %+v, %v", res, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if got := stable.Counters().SearchesTotal; got != 4*64 {
		t.Fatalf("searches_total = %d, want %d", got, 4*64)
	}
}

// TestNoGoroutineOutlivesClose: the scheduler every registry runs stops
// with it — dispatch loop and in-flight maintenance alike.
func TestNoGoroutineOutlivesClose(t *testing.T) {
	base := settledGoroutines()
	cfg := testConfig()
	cfg.SegCfg = segment.Config{SealThreshold: 1, MaxSegments: 1}
	reg, err := OpenRegistry(t.TempDir(), nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	c, err := reg.Create("t", Quota{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		// Every insert seals, so compactions and checkpoints are queued or
		// running when Close lands; backlog refusals are expected.
		var mbe *Refusal
		if _, err := c.Insert(fmt.Sprintf("s%d", i), []string{"x", fmt.Sprint(i)}); err != nil && !errors.As(err, &mbe) {
			t.Fatal(err)
		}
	}
	if err := reg.Close(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for projectGoroutines() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines outlived Close (baseline %d):\n%s", projectGoroutines(), base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(time.Millisecond)
	}
}

// projectGoroutines counts the goroutines running this module's code — the
// runtime's own come and go on their own schedule.
func projectGoroutines() int {
	buf := make([]byte, 1<<20)
	n := 0
	for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
		if strings.Contains(g, "\nrepro") {
			n++
		}
	}
	return n
}

// settledGoroutines is projectGoroutines once what earlier tests left
// behind has finished exiting: their goroutines past their last wait, and
// the cleanups (unmaps, a dropped engine's scheduler stop) a collection
// queues.
func settledGoroutines() int {
	runtime.GC()
	n := projectGoroutines()
	for i := 0; i < 100; i++ {
		time.Sleep(10 * time.Millisecond)
		m := projectGoroutines()
		if m == n {
			break
		}
		n = m
	}
	return n
}
