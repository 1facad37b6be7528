package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/index"
	"repro/internal/segment"
	"repro/internal/sets"
)

// testOpts are the options most tests build their collection with — and so
// the default k, α and partitions their server reports.
var testOpts = core.Options{K: 5, Alpha: 0.8, Partitions: 2, Workers: 2, ExactScores: true}

func managerFor(ds *datagen.Dataset, opts core.Options) *segment.Manager {
	return segment.NewManager(ds.Repo.Sets(), func(dict *sets.Dictionary) index.NeighborSource {
		return index.NewDynamicExact(dict, ds.Model.Vector)
	}, opts, segment.Config{})
}

func testServer(t *testing.T) (*httptest.Server, *datagen.Dataset) {
	t.Helper()
	ds := datagen.GenerateDefault(datagen.Twitter, 0.02)
	srv := New(managerFor(ds, testOpts), Config{})
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return ts, ds
}

func TestSearchEndpoint(t *testing.T) {
	ts, ds := testServer(t)
	c := NewClient(ts.URL, nil)
	query := ds.Repo.Set(0).Elements

	resp, err := c.Search(query, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) == 0 {
		t.Fatal("no results for self query")
	}
	if resp.Results[0].Score < float64(len(query))-1e-9 {
		t.Fatalf("top-1 score %v below self overlap", resp.Results[0].Score)
	}
	if !resp.Results[0].Verified {
		t.Fatal("server must return exact scores")
	}
	if resp.Stats.Candidates == 0 || resp.Stats.StreamTuples == 0 {
		t.Fatalf("stats not populated: %+v", resp.Stats)
	}
	// Results in descending order.
	for i := 1; i < len(resp.Results); i++ {
		if resp.Results[i].Score > resp.Results[i-1].Score+1e-9 {
			t.Fatal("results not sorted")
		}
	}
}

func TestSearchCustomK(t *testing.T) {
	ts, ds := testServer(t)
	c := NewClient(ts.URL, nil)
	query := ds.Repo.Set(1).Elements
	r2, err := c.Search(query, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(r2.Results) > 2 {
		t.Fatalf("k=2 returned %d results", len(r2.Results))
	}
	r5, err := c.Search(query, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(r5.Results) < len(r2.Results) {
		t.Fatal("larger k returned fewer results")
	}
	// The top-2 must agree between the two engines.
	for i := range r2.Results {
		if math.Abs(r2.Results[i].Score-r5.Results[i].Score) > 1e-9 {
			t.Fatalf("rank %d differs between k=2 and k=5", i)
		}
	}
}

func TestSearchValidation(t *testing.T) {
	ts, _ := testServer(t)
	cases := []struct {
		name string
		body string
	}{
		{"empty query", `{"query": []}`},
		{"missing query", `{}`},
		{"negative k", `{"query":["x"],"k":-1}`},
		{"huge k", `{"query":["x"],"k":99999}`},
		{"unknown field", `{"query":["x"],"bogus":1}`},
		{"malformed", `{`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(ts.URL+"/v1/search", "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status = %d, want 400", resp.StatusCode)
			}
			var eb errorBody
			if json.NewDecoder(resp.Body).Decode(&eb) != nil || eb.Error == "" {
				t.Fatal("error body missing")
			}
		})
	}
}

func TestOverlapEndpoint(t *testing.T) {
	ts, ds := testServer(t)
	c := NewClient(ts.URL, nil)
	a := ds.Repo.Set(0).Elements
	resp, err := c.Overlap(a, a)
	if err != nil {
		t.Fatal(err)
	}
	want := float64(len(a))
	if math.Abs(resp.Semantic-want) > 1e-9 || resp.Vanilla != len(a) {
		t.Fatalf("self overlap = %+v, want %v", resp, want)
	}
	if resp.Greedy > resp.Semantic+1e-9 || resp.Greedy < resp.Semantic/2-1e-9 {
		t.Fatalf("greedy %v outside [sem/2, sem]", resp.Greedy)
	}
	if _, err := c.Overlap(nil, a); err == nil {
		t.Fatal("empty set accepted")
	}
}

func TestOverlapMatchesPublicMeasure(t *testing.T) {
	// pairwise() uses index edges; it must agree with a direct matrix
	// build on sets from the collection vocabulary.
	ts, ds := testServer(t)
	c := NewClient(ts.URL, nil)
	a := ds.Repo.Set(2).Elements
	b := ds.Repo.Set(3).Elements
	resp, err := c.Overlap(a, b)
	if err != nil {
		t.Fatal(err)
	}
	// Vanilla overlap is independent of the index: verify directly.
	inA := map[string]bool{}
	for _, x := range a {
		inA[x] = true
	}
	vanilla := 0
	for _, y := range dedupTest(b) {
		if inA[y] {
			vanilla++
		}
	}
	if resp.Vanilla != vanilla {
		t.Fatalf("vanilla = %d, want %d", resp.Vanilla, vanilla)
	}
	if resp.Semantic < float64(vanilla)-1e-9 {
		t.Fatalf("semantic %v below vanilla %d (Lemma 1)", resp.Semantic, vanilla)
	}
}

func TestInfoAndHealth(t *testing.T) {
	ts, ds := testServer(t)
	c := NewClient(ts.URL, nil)
	info, err := c.Info()
	if err != nil {
		t.Fatal(err)
	}
	if info.Sets != ds.Repo.Len() || info.K != 5 || info.Alpha != 0.8 {
		t.Fatalf("info = %+v", info)
	}
	if !c.Healthy() {
		t.Fatal("healthz failed")
	}
}

// TestDefaultsComeFromCollection: the server keeps no k, α or partition
// count of its own. Built with Config{} over a collection whose options are
// none of the defaults, it reports the collection's in /v1/info, answers a
// search that names no k as the manager does, and scores /v1/overlap at the
// collection's α.
func TestDefaultsComeFromCollection(t *testing.T) {
	ds := datagen.GenerateDefault(datagen.Twitter, 0.02)
	mgr := managerFor(ds, core.Options{K: 7, Alpha: 0.7, Partitions: 2, ExactScores: true})
	ts := httptest.NewServer(New(mgr, Config{}))
	defer ts.Close()
	c := NewClient(ts.URL, nil)

	info, err := c.Info()
	if err != nil {
		t.Fatal(err)
	}
	if info.K != 7 || info.Alpha != 0.7 || info.Partitions != 2 {
		t.Fatalf("info: default_k %d, alpha %v, partitions %d; want the collection's 7, 0.7, 2", info.K, info.Alpha, info.Partitions)
	}

	for i := 0; i < 5; i++ {
		q := ds.Repo.Set(i).Elements
		want, _, err := mgr.Search(context.Background(), q, 0)
		if err != nil {
			t.Fatal(err)
		}
		got, err := c.Search(q, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Results) != len(want) {
			t.Fatalf("query %d: %d results over HTTP, %d from the manager", i, len(got.Results), len(want))
		}
		for r, w := range want {
			g := got.Results[r]
			if int64(g.SetID) != w.ID || g.SetName != w.Name || g.Score != w.Score {
				t.Fatalf("query %d rank %d: %+v over HTTP, %+v from the manager", i, r, g, w)
			}
		}
	}

	// A pair that α = 0.7 and the server's former 0.8 score differently.
	var a, b []string
	var want float64
	for i := 0; i < ds.Repo.Len() && a == nil; i++ {
		for j := i + 1; j < ds.Repo.Len(); j++ {
			x, y := ds.Repo.Set(i).Elements, ds.Repo.Set(j).Elements
			at7, _, _ := pairwise(x, y, mgr.Source(), 0.7)
			if at8, _, _ := pairwise(x, y, mgr.Source(), 0.8); at7 != at8 {
				a, b, want = x, y, at7
				break
			}
		}
	}
	if a == nil {
		t.Fatal("no pair of sets separates α = 0.7 from 0.8")
	}
	resp, err := c.Overlap(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Semantic != want {
		t.Fatalf("/v1/overlap = %v, want the pairwise score at the collection's α: %v", resp.Semantic, want)
	}
}

func TestMethodRouting(t *testing.T) {
	ts, _ := testServer(t)
	resp, err := http.Get(ts.URL + "/v1/search")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Fatal("GET /v1/search should not be routed")
	}
	resp, err = http.Post(ts.URL+"/v1/info", "application/json", bytes.NewReader(nil))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Fatal("POST /v1/info should not be routed")
	}
}

func TestConcurrentClients(t *testing.T) {
	ts, ds := testServer(t)
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c := NewClient(ts.URL, nil)
			q := ds.Repo.Set(g % ds.Repo.Len()).Elements
			if len(q) == 0 {
				return
			}
			if _, err := c.Search(q, 3); err != nil {
				errs <- err
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestClientAgainstDeadServer(t *testing.T) {
	c := NewClient("http://127.0.0.1:1", nil) // nothing listens on port 1
	if c.Healthy() {
		t.Fatal("dead server reported healthy")
	}
	if _, err := c.Search([]string{"x"}, 1); err == nil {
		t.Fatal("search against dead server succeeded")
	}
}

func TestMaxQueryElements(t *testing.T) {
	ds := datagen.GenerateDefault(datagen.Twitter, 0.02)
	srv := New(managerFor(ds, core.Options{K: 3, ExactScores: true}), Config{MaxQueryElements: 4})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	c := NewClient(ts.URL, nil)
	if _, err := c.Search([]string{"a", "b", "c", "d", "e"}, 0); err == nil {
		t.Fatal("oversized query accepted")
	}
	if _, err := c.Insert("big", []string{"a", "b", "c", "d", "e"}); err == nil {
		t.Fatal("oversized insert accepted")
	}
}

func TestMutationEndpoints(t *testing.T) {
	ts, ds := testServer(t)
	c := NewClient(ts.URL, nil)

	// Insert a brand-new set built from existing vocabulary plus new
	// tokens; it must be immediately searchable and win its self query.
	elems := append([]string{"zz-brand-new-1", "zz-brand-new-2"}, ds.Repo.Set(0).Elements...)
	ins, err := c.Insert("fresh", elems)
	if err != nil {
		t.Fatal(err)
	}
	if ins.SetID != ds.Repo.Len() {
		t.Fatalf("insert handle = %d, want %d", ins.SetID, ds.Repo.Len())
	}
	if ins.Sets != ds.Repo.Len()+1 {
		t.Fatalf("sets after insert = %d", ins.Sets)
	}
	resp, err := c.Search(elems, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) == 0 || resp.Results[0].SetName != "fresh" {
		t.Fatalf("inserted set not on top of its self query: %+v", resp.Results)
	}
	if resp.Stats.Segments < 2 {
		t.Fatalf("search after insert spanned %d segments, want ≥ 2", resp.Stats.Segments)
	}

	// Replace: same name, different elements.
	if _, err := c.Insert("fresh", []string{"only-one-token"}); err != nil {
		t.Fatal(err)
	}
	info, err := c.Info()
	if err != nil {
		t.Fatal(err)
	}
	if info.Sets != ds.Repo.Len()+1 {
		t.Fatalf("replace changed live count: %+v", info)
	}
	if !info.Mutable || info.Segments < 1 {
		t.Fatalf("info missing segment metadata: %+v", info)
	}

	// Delete it; a second delete 404s.
	del, err := c.Delete("fresh")
	if err != nil {
		t.Fatal(err)
	}
	if !del.Deleted || del.Sets != ds.Repo.Len() {
		t.Fatalf("delete = %+v", del)
	}
	if _, err := c.Delete("fresh"); err == nil {
		t.Fatal("double delete succeeded")
	}
	resp, err = c.Search([]string{"only-one-token"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range resp.Results {
		if r.SetName == "fresh" {
			t.Fatal("deleted set still searchable")
		}
	}

	// Validation: empty elements rejected.
	if _, err := c.Insert("empty", nil); err == nil {
		t.Fatal("empty insert accepted")
	}

	// Names with URL metacharacters round-trip through insert and delete.
	weird := "100% weird/name#1"
	if _, err := c.Insert(weird, []string{"tok"}); err != nil {
		t.Fatal(err)
	}
	if del, err := c.Delete(weird); err != nil || !del.Deleted {
		t.Fatalf("escaped delete = %+v, %v", del, err)
	}
}

func TestDeleteSeedSet(t *testing.T) {
	ts, ds := testServer(t)
	c := NewClient(ts.URL, nil)
	name := ds.Repo.Set(0).Name
	query := ds.Repo.Set(0).Elements
	if _, err := c.Delete(name); err != nil {
		t.Fatal(err)
	}
	resp, err := c.Search(query, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range resp.Results {
		if r.SetName == name {
			t.Fatal("tombstoned seed set still in results")
		}
	}
	info, err := c.Info()
	if err != nil {
		t.Fatal(err)
	}
	if info.Tombstones != 1 || info.Sets != ds.Repo.Len()-1 {
		t.Fatalf("info after seed delete: %+v", info)
	}
}

// TestInfoCountsMemtableTombstones: a set deleted while still in the
// memtable leaves memtable_sets (live rows) and tombstones (sealed rows
// awaiting compaction) alone and shows up as the collection's
// debt.memtable_tombstones, until the memtable's last live row goes too.
func TestInfoCountsMemtableTombstones(t *testing.T) {
	ts, _ := testServer(t)
	c := NewClient(ts.URL, nil)
	for _, name := range []string{"a", "b"} {
		if _, err := c.Insert(name, []string{"tok-" + name, "tok-shared"}); err != nil {
			t.Fatal(err)
		}
	}
	check := func(label string, memSets, memDead int) {
		t.Helper()
		info, err := c.Info()
		if err != nil {
			t.Fatal(err)
		}
		col := info.Collections[0]
		if info.MemtableSets != memSets || info.Tombstones != 0 ||
			col.MemtableSets != memSets || col.Tombstones != 0 ||
			col.Debt.MemtableSets != memSets || col.Debt.MemtableTombstones != memDead || col.Debt.Tombstones != 0 {
			t.Fatalf("%s: info %+v, collection %+v; want %d live and %d dead memtable rows, no sealed tombstones",
				label, info, col, memSets, memDead)
		}
	}
	check("two inserts", 2, 0)
	if _, err := c.Delete("a"); err != nil {
		t.Fatal(err)
	}
	check("one deleted in the memtable", 1, 1)
	if _, err := c.Delete("b"); err != nil {
		t.Fatal(err)
	}
	check("memtable dropped", 0, 0)
}

func TestGetSetEndpoint(t *testing.T) {
	ts, ds := testServer(t)
	c := NewClient(ts.URL, nil)

	// A seed set is fetchable by name with its elements intact.
	seed := ds.Repo.Set(0)
	got, err := c.GetSet(seed.Name)
	if err != nil {
		t.Fatal(err)
	}
	if got.SetID != 0 || got.Name != seed.Name || len(got.Elements) != len(seed.Elements) {
		t.Fatalf("GetSet(seed) = %+v", got)
	}

	// Unknown names 404.
	if _, err := c.GetSet("never-existed"); err == nil || !strings.Contains(err.Error(), "404") {
		t.Fatalf("unknown set: %v", err)
	}

	// Inserted sets are fetchable, incl. URL metacharacters; deleted
	// (tombstoned) sets answer exactly like unknown ones.
	weird := "100% weird/name#2"
	ins, err := c.Insert(weird, []string{"tok-a", "tok-b"})
	if err != nil {
		t.Fatal(err)
	}
	got, err = c.GetSet(weird)
	if err != nil {
		t.Fatal(err)
	}
	if got.SetID != int64(ins.SetID) || got.Name != weird || len(got.Elements) != 2 {
		t.Fatalf("GetSet(inserted) = %+v", got)
	}
	if _, err := c.Delete(weird); err != nil {
		t.Fatal(err)
	}
	if _, err := c.GetSet(weird); err == nil || !strings.Contains(err.Error(), "404") {
		t.Fatalf("tombstoned set: %v", err)
	}
}

// TestDurableRestartServesIdenticalResults is the HTTP half of the
// durability acceptance criteria: a server over a durable manager, mutated
// through the API and restarted (close + reopen the same directory), must
// serve byte-identical /v1/search responses.
func TestDurableRestartServesIdenticalResults(t *testing.T) {
	ds := datagen.GenerateDefault(datagen.Twitter, 0.02)
	opts := testOpts
	build := func(dict *sets.Dictionary) index.NeighborSource {
		return index.NewDynamicExact(dict, ds.Model.Vector)
	}
	dir := t.TempDir()
	mgr, err := segment.Open(dir, ds.Repo.Sets(), build, opts, segment.Config{SealThreshold: 8})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(mgr, Config{}))
	c := NewClient(ts.URL, nil)

	extra := append([]string{"zz-durable-1"}, ds.Repo.Set(0).Elements...)
	if _, err := c.Insert("durable", extra); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Delete(ds.Repo.Set(1).Name); err != nil {
		t.Fatal(err)
	}
	queries := [][]string{extra, ds.Repo.Set(1).Elements, ds.Repo.Set(2).Elements}
	before := make([]*SearchResponse, len(queries))
	for i, q := range queries {
		if before[i], err = c.Search(q, 0); err != nil {
			t.Fatal(err)
		}
	}
	ts.Close()
	if err := mgr.Close(); err != nil {
		t.Fatal(err)
	}

	mgr2, err := segment.Open(dir, nil, build, opts, segment.Config{SealThreshold: 8})
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(New(mgr2, Config{}))
	defer ts2.Close()
	c2 := NewClient(ts2.URL, nil)
	for i, q := range queries {
		after, err := c2.Search(q, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(after.Results) != len(before[i].Results) {
			t.Fatalf("query %d: %d results after restart, %d before", i, len(after.Results), len(before[i].Results))
		}
		for r := range after.Results {
			b, a := before[i].Results[r], after.Results[r]
			if a.SetName != b.SetName || a.Score != b.Score || a.Verified != b.Verified {
				t.Fatalf("query %d rank %d: %+v after restart, %+v before", i, r, a, b)
			}
		}
	}
	// The restarted server still has the inserted set and not the deleted
	// one.
	if got, err := c2.GetSet("durable"); err != nil || len(got.Elements) != len(dedupTest(extra)) {
		t.Fatalf("inserted set after restart: %+v, %v", got, err)
	}
	if _, err := c2.GetSet(ds.Repo.Set(1).Name); err == nil {
		t.Fatal("deleted set resurrected by restart")
	}
}

func TestPairwiseNoEdges(t *testing.T) {
	repo := sets.NewRepository([]sets.Set{{Elements: []string{"x"}}})
	src := index.NewExact(repo.Vocabulary(), func(string) ([]float32, bool) { return nil, false })
	sem, greedy, vanilla := pairwise([]string{"a"}, []string{"b"}, src, 0.8)
	if sem != 0 || greedy != 0 || vanilla != 0 {
		t.Fatalf("disjoint OOV sets scored %v/%v/%d", sem, greedy, vanilla)
	}
}

// chainSource is a synthetic neighbor source over tokens "a<i>"/"b<i>":
// a<i> is similar to b<i> at 0.9 and to b<i+1> at 0.95, nothing else.
type chainSource struct{}

func (chainSource) Neighbors(q string, alpha float64) []index.Neighbor {
	var i int
	if _, err := fmt.Sscanf(q, "a%d", &i); err != nil {
		return nil
	}
	return []index.Neighbor{
		{Token: fmt.Sprintf("b%d", i+1), Sim: 0.95},
		{Token: fmt.Sprintf("b%d", i), Sim: 0.9},
	}
}

// TestPairwiseLargeSetsBoundedMemory: /v1/overlap accepts up to
// MaxQueryElements per side, so pairwise must cost memory in the α-edges,
// not |A|·|B| — a dense float64 matrix of this pair is 7 GB. Half of A
// occurs in B verbatim; the other half chains onto B's b-tokens, where the
// optimum shifts every row onto its 0.95 edge and leaves the last row out.
func TestPairwiseLargeSetsBoundedMemory(t *testing.T) {
	const n = 30000
	a, b := make([]string, n), make([]string, n)
	for i := 0; i < n; i++ {
		a[i] = fmt.Sprintf("a%d", i)
		b[i] = a[i]
		if i >= n/2 {
			b[i] = fmt.Sprintf("b%d", i)
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	sem, greedy, vanilla := pairwise(a, b, chainSource{}, 0.8)
	runtime.ReadMemStats(&after)
	if want := float64(n/2) + 0.95*float64(n/2-1); math.Abs(sem-want) > 1e-6 {
		t.Fatalf("semantic = %v, want %v", sem, want)
	}
	if vanilla != n/2 || greedy > sem+1e-9 || greedy < sem/2 {
		t.Fatalf("vanilla %d, greedy %v (semantic %v)", vanilla, greedy, sem)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<20 {
		t.Fatalf("pairwise of two %d-element sets allocated %d MB, want < 64", n, grew>>20)
	}
}

func dedupTest(in []string) []string {
	seen := map[string]bool{}
	var out []string
	for _, s := range in {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}
