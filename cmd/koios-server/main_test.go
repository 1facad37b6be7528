package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/collection"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/server"
	"repro/internal/store"
)

// childEnv makes the test binary run main instead of the tests, so that
// TestSIGTERMExitsCleanly can send a real signal to a real process.
const childEnv = "KOIOS_SERVER_TEST_CHILD"

func TestMain(m *testing.M) {
	if os.Getenv(childEnv) == "1" {
		main() // returning from TestMain without m.Run exits with status 0
		return
	}
	os.Exit(m.Run())
}

// The smokes' server: the twitter corpus at scale 0.05.
var twitter = []string{"-dataset", "twitter", "-scale", "0.05"}

var httpc = &http.Client{Timeout: time.Minute}

// logWriter keeps a server's log and hands the address of its "listening
// on" line to addr.
type logWriter struct {
	mu   sync.Mutex
	buf  bytes.Buffer
	addr chan string
}

func newLogWriter() *logWriter { return &logWriter{addr: make(chan string, 1)} }

func (w *logWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if _, rest, ok := strings.Cut(string(p), "listening on "); ok {
		a, _, _ := strings.Cut(rest, ",")
		select {
		case w.addr <- a:
		default:
		}
	}
	return w.buf.Write(p)
}

func (w *logWriter) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.String()
}

// proc is one run of the server inside the test process; cancelling its
// ctx stands in for SIGTERM.
type proc struct {
	t      *testing.T
	base   string
	log    *logWriter
	cancel context.CancelFunc
	done   chan error
}

// start runs the server on a loopback port with args and waits until
// /readyz answers 200.
func start(t *testing.T, args ...string) *proc {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	p := &proc{t: t, log: newLogWriter(), cancel: cancel, done: make(chan error, 1)}
	go func() { p.done <- run(ctx, append([]string{"-addr", "127.0.0.1:0"}, args...), p.log) }()
	t.Cleanup(func() {
		if p.done != nil {
			cancel()
			<-p.done
		}
		if t.Failed() {
			t.Logf("server log:\n%s", p.log)
		}
	})
	select {
	case addr := <-p.log.addr:
		p.base = "http://" + addr
	case err := <-p.done:
		p.done = nil
		t.Fatalf("run returned before listening: %v", err)
	case <-time.After(time.Minute):
		t.Fatal("server did not bind its port")
	}
	waitReady(t, p.base)
	return p
}

// waitReady polls /readyz until it answers 200: the port binds before
// recovery, and /readyz flips once the server answers queries.
func waitReady(t *testing.T, base string) {
	t.Helper()
	c := server.NewClient(base, httpc)
	for deadline := time.Now().Add(2 * time.Minute); !c.Ready(); time.Sleep(20 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("server did not come up: /readyz never answered 200")
		}
	}
}

// stop cancels the server's ctx and requires run to return nil, as each
// shell smoke's `wait "$SRV"` under `set -e` required exit status 0.
func (p *proc) stop() {
	p.t.Helper()
	p.cancel()
	err := <-p.done
	p.done = nil
	if err != nil {
		p.t.Fatalf("run: %v", err)
	}
}

// do sends body (none when empty) and returns the status, the headers and
// the response body.
func (p *proc) do(method, path, body string) (int, http.Header, []byte) {
	p.t.Helper()
	req, err := http.NewRequest(method, p.base+path, strings.NewReader(body))
	if err != nil {
		p.t.Fatal(err)
	}
	resp, err := httpc.Do(req)
	if err != nil {
		p.t.Fatalf("%s %s: %v", method, path, err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		p.t.Fatalf("%s %s: %v", method, path, err)
	}
	return resp.StatusCode, resp.Header, out
}

// ok is do for a request that must succeed (curl -f).
func (p *proc) ok(method, path, body string) []byte {
	p.t.Helper()
	code, _, out := p.do(method, path, body)
	if code/100 != 2 {
		p.t.Fatalf("%s %s: HTTP %d: %s", method, path, code, out)
	}
	return out
}

// get decodes the body of a GET that must succeed into dst.
func (p *proc) get(path string, dst any) {
	p.t.Helper()
	if err := json.Unmarshal(p.ok(http.MethodGet, path, ""), dst); err != nil {
		p.t.Fatalf("GET %s: %v", path, err)
	}
}

// results returns the "results" of a search that must succeed, as the
// bytes the server wrote.
func (p *proc) results(path, body string) string {
	p.t.Helper()
	var r struct{ Results json.RawMessage }
	if err := json.Unmarshal(p.ok(http.MethodPost, path, body), &r); err != nil {
		p.t.Fatalf("POST %s: %v", path, err)
	}
	return string(r.Results)
}

func (p *proc) debt(collection string) (walBytes int64, unpersisted int) {
	p.t.Helper()
	var info server.CollectionInfo
	p.get("/v1/collections/"+collection, &info)
	return info.Debt.WALBytes, info.Debt.UnpersistedSegments
}

// TestRestartServesSameAnswers holds what CI's persistence restart smoke
// held: a durable server mutated over HTTP and shut down answers the same
// search, byte for byte, after a restart, with nothing left unpersisted.
func TestRestartServesSameAnswers(t *testing.T) {
	dir := t.TempDir()
	args := append([]string{"-dir", dir, "-partitions", "3"}, twitter...)
	const query = `{"query": ["smoke-a", "smoke-b", "smoke-c"], "k": 5}`

	p := start(t, args...)
	p.ok(http.MethodPost, "/v1/sets", `{"name": "smoke", "elements": ["smoke-a", "smoke-b", "smoke-c"]}`)
	p.ok(http.MethodGet, "/v1/sets/smoke", "")
	before := p.results("/v1/search", query)
	if !strings.Contains(before, `"set_name":"smoke"`) {
		t.Fatalf("search does not find the inserted set: %s", before)
	}
	var batch struct {
		Results []struct{ Results json.RawMessage }
	}
	if err := json.Unmarshal(p.ok(http.MethodPost, "/v1/search/batch", `{"queries": [["smoke-a", "smoke-b", "smoke-c"]], "k": 5}`), &batch); err != nil {
		t.Fatal(err)
	}
	if len(batch.Results) != 1 || string(batch.Results[0].Results) != before {
		t.Fatalf("batch entry 0 differs from the single search:\nbatch  %+v\nsingle %s", batch.Results, before)
	}
	// A request's own k is answered from the same engines.
	var k3 server.SearchResponse
	if err := json.Unmarshal(p.ok(http.MethodPost, "/v1/search", `{"query": ["smoke-a", "smoke-b", "smoke-c"], "k": 3}`), &k3); err != nil {
		t.Fatal(err)
	}
	if n := len(k3.Results); n < 1 || n > 3 {
		t.Fatalf("k = 3 search returned %d results", n)
	}
	// /v1/info reports what the collection was started with, and with
	// default flags the maintenance scheduler runs.
	info := p.ok(http.MethodGet, "/v1/info", "")
	if !bytes.Contains(info, []byte(`"partitions":3`)) {
		t.Fatalf(`/v1/info lacks "partitions":3: %s`, info)
	}
	var inf server.InfoResponse
	if err := json.Unmarshal(info, &inf); err != nil {
		t.Fatal(err)
	}
	if inf.Scheduler == nil || inf.Scheduler.Workers < 1 {
		t.Fatalf("scheduler = %+v, want workers >= 1", inf.Scheduler)
	}
	p.stop()

	p = start(t, args...)
	if after := p.results("/v1/search", query); after != before {
		t.Fatalf("search after restart differs:\nbefore %s\nafter  %s", before, after)
	}
	p.ok(http.MethodGet, "/v1/sets/smoke", "")
	// The graceful shutdown checkpointed: nothing sealed waits for disk,
	// and no WAL was replayed.
	if wal, unpersisted := p.debt("default"); wal != 0 || unpersisted != 0 {
		t.Fatalf("debt after restart: wal_bytes = %d, unpersisted_segments = %d, want 0 and 0", wal, unpersisted)
	}
	p.stop()
}

// TestShutdownDuringScheduledCompaction holds what CI's fairness job's
// smoke held: a server shut down while the scheduler owes maintenance
// recovers byte-identically and owes no maintenance. The shutdown must land
// on owed maintenance — unpersisted sealed segments or WAL bytes — which the
// scheduler may have caught up on by the time one burst has been searched,
// so bursts go on until the collection owes some right before the shutdown.
func TestShutdownDuringScheduledCompaction(t *testing.T) {
	dir := t.TempDir()
	args := append([]string{"-dir", dir, "-bg-workers", "2", "-seal", "4"}, twitter...)
	const query = `{"query": ["fair-a", "fair-b", "fair-c"], "k": 5}`
	const burst, minBursts, maxBursts = 20, 3, 50

	p := start(t, args...)
	// Bursts of small inserts at -seal 4 keep sealing segments. An insert
	// refused by the write-stall policy (503 maintenance_backlog) is retried:
	// refusal is flow control, not failure.
	var before string
	for n := 1; ; n++ {
		for i := (n-1)*burst + 1; i <= n*burst; i++ {
			body := fmt.Sprintf(`{"name": "burst-%d", "elements": ["fair-a", "fair-%d", "fair-x%d"]}`, i, i, i)
			for try := 1; ; try++ {
				code, _, out := p.do(http.MethodPost, "/v1/sets", body)
				if code/100 == 2 {
					break
				}
				if code != http.StatusServiceUnavailable || try == 5 {
					t.Fatalf("insert burst-%d: HTTP %d: %s", i, code, out)
				}
				time.Sleep(500 * time.Millisecond)
			}
		}
		var inf server.InfoResponse
		p.get("/v1/info", &inf)
		if inf.Scheduler == nil {
			t.Fatal("/v1/info has no scheduler")
		}
		before = p.results("/v1/search", query)
		if !strings.Contains(before, `"set_name":"burst-`) {
			t.Fatalf("search finds no burst set: %s", before)
		}
		if n < minBursts {
			continue
		}
		if wal, unpersisted := p.debt("default"); wal > 0 || unpersisted > 0 {
			t.Logf("shutting down after %d inserts owing wal_bytes = %d, unpersisted_segments = %d", n*burst, wal, unpersisted)
			break
		}
		if n == maxBursts {
			t.Fatalf("no maintenance owed after any of %d bursts of %d inserts: the shutdown cannot land on it", n, burst)
		}
	}
	p.stop()

	p = start(t, args...)
	if after := p.results("/v1/search", query); after != before {
		t.Fatalf("search after restart differs:\nbefore %s\nafter  %s", before, after)
	}
	// The graceful shutdown checkpointed, so the recovered collection owes
	// no WAL replay and no unpersisted segments.
	if wal, unpersisted := p.debt("default"); wal != 0 || unpersisted != 0 {
		t.Fatalf("debt after reopen: wal_bytes = %d, unpersisted_segments = %d, want 0 and 0", wal, unpersisted)
	}
	p.stop()
}

// TestCollectionsAndQuotasSurviveRestart holds what CI's multitenant
// smoke held: named collections recover independently and byte-identically,
// a recovered quota still refuses with a structured 413, and a rate limit
// refuses with a structured 429.
func TestCollectionsAndQuotasSurviveRestart(t *testing.T) {
	dir := t.TempDir()
	args := append([]string{"-dir", dir}, twitter...)
	const query = `{"query": ["mt-a", "mt-b", "mt-c"], "k": 5}`
	// Each collection's search finds the set inserted into it.
	tenants := map[string]string{"tenant-a": "a1", "tenant-b": "b1", "default": "legacy"}
	collections := func(p *proc) int {
		var l server.ListCollectionsResponse
		p.get("/v1/collections", &l)
		return len(l.Collections)
	}

	p := start(t, args...)
	// Two tenants: one unlimited, one capped at two sets.
	p.ok(http.MethodPost, "/v1/collections", `{"name": "tenant-a"}`)
	p.ok(http.MethodPost, "/v1/collections", `{"name": "tenant-b", "quota": {"max_sets": 2}}`)
	if n := collections(p); n != 3 {
		t.Fatalf("%d collections, want 3", n)
	}
	// Distinct contents per tenant, plus one legacy (default) insert.
	p.ok(http.MethodPost, "/v1/collections/tenant-a/sets", `{"name": "a1", "elements": ["mt-a", "mt-b", "mt-c"]}`)
	p.ok(http.MethodPost, "/v1/collections/tenant-b/sets", `{"name": "b1", "elements": ["mt-a", "mt-b"]}`)
	p.ok(http.MethodPost, "/v1/sets", `{"name": "legacy", "elements": ["mt-a", "mt-c"]}`)
	before := map[string]string{}
	for c, set := range tenants {
		before[c] = p.results("/v1/collections/"+c+"/search", query)
		if !strings.Contains(before[c], `"set_name":"`+set+`"`) {
			t.Fatalf("%s: search does not find %s: %s", c, set, before[c])
		}
	}
	p.stop()

	p = start(t, args...)
	if n := collections(p); n != 3 {
		t.Fatalf("%d collections after restart, want 3", n)
	}
	for c := range tenants {
		if after := p.results("/v1/collections/"+c+"/search", query); after != before[c] {
			t.Fatalf("%s: search after restart differs:\nbefore %s\nafter  %s", c, before[c], after)
		}
	}

	// The recovered quota still enforces: tenant-b holds 1 of 2 sets, so
	// one more fits and the next is a structured 413.
	p.ok(http.MethodPost, "/v1/collections/tenant-b/sets", `{"name": "b2", "elements": ["mt-b"]}`)
	code, _, out := p.do(http.MethodPost, "/v1/collections/tenant-b/sets", `{"name": "b3", "elements": ["mt-c"]}`)
	var refusal struct{ Code, Resource string }
	if err := json.Unmarshal(out, &refusal); err != nil || code != http.StatusRequestEntityTooLarge ||
		refusal.Code != "quota_exceeded" || refusal.Resource != "sets" {
		t.Fatalf("b3: HTTP %d %s, want 413 quota_exceeded on sets", code, out)
	}
	var b server.CollectionInfo
	p.get("/v1/collections/tenant-b", &b)
	if b.Counters.QuotaRejectedTotal != 1 || b.Sets != 2 {
		t.Fatalf("tenant-b: quota_rejected_total = %d, sets = %d, want 1 and 2", b.Counters.QuotaRejectedTotal, b.Sets)
	}

	// A burst-1 tenant's second search inside the same second is a
	// structured 429 with a Retry-After of at least a second, counted once.
	p.ok(http.MethodPost, "/v1/collections", `{"name": "tenant-r", "quota": {"rate_per_sec": 1, "burst": 1}}`)
	p.ok(http.MethodPost, "/v1/collections/tenant-r/search", `{"query": ["mt-a"]}`)
	code, hdr, out := p.do(http.MethodPost, "/v1/collections/tenant-r/search", `{"query": ["mt-a"]}`)
	if err := json.Unmarshal(out, &refusal); err != nil || code != http.StatusTooManyRequests || refusal.Code != "rate_limited" {
		t.Fatalf("second search: HTTP %d %s, want 429 rate_limited", code, out)
	}
	if retry, err := strconv.Atoi(hdr.Get("Retry-After")); err != nil || retry < 1 {
		t.Fatalf("Retry-After = %q, want at least 1", hdr.Get("Retry-After"))
	}
	var r server.CollectionInfo
	p.get("/v1/collections/tenant-r", &r)
	if r.Counters.RateLimitedTotal != 1 {
		t.Fatalf("tenant-r: rate_limited_total = %d, want 1", r.Counters.RateLimitedTotal)
	}
	p.stop()
}

// TestSIGTERMExitsCleanly runs the test binary as the server and sends it
// a real SIGTERM: main must map it to a graceful shutdown that checkpoints
// and exits with status 0.
func TestSIGTERMExitsCleanly(t *testing.T) {
	dir := t.TempDir()
	cmd := exec.Command(os.Args[0], append([]string{"-addr", "127.0.0.1:0", "-dir", dir}, twitter...)...)
	cmd.Env = append(os.Environ(), childEnv+"=1")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()
	log := newLogWriter()
	copied := make(chan struct{})
	go func() {
		defer close(copied)
		for sc := bufio.NewScanner(stderr); sc.Scan(); {
			log.Write(append(sc.Bytes(), '\n'))
		}
	}()
	defer func() {
		if t.Failed() {
			t.Logf("server log:\n%s", log)
		}
	}()
	var p *proc
	select {
	case addr := <-log.addr:
		p = &proc{t: t, base: "http://" + addr}
	case <-time.After(time.Minute):
		t.Fatal("server did not bind its port")
	}
	waitReady(t, p.base)
	p.ok(http.MethodPost, "/v1/sets", `{"name": "signal", "elements": ["sig-a", "sig-b"]}`)
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	<-copied
	if err := cmd.Wait(); err != nil {
		t.Fatalf("server exited with %v after SIGTERM", err)
	}
	if !strings.Contains(log.String(), "koios-server: bye") {
		t.Fatal("server exited without its goodbye")
	}

	p = start(t, append([]string{"-dir", dir}, twitter...)...)
	p.ok(http.MethodGet, "/v1/sets/signal", "")
	if wal, unpersisted := p.debt("default"); wal != 0 || unpersisted != 0 {
		t.Fatalf("debt after reopen: wal_bytes = %d, unpersisted_segments = %d, want 0 and 0", wal, unpersisted)
	}
	p.stop()
}

// TestUnknownDatasetKind: an unknown -dataset is an error naming the four
// kinds, returned before the port is bound.
func TestUnknownDatasetKind(t *testing.T) {
	log := newLogWriter()
	err := run(context.Background(), []string{"-addr", "127.0.0.1:0", "-dataset", "bogus"}, log)
	if err == nil || !strings.Contains(err.Error(), "want dblp, opendata, twitter, or wdc") {
		t.Fatalf("run = %v, want the unknown-kind error", err)
	}
	if strings.Contains(log.String(), "listening on") {
		t.Fatalf("the port was bound before the kind was checked:\n%s", log)
	}
}

// TestListenError: a port that cannot be bound is run's error.
func TestListenError(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	if err := run(context.Background(), []string{"-addr", ln.Addr().String()}, io.Discard); err == nil {
		t.Fatal("run bound a port already in use")
	}
}

// TestServesDatagenStoreFile writes a corpus with `koios-datagen -format
// store`, serves it with -data and searches it: each set's own elements
// find the set at a score of its size.
func TestServesDatagenStoreFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "twitter.koios.gz")
	gen := exec.Command("go", append([]string{"run", "repro/cmd/koios-datagen", "-format", "store", "-o", path}, twitter...)...)
	if out, err := gen.CombinedOutput(); err != nil {
		t.Fatalf("koios-datagen: %v\n%s", err, out)
	}
	f, err := store.Load(store.OS, path)
	if err != nil {
		t.Fatal(err)
	}

	p := start(t, "-data", path)
	var inf server.InfoResponse
	p.get("/v1/info", &inf)
	if inf.Sets != len(f.Sets) {
		t.Fatalf("serving %d sets, the file has %d", inf.Sets, len(f.Sets))
	}
	c := server.NewClient(p.base, httpc)
	for _, s := range f.Sets[:5] {
		resp, err := c.Search(s.Elements, 10)
		if err != nil {
			t.Fatal(err)
		}
		found := false
		for _, r := range resp.Results {
			found = found || r.SetName == s.Name && r.Score == float64(len(s.Elements))
		}
		if !found {
			t.Fatalf("set %s (%d elements) not found by its own elements: %+v", s.Name, len(s.Elements), resp.Results)
		}
	}
	p.stop()
}

// TestDataFileWithoutVectors: a store file with no vectors is refused.
func TestDataFileWithoutVectors(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bare.koios.gz")
	var buf bytes.Buffer
	if err := store.Write(&buf, &store.File{Name: "bare", Sets: []store.Set{{Name: "s", Elements: []string{"a"}}}}); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	err := run(context.Background(), []string{"-addr", "127.0.0.1:0", "-data", path}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "has no vectors") {
		t.Fatalf("run = %v, want the no-vectors error", err)
	}
}

// TestServeFailureDrainsFirst: when serving fails while requests are in
// flight — here the listener closes under the server — serve lets them
// finish against open collections and returns the failure only then. The
// request is a search whose body is half sent: its 100 Continue says that
// its handler runs, reading the body, when the listener closes.
func TestServeFailureDrainsFirst(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	logger := log.New(newLogWriter(), "", 0)
	load := func() (*collection.Registry, error) {
		return loadRegistry(logger, "", datagen.Twitter, 0.05, "", collection.Config{Opts: core.Options{K: 3, Alpha: 0.8, ExactScores: true}})
	}
	done := make(chan error, 1)
	go func() { done <- serve(context.Background(), ln, load, server.Config{}, time.Minute, logger) }()
	waitReady(t, "http://"+ln.Addr().String())

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	query, _ := json.Marshal(server.SearchRequest{Query: datagen.GenerateDefault(datagen.Twitter, 0.05).Repo.Elements(0)})
	fmt.Fprintf(conn, "POST /v1/search HTTP/1.1\r\nHost: koios\r\nContent-Length: %d\r\nExpect: 100-continue\r\n\r\n", len(query))
	br := bufio.NewReader(conn)
	if line, err := br.ReadString('\n'); err != nil || !strings.HasPrefix(line, "HTTP/1.1 100") {
		t.Fatalf("no 100 Continue: %q, %v", line, err)
	}
	if _, err := br.ReadString('\n'); err != nil {
		t.Fatal(err)
	}
	ln.Close()
	select {
	case err := <-done:
		t.Fatalf("serve returned (%v) with a request in flight", err)
	case <-time.After(300 * time.Millisecond):
	}
	if _, err := conn.Write(query); err != nil {
		t.Fatal(err)
	}
	resp, err := http.ReadResponse(br, nil)
	if err != nil {
		t.Fatal(err)
	}
	var body struct{ Results []json.RawMessage }
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil || resp.StatusCode != http.StatusOK || len(body.Results) == 0 {
		t.Fatalf("in-flight search: status %d, %d results, %v", resp.StatusCode, len(body.Results), err)
	}
	if err := <-done; err == nil || errors.Is(err, http.ErrServerClosed) {
		t.Fatalf("serve returned %v, want the listener's failure", err)
	}
}
