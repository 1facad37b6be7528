// Package chaos drives randomized crash and corruption injections through
// the durable engine and asserts the resilience invariant (DESIGN.md §11):
// every reopen is either byte-identical to a reference built from the
// acknowledged operations, or explicitly degraded with the damaged file
// quarantined — never a silent divergence.
//
// Two fault modes, randomly interleaved:
//
//   - Crash: a workload of inserts/deletes/checkpoints runs over a
//     store.FaultFS armed to cut power at a random mutating-op index
//     (optionally as ENOSPC or a torn write). On reopen with a healthy
//     filesystem, recovery must reproduce exactly the acknowledged
//     operations — crashes write no garbage, so degraded mode is a
//     failure here.
//   - Corruption: after a clean run, a random bit of a random engine file
//     (segment snapshot, dictionary, or WAL) is flipped — or the file is
//     truncated — before reopening. Recovery must either still match a
//     legal state (for WAL damage: a record prefix) or quarantine the
//     file and come up degraded; Repair must then restore a clean,
//     self-consistent directory.
//
// The harness is deterministic in Config.Seed, so a reported iteration
// reproduces exactly.
package chaos

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"syscall"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/index"
	"repro/internal/segment"
	"repro/internal/sets"
	"repro/internal/store"
)

// Config parameterizes a harness run.
type Config struct {
	// Iters is the number of randomized injections (default 50).
	Iters int
	// Seed makes the run reproducible (default 1).
	Seed int64
	// Out receives progress lines; nil is silent.
	Out io.Writer
}

// Report summarizes a completed run. Any divergence aborts Run with an
// error instead of being counted.
type Report struct {
	Iters       int // injections performed
	Crashes     int // crash-mode iterations
	Corruptions int // corruption-mode iterations
	SchedRounds int // scheduler-fault iterations (transient background failures)
	// SchedRetries totals the scheduler retries observed across all
	// scheduler-fault iterations — each injected background failure must
	// show up here or it was silently swallowed.
	SchedRetries int
	// FullRecoveries counts reopens byte-identical to the reference;
	// DegradedRecoveries counts reopens that legally quarantined damage.
	FullRecoveries     int
	DegradedRecoveries int
	// QuarantinedFiles totals the files quarantined across all iterations.
	QuarantinedFiles int
	// Repairs counts successful Repair() calls that cleared degraded mode.
	Repairs int
}

const maxNames = 24 // set-name space; small so replacements and deletes collide often

type opKind int

const (
	opInsert opKind = iota
	opDelete
	opCheckpoint
	opFlush
	opCompact
)

type op struct {
	kind  opKind
	name  string
	elems []string
}

// oracle mirrors manager_test's reference model: an ordered list of
// (name, elements) with replace-on-reinsert moving the row to the end —
// exactly the insertion-order semantics the segmented manager recovers.
type oracle struct {
	order []string
	rows  map[string][]string
}

func newOracle() *oracle { return &oracle{rows: make(map[string][]string)} }

func (o *oracle) insert(name string, elems []string) {
	if _, ok := o.rows[name]; ok {
		o.delete(name)
	}
	o.order = append(o.order, name)
	o.rows[name] = elems
}

func (o *oracle) delete(name string) {
	if _, ok := o.rows[name]; !ok {
		return
	}
	delete(o.rows, name)
	for i, n := range o.order {
		if n == name {
			o.order = append(o.order[:i], o.order[i+1:]...)
			break
		}
	}
}

func (o *oracle) apply(p op) {
	switch p.kind {
	case opInsert:
		o.insert(p.name, p.elems)
	case opDelete:
		o.delete(p.name)
	}
}

func (o *oracle) sets() []sets.Set {
	out := make([]sets.Set, len(o.order))
	for i, n := range o.order {
		out[i] = sets.Set{Name: n, Elements: o.rows[n]}
	}
	return out
}

// key serializes the live state order-independently for state matching.
func (o *oracle) key() string {
	lines := make([]string, 0, len(o.order))
	for n, elems := range o.rows {
		lines = append(lines, n+"\x00"+strings.Join(elems, "\x01"))
	}
	sort.Strings(lines)
	return strings.Join(lines, "\x02")
}

func stateKey(recs []segment.SetRecord) string {
	lines := make([]string, 0, len(recs))
	for _, r := range recs {
		lines = append(lines, r.Name+"\x00"+strings.Join(r.Elements, "\x01"))
	}
	sort.Strings(lines)
	return strings.Join(lines, "\x02")
}

// harness carries the per-run fixtures.
type harness struct {
	cfg  Config
	pool []sets.Set
	vec  func(string) ([]float32, bool)
	opts core.Options
	rep  Report
}

func (h *harness) logf(format string, args ...any) {
	if h.cfg.Out != nil {
		fmt.Fprintf(h.cfg.Out, format+"\n", args...)
	}
}

func (h *harness) builder() segment.SourceBuilder {
	return func(dict *sets.Dictionary) index.NeighborSource {
		return index.NewDynamicExact(dict, h.vec)
	}
}

// Run executes the harness and returns its report; a non-nil error means a
// resilience invariant was violated (or the environment failed).
func Run(cfg Config) (Report, error) {
	if cfg.Iters <= 0 {
		cfg.Iters = 50
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	// Quarantine events are expected by the hundreds here; keep the run's
	// output readable.
	oldLogf := segment.Logf
	segment.Logf = func(string, ...any) {}
	defer func() { segment.Logf = oldLogf }()

	ds := datagen.GenerateDefault(datagen.Twitter, 0.02)
	h := &harness{
		cfg:  cfg,
		pool: ds.Repo.Sets(),
		vec:  ds.Model.Vector,
		opts: core.Options{K: 5, Alpha: 0.8, Partitions: 2, Workers: 2, ExactScores: true}.WithDefaults(),
	}
	if len(h.pool) < 10 {
		return h.rep, fmt.Errorf("chaos: dataset too small (%d sets)", len(h.pool))
	}

	for i := 0; i < cfg.Iters; i++ {
		rng := rand.New(rand.NewSource(cfg.Seed + int64(i)*7919))
		var err error
		switch r := rng.Float64(); {
		case r < 0.5:
			h.rep.Crashes++
			err = h.crashIteration(rng)
		case r < 0.8:
			h.rep.Corruptions++
			err = h.corruptionIteration(rng)
		default:
			h.rep.SchedRounds++
			err = h.schedIteration(rng)
		}
		if err != nil {
			return h.rep, fmt.Errorf("chaos: iteration %d (seed %d): %w", i, cfg.Seed, err)
		}
		h.rep.Iters++
		if (i+1)%50 == 0 {
			h.logf("  chaos: %d/%d injections, %d full recoveries, %d degraded, %d quarantined files",
				i+1, cfg.Iters, h.rep.FullRecoveries, h.rep.DegradedRecoveries, h.rep.QuarantinedFiles)
		}
	}
	return h.rep, nil
}

func (h *harness) script(rng *rand.Rand) []op {
	n := 10 + rng.Intn(30)
	ops := make([]op, 0, n)
	for i := 0; i < n; i++ {
		switch r := rng.Float64(); {
		case r < 0.55:
			src := h.pool[rng.Intn(len(h.pool))]
			ops = append(ops, op{kind: opInsert, name: fmt.Sprintf("s%d", rng.Intn(maxNames)), elems: src.Elements})
		case r < 0.75:
			ops = append(ops, op{kind: opDelete, name: fmt.Sprintf("s%d", rng.Intn(maxNames))})
		case r < 0.85:
			ops = append(ops, op{kind: opCheckpoint})
		case r < 0.95:
			ops = append(ops, op{kind: opFlush})
		default:
			ops = append(ops, op{kind: opCompact})
		}
	}
	return ops
}

func (h *harness) config(rng *rand.Rand, fsys store.FS) segment.Config {
	return segment.Config{
		SealThreshold:        3 + rng.Intn(6),
		MaxSegments:          2,
		ForegroundCompaction: true, // deterministic op counts; no goroutines to abandon
		SyncWAL:              rng.Intn(2) == 0,
		FS:                   fsys,
	}
}

// runScript drives the workload, returning the acknowledged operations: an
// op is acked when the manager returned nil or a DurabilityError (applied
// and logged; only extra durability failed). The first hard error stops
// the script — the simulated process is dying.
func runScript(m *segment.Manager, ops []op) (acked []op) {
	for _, p := range ops {
		var err error
		switch p.kind {
		case opInsert:
			_, err = m.Insert(p.name, p.elems)
		case opDelete:
			_, err = m.Delete(p.name)
		case opCheckpoint:
			err = m.Checkpoint()
		case opFlush:
			err = m.Flush()
		case opCompact:
			err = m.Compact()
		}
		if err != nil {
			var durErr *segment.DurabilityError
			if isDurability(err, &durErr) {
				acked = append(acked, p)
				continue
			}
			return acked
		}
		acked = append(acked, p)
	}
	return acked
}

func isDurability(err error, dst **segment.DurabilityError) bool {
	for e := err; e != nil; e = unwrap(e) {
		if de, ok := e.(*segment.DurabilityError); ok {
			*dst = de
			return true
		}
	}
	return false
}

func unwrap(err error) error {
	u, ok := err.(interface{ Unwrap() error })
	if !ok {
		return nil
	}
	return u.Unwrap()
}

// crashIteration: measure the workload's mutating-op count on a clean
// filesystem, replay it with a crash armed at a random op, reopen, and
// require byte-identical recovery of exactly the acked operations —
// twice (recovery must be idempotent).
func (h *harness) crashIteration(rng *rand.Rand) error {
	ops := h.script(rng)
	cfgSeed := rng.Int63()

	// Dry run: count the workload's mutating filesystem operations.
	countDir, err := os.MkdirTemp("", "koios-chaos-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(countDir)
	counter := store.NewFaultFS(nil)
	crng := rand.New(rand.NewSource(cfgSeed))
	m, err := segment.Open(countDir, nil, h.builder(), h.opts, h.config(crng, counter))
	if err != nil {
		return fmt.Errorf("clean open: %w", err)
	}
	runScript(m, ops)
	m.Close()
	total := counter.Ops()

	// Armed run: same workload, crash at a random op with a random flavor.
	dir, err := os.MkdirTemp("", "koios-chaos-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	ffs := store.NewFaultFS(nil)
	fault := store.Fault{After: rng.Intn(total + 1), Crash: true}
	switch rng.Intn(3) {
	case 0:
		fault.Err = syscall.ENOSPC
	case 1:
		fault.Op = store.OpWrite
		fault.Short = true
	}
	ffs.Inject(fault)
	crng = rand.New(rand.NewSource(cfgSeed))
	cfg := h.config(crng, ffs)
	var acked []op
	if m, err := segment.Open(dir, nil, h.builder(), h.opts, cfg); err == nil {
		acked = runScript(m, ops)
		// No Close: the process just died. (Foreground compaction means no
		// goroutines are left behind.)
	}

	want := newOracle()
	for _, p := range acked {
		want.apply(p)
	}

	// Reopen on a healthy filesystem: recovery must be exact and clean.
	cleanCfg := cfg
	cleanCfg.FS = nil
	for round := 0; round < 2; round++ {
		m2, err := segment.Open(dir, nil, h.builder(), h.opts, cleanCfg)
		if err != nil {
			return fmt.Errorf("recovery after crash (fault %+v): %w", fault, err)
		}
		if hlt := m2.Health(); hlt.Degraded {
			m2.Close()
			return fmt.Errorf("crash recovery round %d came up degraded (%+v) — crashes write no garbage", round, hlt.Quarantined)
		}
		if got, wantKey := stateKey(m2.LiveSets()), want.key(); got != wantKey {
			m2.Close()
			return fmt.Errorf("crash recovery round %d diverged from the %d acked ops (fault %+v)", round, len(acked), fault)
		}
		if err := h.checkSearches(rng, m2, want.sets()); err != nil {
			m2.Close()
			return fmt.Errorf("crash recovery round %d: %w", round, err)
		}
		m2.Close()
	}
	h.rep.FullRecoveries++
	return nil
}

// checkSearches requires byte-identical (name, score, verified) top-k
// lists between the recovered manager and a from-scratch reference engine
// over rows.
func (h *harness) checkSearches(rng *rand.Rand, m *segment.Manager, rows []sets.Set) error {
	if len(rows) == 0 {
		return nil
	}
	repo := sets.NewRepository(rows)
	eng := core.NewEngine(repo, index.NewExact(repo.Vocabulary(), h.vec), h.opts)
	queries := [][]string{rows[rng.Intn(len(rows))].Elements, h.pool[rng.Intn(len(h.pool))].Elements}
	for qi, q := range queries {
		got, _, err := m.Search(context.Background(), q, 0)
		if err != nil {
			return fmt.Errorf("manager search: %w", err)
		}
		ref, _ := eng.Search(q)
		if len(got) != len(ref) {
			return fmt.Errorf("query %d: %d results, reference %d", qi, len(got), len(ref))
		}
		for i := range ref {
			wantName := repo.Set(ref[i].SetID).Name
			if got[i].Name != wantName || got[i].Score != ref[i].Score || got[i].Verified != ref[i].Verified {
				return fmt.Errorf("query %d rank %d: (%q, %v, %v), reference (%q, %v, %v)",
					qi, i, got[i].Name, got[i].Score, got[i].Verified, wantName, ref[i].Score, ref[i].Verified)
			}
		}
	}
	return nil
}

// corruptionIteration: run a workload cleanly, damage one engine file,
// reopen, and require either a legal prefix state (WAL damage) or
// explicit quarantine + degraded — then verify Repair restores a clean
// directory.
func (h *harness) corruptionIteration(rng *rand.Rand) error {
	dir, err := os.MkdirTemp("", "koios-chaos-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	cfg := h.config(rng, nil)
	m, err := segment.Open(dir, nil, h.builder(), h.opts, cfg)
	if err != nil {
		return fmt.Errorf("clean open: %w", err)
	}
	runScript(m, h.script(rng))
	if rng.Intn(2) == 0 {
		m.Close() // clean shutdown: checkpointed state, empty WAL
	}
	// else: abandon with records still in the WAL (foreground compaction —
	// no goroutines behind).

	man, err := store.LoadManifest(store.OS, dir)
	if err != nil || man == nil {
		return fmt.Errorf("manifest after clean run: %v", err)
	}

	// Reference states. base = the checkpointed survivors (manifest order,
	// live rows only); walRecs = operations still in the log.
	tokens, err := store.LoadDict(store.OS, filepath.Join(dir, man.Dict))
	if err != nil {
		return fmt.Errorf("read dict for reference: %w", err)
	}
	walRecs, _, _, err := store.ScanWAL(store.OS, filepath.Join(dir, man.WAL), man.Gen)
	if err != nil {
		return fmt.Errorf("scan WAL for reference: %w", err)
	}

	// Pick the victim: a segment file, the dictionary, or the WAL.
	candidates := []string{man.Dict, man.WAL}
	for _, ms := range man.Segments {
		candidates = append(candidates, ms.File)
	}
	victim := candidates[rng.Intn(len(candidates))]

	// Build the survivor base state: every checkpointed live row except the
	// victim's (a corrupt dictionary dooms every interned snapshot with it).
	base := newOracle()
	dictDoomed := victim == man.Dict
	for _, ms := range man.Segments {
		if dictDoomed || ms.File == victim {
			continue
		}
		rows, err := liveRows(dir, ms, tokens)
		if err != nil {
			return fmt.Errorf("read %s for reference: %w", ms.File, err)
		}
		for _, r := range rows {
			base.insert(r.Name, r.Elements)
		}
	}

	truncated, err := damageFile(rng, filepath.Join(dir, victim))
	if err != nil {
		return err
	}

	m2, err := segment.Open(dir, nil, h.builder(), h.opts, cfg)
	if err != nil {
		return fmt.Errorf("reopen after corrupting %s: %w", victim, err)
	}
	defer m2.Close()
	hlt := m2.Health()
	gotKey := stateKey(m2.LiveSets())

	// Legal outcomes: base + the full WAL (j = n), or — for WAL damage —
	// base + a record prefix, where losing more than the final record
	// demands the degraded flag (mid-log gap). Anything else is a silent
	// divergence.
	states := []*oracle{cloneOracle(base)}
	for _, rec := range walRecs {
		next := cloneOracle(states[len(states)-1])
		switch rec.Op {
		case store.WALInsert:
			next.insert(rec.Name, rec.Elements)
		case store.WALDelete:
			next.delete(rec.Name)
		}
		states = append(states, next)
	}
	n := len(walRecs)
	matched := -1
	for j := n; j >= 0; j-- { // prefer the fullest interpretation
		if states[j].key() == gotKey {
			matched = j
			break
		}
	}
	if matched < 0 {
		return fmt.Errorf("corrupting %s: recovered state matches no legal prefix of the %d WAL records (degraded=%v)", victim, n, hlt.Degraded)
	}
	if matched < n && !hlt.Degraded && matched != n-1 && !(victim == man.WAL && truncated) {
		// Losing the final record is indistinguishable from a torn tail, and
		// truncating the WAL itself IS a torn tail (no bytes survive past the
		// cut to prove anything was lost) — everything else must raise the flag.
		return fmt.Errorf("corrupting %s: silently lost WAL records %d..%d without degraded mode", victim, matched, n-1)
	}
	if victim != man.WAL && matched == n && !hlt.Degraded && len(man.Segments) > 0 && !dictDoomed && !segmentEmpty(dir, man, victim) {
		// A non-empty snapshot file was damaged; full recovery without a
		// quarantine means the corruption was silently ignored.
		return fmt.Errorf("corrupting %s: recovery reported neither damage nor loss", victim)
	}
	if hlt.Degraded {
		h.rep.DegradedRecoveries++
		h.rep.QuarantinedFiles += len(hlt.Quarantined)
		if len(hlt.Quarantined) == 0 {
			return fmt.Errorf("corrupting %s: degraded without a quarantine record", victim)
		}
	} else {
		h.rep.FullRecoveries++
	}
	if err := h.checkSearches(rng, m2, states[matched].sets()); err != nil {
		return fmt.Errorf("after corrupting %s: %w", victim, err)
	}

	// Repair must re-persist the survivors and leave degraded mode; a
	// subsequent scrub and reopen must both be clean.
	if _, err := m2.Repair(); err != nil {
		return fmt.Errorf("repair after corrupting %s: %w", victim, err)
	}
	if m2.Health().Degraded {
		return fmt.Errorf("repair after corrupting %s left the manager degraded", victim)
	}
	if rep := m2.Scrub(); len(rep.Corrupt) > 0 {
		return fmt.Errorf("scrub after repair still reports corrupt files: %v", rep.Corrupt)
	}
	if hlt.Degraded {
		h.rep.Repairs++
	}
	if err := m2.Close(); err != nil {
		return fmt.Errorf("close after repair: %w", err)
	}
	m3, err := segment.Open(dir, nil, h.builder(), h.opts, cfg)
	if err != nil {
		return fmt.Errorf("reopen after repair: %w", err)
	}
	defer m3.Close()
	if hlt3 := m3.Health(); hlt3.Degraded {
		return fmt.Errorf("reopen after repair degraded: %+v", hlt3.Quarantined)
	}
	if stateKey(m3.LiveSets()) != states[matched].key() {
		return fmt.Errorf("reopen after repair diverged from the repaired state")
	}
	return nil
}

func cloneOracle(o *oracle) *oracle {
	c := newOracle()
	for _, n := range o.order {
		c.insert(n, o.rows[n])
	}
	return c
}

// liveRows decodes one checkpointed segment's live rows (manifest
// tombstones win) back to string elements, in row order.
func liveRows(dir string, ms store.ManifestSegment, tokens []string) ([]sets.Set, error) {
	mseg, err := store.OpenMappedSegment(store.OS, filepath.Join(dir, ms.File))
	if err != nil {
		return nil, err
	}
	snap := mseg.Snapshot()
	if err := mseg.Release(); err != nil {
		return nil, err
	}
	dead, err := ms.Dead()
	if err != nil {
		return nil, err
	}
	for i := range dead {
		if i < len(snap.Dead) {
			dead[i] |= snap.Dead[i]
		}
	}
	var out []sets.Set
	for i, row := range snap.Rows {
		if dead[i>>6]&(1<<(uint(i)&63)) != 0 {
			continue
		}
		elems := make([]string, len(row.ElemIDs))
		for j, id := range row.ElemIDs {
			elems[j] = tokens[id]
		}
		out = append(out, sets.Set{Name: row.Name, Elements: elems})
	}
	return out, nil
}

// segmentEmpty reports whether the manifest segment named file carries no
// live rows (corrupting it legally changes nothing).
func segmentEmpty(dir string, man *store.Manifest, file string) bool {
	for _, ms := range man.Segments {
		if ms.File != file {
			continue
		}
		tokens, err := store.LoadDict(store.OS, filepath.Join(dir, man.Dict))
		if err != nil {
			return false
		}
		rows, err := liveRows(dir, ms, tokens)
		return err == nil && len(rows) == 0
	}
	return true
}

// damageFile flips one random bit of the file or (reported via truncated)
// cuts a random tail off it — every flip lands under a CRC, so readers
// must either reject the file or the damage must be provably absent from
// what they return.
func damageFile(rng *rand.Rand, path string) (truncated bool, err error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return false, err
	}
	if len(raw) == 0 {
		return false, nil
	}
	if rng.Float64() < 0.25 && len(raw) > 1 {
		return true, os.WriteFile(path, raw[:rng.Intn(len(raw))], 0o644)
	}
	i := rng.Intn(len(raw))
	raw[i] ^= 1 << uint(rng.Intn(8))
	return false, os.WriteFile(path, raw, 0o644)
}
