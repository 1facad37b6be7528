// Package core implements the Koios search engine: the filter–verification
// framework of the paper with its refinement phase (Alg. 1 — UB/LB filters,
// incremental iLB greedy lower bounds, the bucketized iUB filter of §V) and
// its post-processing phase (Alg. 2 — Llb/Lub/Qub lists, the No-EM filter of
// Lemma 7, parallel exact verification with the label-sum early-termination
// filter of Lemma 8), plus the partitioned scale-out driver of §VI with a
// shared global θlb.
//
// The iUB bound implemented here is the corrected, provably sound variant
// described in DESIGN.md §2; the literal Lemma 6 can under-estimate the
// semantic overlap of a candidate whose greedily matched nodes are re-matched
// by the optimal matching.
package core

import (
	"math"
	"sync/atomic"
	"time"
)

// Options configure a search. The zero value is completed by withDefaults:
// k=10, α=0.8, one partition, one verification worker. NewEngine builds from
// Partitions alone; every other field is read when a search runs, from the
// Group searched (Group.Opts).
type Options struct {
	// K is the number of result sets.
	K int
	// Alpha is the element similarity threshold α of Def. 1.
	Alpha float64
	// Partitions splits the repository into random partitions searched in
	// parallel with a shared global θlb (§VI).
	Partitions int
	// Workers bounds concurrent exact-match verifications per partition
	// during post-processing. 1 gives a fully deterministic run.
	Workers int
	// ExactScores forces exact verification of every result set, so scores
	// in the result are exact semantic overlaps even for sets the No-EM
	// filter admitted without matching. Multi-partition searches always
	// verify result sets internally (the exact merge requires it).
	ExactScores bool
	// DisableIUB turns the bucketized iUB filter off (the paper's Baseline+
	// keeps it on; the plain Baseline has it off).
	DisableIUB bool
	// DisableNoEM turns the No-EM filter (Lemma 7) off.
	DisableNoEM bool
	// DisableEarlyTerm turns the EM early-termination filter (Lemma 8) off.
	DisableEarlyTerm bool
	// DisableLazy turns off the lazy token-stream cut-off (DESIGN.md §10):
	// the pump pulls the whole stream as one block and never evaluates the
	// cut. The cut-off needs the first-sight UB filter, so DisableIUB
	// implies it. Results are byte-identical either way, for exact and
	// approximate sources alike: a cut search completes its edge cache by
	// draining the stream, which re-emits the source's own retrieval.
	DisableLazy bool
	// LazyBlock is the lazy pump's block size in stream tuples — the
	// granularity at which the cut-off condition is evaluated. Smaller
	// blocks cut earlier but synchronize the partition refiners more often.
	// Default 256. Tests randomize it to force cuts at arbitrary stream
	// prefixes.
	LazyBlock int
	// DisableSandwich turns off the verification sandwich (DESIGN.md §12):
	// the row/column-maximum UB prune that rejects many candidates without
	// running the matching solver. Results are byte-identical either way;
	// the knob is the A/B axis for benchmarks and equivalence tests.
	DisableSandwich bool
}

// WithDefaults returns the options with zero values replaced by the
// documented defaults — what NewEngine applies internally, exported for
// callers (like the segment manager) that need the effective values.
func (o Options) WithDefaults() Options { return o.withDefaults() }

func (o Options) withDefaults() Options {
	if o.K <= 0 {
		o.K = 10
	}
	if o.Alpha <= 0 {
		o.Alpha = 0.8
	}
	if o.Partitions <= 0 {
		o.Partitions = 1
	}
	if o.Workers <= 0 {
		o.Workers = 1
	}
	if o.LazyBlock <= 0 {
		o.LazyBlock = 256
	}
	return o
}

// Result is one set of the top-k result.
type Result struct {
	// SetID identifies the set in the repository.
	SetID int
	// Score is the semantic overlap SO(Q,C) when Verified, otherwise a
	// lower bound that the No-EM filter proved sufficient for membership.
	Score float64
	// Verified reports whether Score is the exact semantic overlap.
	Verified bool
}

// Stats quantifies filter effectiveness, phase timings and data-structure
// footprints; the bench harness prints Tables II–V and Figures 5–7 from it.
// Every candidate set lands in exactly one of the four buckets
// IUBPruned + NoEM + EMEarly + EMFull = Candidates, mirroring the paper's
// per-filter accounting.
type Stats struct {
	// Candidates is the number of distinct sets obtained from the inverted
	// index (non-zero semantic overlap).
	Candidates int
	// IUBPruned counts candidates pruned during refinement (initial
	// UB-filter plus the bucketized iUB filter).
	IUBPruned int
	// NoEM counts post-processing sets never exact-matched: admitted to the
	// result by Lemma 7 or pruned by the lazy UB check.
	NoEM int
	// EMEarly counts exact matches aborted by the label-sum filter.
	EMEarly int
	// EMFull counts completed exact graph matchings.
	EMFull int
	// FinalizeEM counts additional verifications performed only to make
	// result scores exact (ExactScores or the multi-partition merge); they
	// are bookkeeping, not part of the paper's filter accounting.
	FinalizeEM int
	// StreamTuples is the number of token-stream tuples consumed by
	// refinement: it stops at the cut-off, and is the whole stream
	// (StreamRetrieved + |Q|) when no cut was taken.
	StreamTuples int
	// StreamRetrieved is the number of α-neighbors the similarity index
	// actually materialized for the query — the retrieval-side cost. The
	// cut-off's savings per query are StreamRetrieved vs. the full
	// α-neighbor count (what an eager search reports here) and
	// StreamTuples vs. StreamRetrieved on the consumption side.
	StreamRetrieved int
	// StreamCut reports that the lazy pipeline stopped the token stream
	// before exhaustion; StreamCutLevel is the similarity level s at the
	// cut (every unseen tuple had sim ≤ s).
	StreamCut      bool
	StreamCutLevel float64
	// HungarianIterations sums the sparse solver's augmentations (one
	// shortest-path search per query element with an α-edge) across all
	// matchings; the name predates the sparse verifier.
	HungarianIterations int
	// VerifyCalls counts exact-verification calls (post-processing plus
	// finalization), and HungarianSkipped how many of them the sandwich's
	// UB prune rejected without running the solver (DESIGN.md §12). Their
	// ratio is matching.hungarian_skipped_frac in a traced benchmark run.
	VerifyCalls      int
	HungarianSkipped int
	// Segments is the number of repository segments the search snapshot
	// spanned (1 for a plain single-engine search). Set once per search,
	// not aggregated.
	Segments int

	// RefineTime and PostprocTime are wall-clock phase durations.
	RefineTime   time.Duration
	PostprocTime time.Duration

	// Footprint estimates of the query-dependent data structures in bytes
	// (Fig. 5d/6d): the token stream and edge cache, refinement candidate
	// state including buckets, and the post-processing lists.
	MemStreamBytes   int64
	MemCandBytes     int64
	MemPostprocBytes int64
}

// TotalBytes is the aggregate footprint reported in the memory experiments.
func (s *Stats) TotalBytes() int64 {
	return s.MemStreamBytes + s.MemCandBytes + s.MemPostprocBytes
}

// ResponseTime is the total query wall time across phases.
func (s *Stats) ResponseTime() time.Duration { return s.RefineTime + s.PostprocTime }

func (s *Stats) add(o *Stats) {
	s.Candidates += o.Candidates
	s.IUBPruned += o.IUBPruned
	s.NoEM += o.NoEM
	s.EMEarly += o.EMEarly
	s.EMFull += o.EMFull
	s.FinalizeEM += o.FinalizeEM
	s.StreamTuples += o.StreamTuples
	s.StreamRetrieved += o.StreamRetrieved
	s.HungarianIterations += o.HungarianIterations
	s.VerifyCalls += o.VerifyCalls
	s.HungarianSkipped += o.HungarianSkipped
	s.MemStreamBytes += o.MemStreamBytes
	s.MemCandBytes += o.MemCandBytes
	s.MemPostprocBytes += o.MemPostprocBytes
}

// atomicMax is a monotonically increasing shared float64 — the global θlb of
// §VI ("all partitions share a global θlb that is the maximum of the θlb").
type atomicMax struct {
	bits atomic.Uint64
}

// Update raises the value to v if v is larger, returning true on change.
func (a *atomicMax) Update(v float64) bool {
	for {
		old := a.bits.Load()
		if math.Float64frombits(old) >= v {
			return false
		}
		if a.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return true
		}
	}
}

// Load returns the current value.
func (a *atomicMax) Load() float64 {
	return math.Float64frombits(a.bits.Load())
}
