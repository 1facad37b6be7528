// Package core implements the Koios search engine: the filter–verification
// framework of the paper with its refinement phase (Alg. 1 — UB/LB filters
// and incremental iLB greedy lower bounds, in one walk over the whole token
// stream, sorted once per search, with every set bounded by the maxima the
// stream brings before the walk starts) and its post-processing phase
// (Alg. 2 — Llb/Lub/Qub lists, the No-EM filter of Lemma 7, parallel exact
// verification with the label-sum early-termination filter of Lemma 8), plus
// the partitioned scale-out driver of §VI with a shared global θlb. The
// stream-wide bound subsumes the paper's bucketized iUB filter (§V), its
// stream cut-off and Lemma 2's check at a set's first sight: the walk passes
// over every set it puts below θlb, and the drain re-checks the rest
// (DESIGN.md §2). The k sets the θlb seed solves before the walk are passed
// over too: they enter the Llb and the drain at their exact scores. Every
// filter is always on; Stats counts what each decided.
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

	"repro/internal/matching"
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
	// Partitions is the number of refiners per engine, run in parallel with
	// a shared global θlb (§VI): each refines one of that many contiguous
	// ranges of the engine's set IDs, at most one per set.
	Partitions int
	// Workers bounds the concurrent exact-match verifications of one search
	// during post-processing. 1 gives a fully deterministic run.
	Workers int
	// ExactScores forces exact verification of every result set, so scores
	// in the result are exact semantic overlaps even for sets the No-EM
	// filter admitted without matching.
	ExactScores bool
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
	return o
}

// Result is one set of the top-k result.
type Result struct {
	// SetID identifies the set in the repository.
	SetID int
	// Score is the semantic overlap SO(Q,C) when Verified, otherwise a
	// lower bound that the No-EM filter proved sufficient for membership.
	Score float64
	// Verified reports whether Score is the exact semantic overlap. Without
	// ExactScores a result the θlb seed solved (DESIGN.md §2) reports its
	// exact score, verified, even where the No-EM filter alone would have
	// admitted it.
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
	// IUBPruned counts candidates pruned during refinement: by the
	// stream-wide set bound at a skipped posting — which decides every set
	// Lemma 2's UB filter would prune at first sight (DESIGN.md §2) — or by
	// the drain's final check: a walked set's iUB, or a set the θlb seed
	// solved at its kept score.
	IUBPruned int
	// IUBQueryPruned is the part of IUBPruned the query side of the bound
	// decided at the drain (DESIGN.md §2): candidates its column side alone
	// would have kept.
	IUBQueryPruned int
	// BoundSettled is the part of IUBPruned the stream-wide set bound
	// decided (DESIGN.md §2): candidates settled at a skipped posting
	// during the walk. A set the θlb seed solved is never settled: the walk
	// passes over its postings, and the drain decides it.
	BoundSettled int
	// NoEM counts post-processing sets never exact-matched: admitted to the
	// result by Lemma 7 or pruned by the lazy UB check. A survivor the θlb
	// seed solved is not one of them: it counts in EMFull.
	NoEM int
	// EMEarly counts exact matches aborted by the label-sum filter.
	EMEarly int
	// EMFull counts completed exact graph matchings of survivors, a
	// survivor the θlb seed solved included: the drain hands it over at
	// that score, and post-processing keeps it and does not match the set
	// again.
	EMFull int
	// SeedEM counts the exact matchings the θlb seed solved (DESIGN.md §2):
	// every seed set under ExactScores, otherwise those whose greedy
	// weight is below their stream-wide bound. A seed set that refinement
	// prunes counts here and in none of the four buckets' matchings.
	SeedEM int
	// FinalizeEM counts additional verifications performed only to make
	// result scores exact (ExactScores); they are bookkeeping, not part of
	// the paper's filter accounting.
	FinalizeEM int
	// StreamTuples is the number of token-stream tuples refinement
	// consumed: the whole stream, StreamRetrieved + |Q| (an identity tuple
	// per query element), tuples of tokens in no live set included.
	StreamTuples int
	// StreamRetrieved is the number of α-neighbors the similarity index
	// retrieved for the query — the retrieval-side cost.
	StreamRetrieved int
	// StreamCut is always false: refinement consumes the whole stream. It
	// is kept for the benchmark harness and the wire.
	StreamCut bool
	// Postings is the number of posting entries of the consumed tuples
	// refinement met, and PostingsSkipped how many of them the bound filter
	// passed over: their set's stream-wide bound was already below θlb, or
	// the θlb seed had solved the set (DESIGN.md §2).
	Postings        int
	PostingsSkipped int
	// HungarianIterations sums the sparse solver's augmentations (one
	// shortest-path search per query element with an α-edge) across all
	// matchings, the θlb seed's included; the name predates the sparse
	// verifier.
	HungarianIterations int
	// VerifyCalls counts exact-verification calls (the θlb seed's solves,
	// post-processing and finalization), and HungarianSkipped how many of
	// them the solver
	// settled at its entry check, before any augmentation: Σ rowMax was
	// already below θlb. The iUB filter prunes on a bound no larger than
	// that sum (DESIGN.md §2), so the entry check fires only when θlb rose
	// after a survivor left refinement. The ratio of the two,
	// matching.hungarian_skipped_frac in a traced benchmark run, reads
	// about 0 (0 entry prunes on each of the four workloads).
	VerifyCalls      int
	HungarianSkipped int
	// Segments is the number of repository segments the search snapshot
	// spanned (1 for a plain single-engine search). Set once per search,
	// not aggregated.
	Segments int

	// RefineTime and PostprocTime are wall-clock phase durations.
	RefineTime   time.Duration
	PostprocTime time.Duration
	// The stage timers, each taken once at its stage's boundaries: the
	// source's probe, the edge cache and the sort of the stream
	// (StreamTime), the stream-wide bounds and the θlb seed but for its
	// solves (BoundTime), the postings walk (WalkTime), the drain that hands
	// the survivors over (DrainTime), and the exact verifications, each from
	// the gather of its set's graph on, summed over every one the θlb seed,
	// post-processing and ExactScores ran, in parallel or not (VerifyTime).
	// The first four lie inside RefineTime; VerifyTime's seed solves do too,
	// and the rest of it lies inside PostprocTime.
	StreamTime time.Duration
	BoundTime  time.Duration
	WalkTime   time.Duration
	DrainTime  time.Duration
	VerifyTime time.Duration

	// Footprint estimates of the query-dependent data structures in bytes
	// (Fig. 5d/6d): the token stream and edge cache, refinement candidate
	// state, and the post-processing lists.
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

// countVerify accounts one exact verification.
func (s *Stats) countVerify(res matching.Result) {
	s.VerifyCalls++
	s.HungarianIterations += res.Iterations
	if res.Pruned && res.Iterations == 0 {
		s.HungarianSkipped++
	}
}

func (s *Stats) add(o *Stats) {
	s.Candidates += o.Candidates
	s.IUBPruned += o.IUBPruned
	s.IUBQueryPruned += o.IUBQueryPruned
	s.BoundSettled += o.BoundSettled
	s.NoEM += o.NoEM
	s.EMEarly += o.EMEarly
	s.EMFull += o.EMFull
	s.FinalizeEM += o.FinalizeEM
	s.SeedEM += o.SeedEM
	s.StreamTuples += o.StreamTuples
	s.StreamRetrieved += o.StreamRetrieved
	s.Postings += o.Postings
	s.PostingsSkipped += o.PostingsSkipped
	s.HungarianIterations += o.HungarianIterations
	s.VerifyCalls += o.VerifyCalls
	s.HungarianSkipped += o.HungarianSkipped
	s.StreamTime += o.StreamTime
	s.BoundTime += o.BoundTime
	s.WalkTime += o.WalkTime
	s.DrainTime += o.DrainTime
	s.VerifyTime += o.VerifyTime
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
