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
	// approximate sources alike: every search builds its edge cache from
	// one read of the whole stream before its first block, which holds the
	// source's own retrieval, however early the cut comes.
	DisableLazy bool
	// LazyBlock is the lazy pump's block size in stream tuples — the
	// granularity at which the cut-off condition is evaluated. Smaller
	// blocks cut earlier but synchronize the partition refiners more often.
	// Default 256. Tests randomize it to force cuts at arbitrary stream
	// prefixes.
	LazyBlock int
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
	// IUBQueryPruned is the part of IUBPruned the query side of the bound
	// decided (DESIGN.md §2): candidates its column side alone would have
	// kept.
	IUBQueryPruned int
	// BoundSettled and BoundCertified are the parts of IUBPruned the
	// stream-wide set bound decided (DESIGN.md §2): candidates settled at a
	// skipped posting during the walk, and cut survivors certified without
	// a replay.
	BoundSettled   int
	BoundCertified int
	// NoEM counts post-processing sets never exact-matched: admitted to the
	// result by Lemma 7 or pruned by the lazy UB check.
	NoEM int
	// EMEarly counts exact matches aborted by the label-sum filter.
	EMEarly int
	// EMFull counts completed exact graph matchings.
	EMFull int
	// FinalizeEM counts additional verifications performed only to make
	// result scores exact (ExactScores); they are bookkeeping, not part of
	// the paper's filter accounting.
	FinalizeEM int
	// StreamTuples is the number of token-stream tuples consumed by
	// refinement: it stops at the cut-off, and is the whole stream
	// (StreamRetrieved + |Q|) when no cut was taken.
	StreamTuples int
	// StreamRetrieved is the number of α-neighbors the similarity index
	// retrieved for the query — the retrieval-side cost: the whole stream,
	// which the edge cache reads before the first block whether or not the
	// cut-off stops refinement early. The cut-off's savings are
	// StreamTuples vs. StreamRetrieved, on the consumption side.
	StreamRetrieved int
	// StreamCut reports that the lazy pipeline stopped the token stream
	// before exhaustion; StreamCutLevel is the similarity level s at the
	// cut (every unseen tuple had sim ≤ s).
	StreamCut      bool
	StreamCutLevel float64
	// Postings is the number of posting entries of the consumed tuples
	// refinement met, and PostingsSkipped how many of them it passed over
	// because their set's stream-wide bound was already below θlb.
	Postings        int
	PostingsSkipped int
	// HungarianIterations sums the sparse solver's augmentations (one
	// shortest-path search per query element with an α-edge) across all
	// matchings; the name predates the sparse verifier.
	HungarianIterations int
	// VerifyCalls counts exact-verification calls (post-processing plus
	// finalization), and HungarianSkipped how many of them the solver
	// settled at its entry check, before any augmentation: Σ rowMax was
	// already below θlb. The iUB filter prunes on a bound no larger than
	// that sum (DESIGN.md §2), so the entry check fires only when θlb rose
	// after a survivor left refinement. The ratio of the two,
	// matching.hungarian_skipped_frac in a traced benchmark run, reads
	// about 0 (0 entry prunes on each of the four workloads), and the
	// probe may be dropped (ROADMAP 1(a)).
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
	// source's probe and the peek that fills the edge cache (StreamTime),
	// the stream-wide bounds and the θlb seed (BoundTime), the pump's
	// blocks (WalkTime), the survivors' reconstruction — the cut replay and
	// its filter, or the drain (ReplayTime) — and the exact verifications,
	// summed over every one post-processing and ExactScores ran, in
	// parallel or not (VerifyTime). The first four lie inside RefineTime,
	// the last inside PostprocTime.
	StreamTime time.Duration
	BoundTime  time.Duration
	WalkTime   time.Duration
	ReplayTime time.Duration
	VerifyTime time.Duration

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
	s.BoundCertified += o.BoundCertified
	s.NoEM += o.NoEM
	s.EMEarly += o.EMEarly
	s.EMFull += o.EMFull
	s.FinalizeEM += o.FinalizeEM
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
	s.ReplayTime += o.ReplayTime
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
