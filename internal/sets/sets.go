// Package sets defines the set repository Koios searches over: rows of
// interned token IDs over a shared dictionary, vocabulary extraction and the
// cardinality statistics reported in Table I of the paper.
package sets

import (
	"fmt"
	"slices"
)

// Set is a named collection of distinct elements. It has two uses: the raw
// input of NewRepository, NewSegment and InternSet (Name and Elements,
// repeats allowed), and a repository row (ID, Name and ElemIDs, no strings:
// a token's string lives once, in the dictionary). Repository.Sets hands out
// rows with Elements resolved as well.
type Set struct {
	// ID is the set's position in its repository; assigned by NewRepository.
	ID int
	// Name is an external identifier (e.g. "table:column" or a tweet id).
	Name string
	// Elements are the set's tokens: raw input, or a row resolved by Sets.
	Elements []string
	// ElemIDs are the interned token IDs of the set's distinct elements, each
	// where it first occurs. The query hot path (CSR postings, edge cache,
	// verification matrices) runs entirely on these IDs.
	ElemIDs []int32
}

// Repository is an immutable collection of sets plus derived metadata. Its
// token IDs come from a Dictionary — private to the repository when built
// with NewRepository, or shared across many repositories when built with
// NewSegment, which is how the segmented engine (DESIGN.md §4) layers
// per-segment vocabulary deltas over one base dictionary: each segment
// records the dictionary size at build time (vocabN) and treats later
// tokens as out of vocabulary, while IDs below vocabN are globally stable.
type Repository struct {
	sets   []Set
	dict   *Dictionary
	vocabN int
}

// NewRepository builds a repository from raw sets over a fresh, private
// dictionary: elements are de-duplicated (preserving first occurrence), IDs
// are assigned by position, and every distinct element is interned in
// first-seen order. Empty sets are kept (they can never be candidates,
// which exercises a pruning edge case).
func NewRepository(raw []Set) *Repository {
	return NewSegment(NewDictionary(), raw)
}

// NewSegment builds a repository as one segment of a segmented collection:
// elements are interned into the shared dictionary (reusing IDs of tokens
// other segments already interned), and the dictionary size after interning
// becomes the segment's vocabulary horizon VocabSize. Set IDs are
// segment-local positions; an empty name defaults to "set-<ID>".
func NewSegment(dict *Dictionary, raw []Set) *Repository {
	rows := make([]Set, len(raw))
	for i, s := range raw {
		rows[i] = InternSet(dict, s.Name, s.Elements)
		rows[i].ID = i
		if rows[i].Name == "" {
			rows[i].Name = fmt.Sprintf("set-%d", i)
		}
	}
	return SegmentOver(dict, rows)
}

// InternSet returns the repository row of a raw set: its elements interned
// into dict, then repeated IDs dropped, each ID where it first occurs. A
// sorted copy finds the repeats, so a row without any (the common case)
// costs one sort and no map. The row's slice is never written again, so any
// number of segments may share it.
func InternSet(dict *Dictionary, name string, elements []string) Set {
	ids := make([]int32, len(elements))
	for j, e := range elements {
		ids[j] = dict.Intern(e)
	}
	uniq := slices.Clone(ids)
	slices.Sort(uniq)
	if uniq = slices.Compact(uniq); len(uniq) < len(ids) {
		seen := make([]bool, len(uniq))
		ids = slices.Clip(slices.DeleteFunc(ids, func(id int32) bool {
			i, _ := slices.BinarySearch(uniq, id)
			dup := seen[i]
			seen[i] = true
			return dup
		}))
	}
	return Set{Name: name, ElemIDs: ids}
}

// SegmentOver wraps rows against dict as a segment, without copying them:
// rows[i].ID must already be i and every name set, and the rows must never
// be written again. The caller may keep appending to the slice's backing
// array past len(rows) — the segment manager's memtable hands each snapshot a
// longer prefix of one growing slice (DESIGN.md §4). The dictionary size at
// the call is the segment's vocabulary horizon.
func SegmentOver(dict *Dictionary, rows []Set) *Repository {
	return &Repository{sets: rows, dict: dict, vocabN: dict.Size()}
}

// NewMappedSegment rebuilds a segment over borrowed CSR storage: rowOffs
// and elemIDs come straight from a mapped v2 segment snapshot (DESIGN.md
// §13) and are aliased, not copied — each set's ElemIDs is a subslice of
// elemIDs, so opening the segment allocates O(rows) set headers instead of
// O(elements) decoded data. names must be heap-owned strings (the segment
// layer materializes them from the mapping), because set names outlive the
// mapping in map keys and compaction outputs.
//
// The caller owns the mapped storage's lifetime and must guarantee it
// outlives the repository (the segment layer ties the unmap to this
// repository's unreachability via a runtime cleanup).
//
// elemIDs were horizon-checked by the v2 parser; the check here guards the
// dictionary precondition only.
func NewMappedSegment(dict *Dictionary, names []string, rowOffs []int64, elemIDs []int32, vocabN int) (*Repository, error) {
	if vocabN < 0 || vocabN > dict.Size() {
		return nil, fmt.Errorf("sets: segment horizon %d outside dictionary of %d tokens", vocabN, dict.Size())
	}
	if len(rowOffs) != len(names)+1 {
		return nil, fmt.Errorf("sets: %d row offsets for %d names", len(rowOffs), len(names))
	}
	r := &Repository{sets: make([]Set, len(names)), dict: dict, vocabN: vocabN}
	for i, name := range names {
		if name == "" {
			name = fmt.Sprintf("set-%d", i)
		}
		lo, hi := rowOffs[i], rowOffs[i+1]
		r.sets[i] = Set{ID: i, Name: name, ElemIDs: elemIDs[lo:hi:hi]}
	}
	return r, nil
}

// Elements returns the element strings of the set with the given ID,
// resolved through the dictionary: a fresh slice, empty but never nil for an
// empty set, of heap-owned dictionary tokens, safe to retain past the
// segment's life.
func (r *Repository) Elements(id int) []string {
	vocab := r.Vocabulary()
	ids := r.sets[id].ElemIDs
	out := make([]string, len(ids))
	for j, tid := range ids {
		out[j] = vocab[tid]
	}
	return out
}

// Dedup returns elems without repeats, each element where it first occurs.
func Dedup(elems []string) []string {
	seen := make(map[string]bool, len(elems))
	out := make([]string, 0, len(elems))
	for _, e := range elems {
		if !seen[e] {
			seen[e] = true
			out = append(out, e)
		}
	}
	return out
}

// Len returns the number of sets.
func (r *Repository) Len() int { return len(r.sets) }

// Set returns the row with the given ID: its name and token IDs, no
// strings.
func (r *Repository) Set(id int) Set { return r.sets[id] }

// Sets returns every row with its elements resolved (Elements) beside its
// token IDs, in a fresh slice: for callers that read strings. Readers of IDs
// use Set.
func (r *Repository) Sets() []Set {
	out := slices.Clone(r.sets)
	for i := range out {
		out[i].Elements = r.Elements(i)
	}
	return out
}

// Vocabulary returns the dictionary tokens below the repository's
// vocabulary horizon in ID order; the position of a token in the slice is
// its token ID. For a private-dictionary repository this is exactly the
// distinct elements across all sets in first-seen order. Callers must not
// mutate the result.
func (r *Repository) Vocabulary() []string { return r.dict.Prefix(r.vocabN) }

// VocabSize returns the repository's vocabulary horizon: the dictionary
// size at build time, i.e. the token ID space its indexes are sized for.
func (r *Repository) VocabSize() int { return r.vocabN }

// TokenID returns the interned ID of token, or -1 when the token is beyond
// the repository's vocabulary horizon (never interned, or interned by a
// newer segment of a shared dictionary).
func (r *Repository) TokenID(token string) int32 {
	if id := r.dict.Lookup(token); id >= 0 && int(id) < r.vocabN {
		return id
	}
	return -1
}

// TokenIDs interns a slice of tokens, mapping out-of-vocabulary tokens
// (tokens occurring in no set) to -1.
func (r *Repository) TokenIDs(tokens []string) []int32 {
	return r.AppendTokenIDs(make([]int32, 0, len(tokens)), tokens)
}

// AppendTokenIDs appends to dst the TokenID of each of tokens, in order, and
// returns the extended slice; the dictionary is read once for the batch
// (Dictionary.AppendLookup).
func (r *Repository) AppendTokenIDs(dst []int32, tokens []string) []int32 {
	n := len(dst)
	dst = r.dict.AppendLookup(dst, tokens)
	for i := n; i < len(dst); i++ {
		if int(dst[i]) >= r.vocabN {
			dst[i] = -1
		}
	}
	return dst
}

// Stats are the dataset characteristics of Table I.
type Stats struct {
	NumSets     int
	MaxSize     int
	AvgSize     float64
	UniqueElems int
}

// Stats computes Table I's characteristics for the repository.
func (r *Repository) Stats() Stats {
	st := Stats{NumSets: len(r.sets), UniqueElems: r.vocabN}
	total := 0
	for _, s := range r.sets {
		n := len(s.ElemIDs)
		total += n
		if n > st.MaxSize {
			st.MaxSize = n
		}
	}
	if len(r.sets) > 0 {
		st.AvgSize = float64(total) / float64(len(r.sets))
	}
	return st
}
