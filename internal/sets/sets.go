// Package sets defines the set repository Koios searches over: set storage
// with distinct string elements, vocabulary extraction and the cardinality
// statistics reported in Table I of the paper.
package sets

import (
	"fmt"
)

// Set is a named collection of distinct string elements.
type Set struct {
	// ID is the set's position in its repository; assigned by NewRepository.
	ID int
	// Name is an external identifier (e.g. "table:column" or a tweet id).
	Name string
	// Elements are the distinct tokens of the set.
	Elements []string
	// ElemIDs are the interned token IDs of Elements, position for position;
	// assigned by NewRepository. The query hot path (CSR postings, edge
	// cache, verification matrices) runs entirely on these IDs.
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
// segment-local positions.
func NewSegment(dict *Dictionary, raw []Set) *Repository {
	rows := make([]Set, len(raw))
	for i, s := range raw {
		rows[i] = InternSet(dict, s.Name, s.Elements)
	}
	return segmentOf(dict, rows)
}

// InternSet returns the repository row of a raw set: elements de-duplicated
// (preserving first occurrence) and interned into dict. The row's slices are
// never written again, so any number of segments may share them.
func InternSet(dict *Dictionary, name string, elements []string) Set {
	elems := Dedup(elements)
	ids := make([]int32, len(elems))
	for j, e := range elems {
		ids[j] = dict.Intern(e)
	}
	return Set{Name: name, Elements: elems, ElemIDs: ids}
}

// SegmentOver wraps rows InternSet produced against dict as a segment,
// without copying them: rows[i].ID must already be i and every name set, and
// the rows must never be written again. The caller may keep appending to the
// slice's backing array past len(rows) — the segment manager's memtable hands
// each snapshot a longer prefix of one growing slice (DESIGN.md §4). The
// dictionary size at the call is the segment's vocabulary horizon.
func SegmentOver(dict *Dictionary, rows []Set) *Repository {
	return &Repository{sets: rows, dict: dict, vocabN: dict.Size()}
}

// segmentOf takes ownership of interned rows, assigning positions as IDs
// and default names.
func segmentOf(dict *Dictionary, rows []Set) *Repository {
	for i := range rows {
		rows[i].ID = i
		if rows[i].Name == "" {
			rows[i].Name = fmt.Sprintf("set-%d", i)
		}
	}
	return &Repository{sets: rows, dict: dict, vocabN: dict.Size()}
}

// NewMappedSegment rebuilds a segment over borrowed CSR storage: rowOffs
// and elemIDs come straight from a mapped v2 segment snapshot (DESIGN.md
// §13) and are aliased, not copied — each set's ElemIDs is a subslice of
// elemIDs, so opening the segment allocates O(rows) set headers instead of
// O(elements) decoded data. Element strings are NOT materialized; callers
// needing them use Repository.Elements, which resolves lazily through the
// shared dictionary. names must be heap-owned strings (the segment layer
// materializes them from the mapping), because set names outlive the
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
// resolving them through the dictionary on demand for mapped segments
// (whose sets carry only ElemIDs). The returned strings are heap-owned
// dictionary tokens, safe to retain past the segment's life. Eagerly
// built repositories return their materialized slice unchanged.
func (r *Repository) Elements(id int) []string {
	s := &r.sets[id]
	if s.Elements != nil || len(s.ElemIDs) == 0 {
		return s.Elements
	}
	out := make([]string, len(s.ElemIDs))
	for j, tid := range s.ElemIDs {
		out[j] = r.dict.Token(tid)
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

// Set returns the set with the given ID.
func (r *Repository) Set(id int) Set { return r.sets[id] }

// Sets returns all sets. Callers must not mutate the result.
func (r *Repository) Sets() []Set { return r.sets }

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
	out := make([]int32, len(tokens))
	for i, tok := range tokens {
		out[i] = r.TokenID(tok)
	}
	return out
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
		n := len(s.ElemIDs) // == len(s.Elements) eager, sole source mapped
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
