package sets

import (
	"fmt"
	"sync"
)

// Dictionary is the shared, append-only token dictionary of a segmented
// repository (DESIGN.md §4): every distinct element across all segments is
// interned exactly once as a dense int32 token ID in first-intern order.
// Token IDs are never reused or reassigned, so a segment built when the
// dictionary held n tokens stays valid forever — tokens interned later
// simply have IDs ≥ n, which that segment's CSR treats as out of
// vocabulary.
//
// A Dictionary is safe for concurrent use. Reads (Lookup, Prefix, Snapshot)
// take the read lock only long enough to copy a slice header or probe the
// map; the returned views are immutable because the vocabulary's backing
// array is append-only — a writer appends at positions ≥ n while readers
// only index positions < n of a header captured under the lock.
type Dictionary struct {
	mu    sync.RWMutex
	vocab []string
	ids   map[string]int32
}

// NewDictionary returns an empty dictionary.
func NewDictionary() *Dictionary {
	return &Dictionary{ids: make(map[string]int32)}
}

// NewDictionaryFromTokens rebuilds a dictionary from a persisted vocabulary:
// tokens in ID order, as returned by Snapshot. Duplicate tokens mean the
// vocabulary file is corrupt (IDs would be ambiguous) and are rejected.
func NewDictionaryFromTokens(tokens []string) (*Dictionary, error) {
	d := &Dictionary{
		vocab: append([]string(nil), tokens...),
		ids:   make(map[string]int32, len(tokens)),
	}
	for i, tok := range tokens {
		if prev, ok := d.ids[tok]; ok {
			return nil, fmt.Errorf("sets: corrupt vocabulary: token %q appears at IDs %d and %d", tok, prev, i)
		}
		d.ids[tok] = int32(i)
	}
	return d, nil
}

// Intern returns the ID of tok, assigning the next dense ID when tok is new.
func (d *Dictionary) Intern(tok string) int32 {
	d.mu.Lock()
	defer d.mu.Unlock()
	if id, ok := d.ids[tok]; ok {
		return id
	}
	id := int32(len(d.vocab))
	d.ids[tok] = id
	d.vocab = append(d.vocab, tok)
	return id
}

// Lookup returns the ID of tok, or -1 when tok was never interned.
func (d *Dictionary) Lookup(tok string) int32 {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if id, ok := d.ids[tok]; ok {
		return id
	}
	return -1
}

// AppendLookup appends to dst the ID of each of toks, in order, -1 for a
// token never interned, and returns the extended slice: Lookup for a batch
// under one read lock, so concurrent readers of one query's tokens do not
// take the lock's reader count back and forth per token.
func (d *Dictionary) AppendLookup(dst []int32, toks []string) []int32 {
	d.mu.RLock()
	defer d.mu.RUnlock()
	for _, tok := range toks {
		id, ok := d.ids[tok]
		if !ok {
			id = -1
		}
		dst = append(dst, id)
	}
	return dst
}

// Size returns the number of interned tokens (the current token ID space).
func (d *Dictionary) Size() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.vocab)
}

// Prefix returns the first n tokens in ID order — the immutable vocabulary
// view of a segment built when the dictionary held n tokens. Callers must
// not mutate the result. n is clamped to the current size.
func (d *Dictionary) Prefix(n int) []string {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if n > len(d.vocab) {
		n = len(d.vocab)
	}
	return d.vocab[:n:n]
}

// Snapshot returns the full current vocabulary in ID order. Callers must
// not mutate the result; the view is immutable even under concurrent
// Intern calls (append-only backing array).
func (d *Dictionary) Snapshot() []string {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.vocab[:len(d.vocab):len(d.vocab)]
}
