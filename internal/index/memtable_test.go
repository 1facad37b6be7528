package index

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/sets"
)

// memRows draws n rows over a vocabulary that keeps growing: most elements
// repeat tokens earlier rows used, some are new to the dictionary, every
// seventh row is empty and every tenth has more than 64 elements.
func memRows(rng *rand.Rand, dict *sets.Dictionary, n int) []sets.Set {
	rows := make([]sets.Set, n)
	fresh := 0
	for i := range rows {
		size := 1 + rng.Intn(12)
		switch {
		case i%7 == 3:
			size = 0
		case i%10 == 9:
			size = 65 + rng.Intn(40)
		}
		elems := make([]string, size)
		for j := range elems {
			if rng.Intn(4) == 0 {
				fresh++
			}
			elems[j] = fmt.Sprintf("t%d", rng.Intn(8+fresh))
		}
		rows[i] = sets.InternSet(dict, fmt.Sprintf("row-%d", i), elems)
		rows[i].ID = i
	}
	return rows
}

// horizon is a MemView with the CSR index over the same rows.
type horizon struct {
	rows int
	view MemView
	csr  *Inverted
}

// check compares the two token by token, posting by posting, over the first
// vocab token IDs.
func (h horizon) check(vocab int) error {
	var sids, poss []int32
	for id := int32(-1); id <= int32(vocab); id++ {
		sids, poss = h.view.Postings(id, sids, poss)
		wantS, wantP := h.csr.Postings(id)
		if !slices.Equal(sids, wantS) || !slices.Equal(poss, wantP) {
			return fmt.Errorf("horizon %d rows, token %d: chain (%v, %v), CSR (%v, %v)", h.rows, id, sids, poss, wantS, wantP)
		}
	}
	return nil
}

// TestMemtableIndexMatchesCSR: after every append, the view taken at each
// earlier horizon still returns exactly the postings of a CSR index built
// over that horizon's rows.
func TestMemtableIndexMatchesCSR(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	dict := sets.NewDictionary()
	dict.Intern("t0")
	p := NewMemPostings(dict.Size())
	rows := memRows(rng, dict, 70)
	var horizons []horizon
	for i, row := range rows {
		p.Append(int32(i), row.ElemIDs)
		horizons = append(horizons, horizon{rows: i + 1, view: p.View(), csr: NewInverted(sets.SegmentOver(dict, rows[:i+1]))})
		for _, h := range horizons {
			if err := h.check(dict.Size()); err != nil {
				t.Fatalf("after row %d: %v", i, err)
			}
		}
	}
}

// TestMemtableIndexConcurrentHorizons reads old horizons while the writer
// keeps appending, through reallocations of the arena and of the token
// table. Run with -race.
func TestMemtableIndexConcurrentHorizons(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	dict := sets.NewDictionary()
	dict.Intern("t0")
	p := NewMemPostings(dict.Size())
	rows := memRows(rng, dict, 120)
	vocab := dict.Size()

	var wg sync.WaitGroup
	done := make(chan struct{})
	arenaMoves, tableMoves := 0, 0
	for i, row := range rows {
		arena, table := cap(p.entries), len(p.first)
		p.Append(int32(i), row.ElemIDs)
		if arena != 0 && cap(p.entries) != arena {
			arenaMoves++
		}
		if len(p.first) != table {
			tableMoves++
		}
		if i%8 != 0 {
			continue
		}
		h := horizon{rows: i + 1, view: p.View(), csr: NewInverted(sets.SegmentOver(dict, rows[:i+1]))}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if err := h.check(vocab); err != nil {
					t.Error(err)
					return
				}
				select {
				case <-done:
					return
				default:
				}
			}
		}()
	}
	close(done)
	wg.Wait()
	if arenaMoves < 2 || tableMoves < 1 {
		t.Fatalf("the arena moved %d times and the token table %d times; the test wants at least 2 and 1", arenaMoves, tableMoves)
	}
}
