package sim

import (
	"math"
	"sync"
	"testing"
)

func TestPairCacheRoundTrip(t *testing.T) {
	c := NewPairCache(1024)
	if _, ok := c.Lookup(1, 2); ok {
		t.Fatal("empty cache reported a hit")
	}
	c.Put(1, 2, 0.75)
	got, ok := c.Lookup(1, 2)
	if !ok || got != 0.75 {
		t.Fatalf("Lookup(1,2) = %v, %v; want 0.75, true", got, ok)
	}
	// Symmetric keys share the entry (Def. 1 similarity is symmetric).
	got, ok = c.Lookup(2, 1)
	if !ok || got != 0.75 {
		t.Fatalf("Lookup(2,1) = %v, %v; want 0.75, true", got, ok)
	}
	// Values round-trip bit-for-bit, including 0 and subnormal corners.
	for _, v := range []float64{0, 1, 0.1 + 0.2, math.SmallestNonzeroFloat64} {
		c.Put(3, 4, v)
		if got, ok := c.Lookup(3, 4); !ok || math.Float64bits(got) != math.Float64bits(v) {
			t.Fatalf("value %v did not round-trip bit-identically (got %v)", v, got)
		}
	}
}

func TestPairCacheBoundedEviction(t *testing.T) {
	// A tiny cache overwritten with many distinct pairs must stay at its
	// slot budget, and whatever survives must still read back correctly.
	c := NewPairCache(16)
	for i := int32(0); i < 1000; i++ {
		c.Put(i, i+1, float64(i))
	}
	hits := 0
	for i := int32(0); i < 1000; i++ {
		if v, ok := c.Lookup(i, i+1); ok {
			hits++
			if v != float64(i) {
				t.Fatalf("pair (%d,%d) read back %v, want %v", i, i+1, v, float64(i))
			}
		}
	}
	if hits == 0 || hits > 16 {
		t.Fatalf("%d surviving entries after eviction churn, want 1..16", hits)
	}
}

func TestPairCacheConcurrent(t *testing.T) {
	// Concurrent readers and writers over overlapping keys: every hit must
	// return the exact value some Put stored for that key (the XOR check
	// word turns torn reads into misses, never into wrong values).
	c := NewPairCache(256)
	value := func(a, b int32) float64 { return float64(pairKey(a, b)) }
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 2000; round++ {
				a := int32((g*31 + round) % 97)
				b := a + 1 + int32(round%13)
				if v, ok := c.Lookup(a, b); ok && v != value(a, b) {
					panic("cache returned a value from a different key")
				}
				c.Put(a, b, value(a, b))
			}
		}(g)
	}
	wg.Wait()
}
