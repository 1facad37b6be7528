package sim

import (
	"math"
	"sync"
	"sync/atomic"
)

// PairCache is a bounded, lock-free direct-mapped table of token-pair
// similarities keyed by interned token IDs. Nothing in the search path uses
// it any more (DESIGN.md §9 records why); the type survives only because the
// repository benchmark times a probe into it (sim.cache_lookup_ns) and that
// benchmark cannot change in the same PR as the code it measures.
//
// A slot stores the value bits and a check word (key XOR value bits) in the
// lockless-transposition-table style: a torn read fails the check and reads
// as a miss, so no lock is needed. Collisions overwrite. Keys are
// order-normalized, so (a,b) and (b,a) share a slot.
type PairCache struct {
	// The slot table is allocated on the first Put; a nil table reads as
	// all misses.
	slots atomic.Pointer[[]pairSlot]
	n     int
	mask  uint64
	init  sync.Mutex
}

// pairSlot holds value bits and key^value. The zero slot reconstructs key
// 0, which no real pair produces (key 0 would mean the pair (0,0), and a
// token is never paired with itself).
type pairSlot struct {
	check atomic.Uint64
	val   atomic.Uint64
}

// DefaultPairCacheSize is the slot budget used when a caller asks for a
// cache without choosing a size (16 MiB of slots).
const DefaultPairCacheSize = 1 << 20

// NewPairCache returns a cache with capacity slots, rounded up to a power
// of two (capacity <= 0 selects DefaultPairCacheSize).
func NewPairCache(capacity int) *PairCache {
	if capacity <= 0 {
		capacity = DefaultPairCacheSize
	}
	n := 1
	for n < capacity {
		n <<= 1
	}
	return &PairCache{n: n, mask: uint64(n - 1)}
}

// table returns the slot table, allocating it on first use. The double-
// checked lock keeps concurrent first Puts from racing two tables into
// place; after that the cost is one atomic pointer load.
func (c *PairCache) table() *[]pairSlot {
	if t := c.slots.Load(); t != nil {
		return t
	}
	c.init.Lock()
	defer c.init.Unlock()
	if t := c.slots.Load(); t != nil {
		return t
	}
	t := make([]pairSlot, c.n)
	c.slots.Store(&t)
	return &t
}

// pairKey packs the order-normalized ID pair into one uint64.
func pairKey(a, b int32) uint64 {
	if a > b {
		a, b = b, a
	}
	return uint64(uint32(a))<<32 | uint64(uint32(b))
}

// slotIndex mixes the key so dense dictionary IDs spread over the table.
func (c *PairCache) slotIndex(key uint64) uint64 {
	h := key * 0x9e3779b97f4a7c15
	h ^= h >> 29
	return h & c.mask
}

// Lookup returns the cached similarity of the token pair (a, b) and whether
// it was present.
func (c *PairCache) Lookup(a, b int32) (float64, bool) {
	t := c.slots.Load()
	if t == nil {
		return 0, false
	}
	key := pairKey(a, b)
	sl := &(*t)[c.slotIndex(key)]
	check := sl.check.Load()
	val := sl.val.Load()
	if check^val != key {
		return 0, false
	}
	return math.Float64frombits(val), true
}

// Put stores the similarity of the token pair (a, b), overwriting whatever
// pair hashed to the same slot.
func (c *PairCache) Put(a, b int32, v float64) {
	key := pairKey(a, b)
	sl := &(*c.table())[c.slotIndex(key)]
	bits := math.Float64bits(v)
	sl.val.Store(bits)
	sl.check.Store(key ^ bits)
}
