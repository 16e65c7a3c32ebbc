// Generation-invalidated caches for the query planner.
//
// Both caches validate entries lazily with a Token captured when the entry
// was created: the engine's plan generation plus a snapshot of every
// shard's mutation counter. Retunes and hot-swaps bump the generation;
// every insert/delete bumps its shard's counter — so a stale entry is
// detected (and evicted) at lookup time, with no invalidation hook on any
// mutation path and therefore no cache lock ever taken while an engine or
// core lock is held. The token is snapshotted BEFORE the query executes:
// if a mutation lands mid-query the results may include it but the token
// will not, so a later lookup (which sees the newer counter) misses —
// conservative, never stale.
//
// Lock order: each cache's mutex (lru.mu) sits outside (above) the
// engine's lock chain; see the package comment in plan.go.
package plan

import (
	"container/list"
	"math"
	"sync"

	"repro/internal/core"
)

// Token identifies the engine state a cache entry was computed against.
type Token struct {
	// Gen is the engine's plan generation at snapshot time.
	Gen uint64
	// Muts holds each shard's mutation counter at snapshot time.
	Muts []uint64
}

// drift returns the total mutation distance between two tokens of the same
// generation, and ok=false when the tokens are incomparable (different
// generation or shard count) — incomparable always invalidates.
func (t Token) drift(o Token) (uint64, bool) {
	if t.Gen != o.Gen || len(t.Muts) != len(o.Muts) {
		return 0, false
	}
	var d uint64
	for i, m := range t.Muts {
		if m > o.Muts[i] {
			d += m - o.Muts[i]
		} else {
			d += o.Muts[i] - m
		}
	}
	return d, true
}

// fnvOffset and fnvPrime are the FNV-1a 64-bit constants.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func fnvMix(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= v & 0xFF
		h *= fnvPrime
		v >>= 8
	}
	return h
}

// ResultKey identifies one cacheable query: the exact element multiset,
// the requested range, and the option bits that change the answer.
type ResultKey struct {
	// Elems is the query set's sorted element slice. Get may alias the
	// caller's slice; Put copies.
	Elems []uint64
	// Lo, Hi is the requested similarity range.
	Lo, Hi float64
	// Flags packs answer-changing options (screening on, approximate
	// allowed).
	Flags uint64
	// Margin is the screening margin (answer-changing when screening is
	// on).
	Margin float64
}

func (k ResultKey) hash() uint64 {
	h := uint64(fnvOffset)
	for _, e := range k.Elems {
		h = fnvMix(h, e)
	}
	h = fnvMix(h, math.Float64bits(k.Lo))
	h = fnvMix(h, math.Float64bits(k.Hi))
	h = fnvMix(h, k.Flags)
	h = fnvMix(h, math.Float64bits(k.Margin))
	return h
}

func (k ResultKey) equal(o ResultKey) bool {
	if len(k.Elems) != len(o.Elems) || k.Lo != o.Lo || k.Hi != o.Hi ||
		k.Flags != o.Flags || k.Margin != o.Margin {
		return false
	}
	for i, e := range k.Elems {
		if e != o.Elems[i] {
			return false
		}
	}
	return true
}

// CachedResult is the answer stored for a result-cache hit.
type CachedResult struct {
	Matches                []core.Match
	EnclosedLo, EnclosedHi float64
}

// ResultCache is an LRU query-result cache. An entry is served only
// against exactly the state it was computed on, and values are deep-copied
// on both Put and Get so no caller ever aliases guarded memory.
type ResultCache struct{ lru[ResultKey, CachedResult] }

// NewResultCache returns a cache holding at most capacity entries
// (capacity < 1 is clamped to 1).
func NewResultCache(capacity int) *ResultCache {
	return &ResultCache{newLRU[ResultKey, CachedResult](capacity)}
}

// Get returns the cached answer for key if present AND computed against
// exactly the state tok describes. A present-but-stale entry is evicted.
func (c *ResultCache) Get(key ResultKey, tok Token) (CachedResult, bool) {
	val, ok := c.get(key, tok, 0)
	if !ok {
		return CachedResult{}, false
	}
	val.Matches = append([]core.Match(nil), val.Matches...)
	return val, true
}

// Put stores the answer for key computed against state tok, copying the
// key's elements and the matches so the cache shares no memory with the
// caller. An existing entry under the same hash is replaced.
func (c *ResultCache) Put(key ResultKey, tok Token, val CachedResult) {
	key.Elems = append([]uint64(nil), key.Elems...)
	val.Matches = append([]core.Match(nil), val.Matches...)
	c.put(key, tok, val)
}

// planBuckets is the plan-key range resolution: ranges are bucketed to
// 1/64, coarse enough that repeated similar queries share a plan, fine
// enough that selectivity within a bucket is comparable.
const planBuckets = 64

// PlanKey identifies a plan-cache slot: the bucketed range plus the
// answer-shaping option bits.
type PlanKey struct {
	LoBucket, HiBucket uint16
	Flags              uint64
}

// MakePlanKey buckets the range [lo, hi] (clamped to [0, 1]) to 1/64.
func MakePlanKey(lo, hi float64, flags uint64) PlanKey {
	return PlanKey{LoBucket: rangeBucket(lo), HiBucket: rangeBucket(hi), Flags: flags}
}

func rangeBucket(v float64) uint16 {
	if v <= 0 {
		return 0
	}
	if v >= 1 {
		return planBuckets
	}
	return uint16(v * planBuckets)
}

func (k PlanKey) hash() uint64 {
	h := uint64(fnvOffset)
	h = fnvMix(h, uint64(k.LoBucket))
	h = fnvMix(h, uint64(k.HiBucket))
	h = fnvMix(h, k.Flags)
	return h
}

// PlanCache is an LRU cache of plan Decisions keyed on bucketed ranges.
// Unlike the result cache, entries tolerate bounded mutation drift within
// the same plan generation: a few thousand inserts shift shard geometry
// too little to flip a cost comparison, while a generation bump (retune /
// hot-swap) always invalidates.
type PlanCache struct{ lru[PlanKey, Decision] }

// NewPlanCache returns a cache holding at most capacity decisions
// (capacity < 1 is clamped to 1).
func NewPlanCache(capacity int) *PlanCache {
	return &PlanCache{newLRU[PlanKey, Decision](capacity)}
}

func (k PlanKey) equal(o PlanKey) bool { return k == o }

// Get returns the cached decision for key if its token matches tok's
// generation and drifts by at most tolerance total mutations. Stale
// entries are evicted. The decision is copied; FromCache is set.
func (c *PlanCache) Get(key PlanKey, tok Token, tolerance uint64) (Decision, bool) {
	dec, ok := c.get(key, tok, tolerance)
	if !ok {
		return Decision{}, false
	}
	dec.PerShard = append([]Kind(nil), dec.PerShard...)
	dec.FromCache = true
	return dec, true
}

// Put stores the decision for key computed against state tok (copied, so
// the cache shares no memory with the caller).
func (c *PlanCache) Put(key PlanKey, tok Token, dec Decision) {
	dec.PerShard = append([]Kind(nil), dec.PerShard...)
	dec.FromCache = false
	c.put(key, tok, dec)
}

// lru is the LRU both caches are built on. One slot per 64-bit key hash:
// a hash collision between different keys behaves as a miss (get) or a
// replacement (put) — deterministic and vanishingly rare. All state is
// guarded by mu. Callers hand put values they no longer share and copy
// what get returns before handing it out; a stored value is never
// written in place, only replaced.
type lru[K lruKey[K], V any] struct {
	mu     sync.Mutex
	cap    int
	order  *list.List
	byHash map[uint64]*list.Element
}

// lruKey is what a cache key provides: its slot hash and exact equality.
type lruKey[K any] interface {
	hash() uint64
	equal(K) bool
}

type lruEntry[K, V any] struct {
	hash uint64
	key  K
	tok  Token
	val  V
}

func newLRU[K lruKey[K], V any](capacity int) lru[K, V] {
	if capacity < 1 {
		capacity = 1
	}
	return lru[K, V]{cap: capacity, order: list.New(), byHash: make(map[uint64]*list.Element)}
}

// get returns the value stored for key if its token is of tok's
// generation and shard count and drifts from tok by at most tolerance
// total mutations. A present entry that fails the test is evicted.
func (c *lru[K, V]) get(key K, tok Token, tolerance uint64) (V, bool) {
	var zero V
	h := key.hash()
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byHash[h]
	if !ok {
		return zero, false
	}
	e := el.Value.(*lruEntry[K, V])
	if !e.key.equal(key) {
		return zero, false
	}
	if d, comparable := e.tok.drift(tok); !comparable || d > tolerance {
		c.order.Remove(el)
		delete(c.byHash, h)
		return zero, false
	}
	c.order.MoveToFront(el)
	return e.val, true
}

// put stores val for key against a copy of tok, replacing an entry under
// the same hash, and evicts the least recently used beyond capacity.
func (c *lru[K, V]) put(key K, tok Token, val V) {
	h := key.hash()
	stored := lruEntry[K, V]{hash: h, key: key, tok: Token{Gen: tok.Gen, Muts: append([]uint64(nil), tok.Muts...)}, val: val}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byHash[h]; ok {
		*el.Value.(*lruEntry[K, V]) = stored
		c.order.MoveToFront(el)
		return
	}
	c.byHash[h] = c.order.PushFront(&stored)
	for c.order.Len() > c.cap {
		back := c.order.Back()
		c.order.Remove(back)
		delete(c.byHash, back.Value.(*lruEntry[K, V]).hash)
	}
}

// Len returns the number of live entries (for tests).
func (c *lru[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}
