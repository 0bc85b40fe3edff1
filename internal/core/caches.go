package core

import (
	"sync"
	"sync/atomic"
)

// cacheShards is the shard count of every concurrent cache in the
// evaluator. A power of two so shard selection is a mask.
const cacheShards = 64

// rep is the interned representation of one partition's score
// distribution: a dense handle plus the payload the configured mode
// compares — the normalized PMF in binned mode, the sorted score sample
// in Exact mode. Reps are immutable once published.
type rep struct {
	id   uint32
	data []float64
	// qcdf is the fixed-point quantized CDF of data, filled at intern time
	// in binned EMD mode so the bound kernels never touch float payloads.
	// Nil in Exact mode and under non-EMD metrics; immutable once
	// published like the rest of the rep.
	qcdf []int64
}

// repCache interns partition representations behind dense handles. Two
// keyed layers share one handle space:
//
//   - a string layer for arbitrary partitions, keyed by the canonical
//     constraint key (Partition.Key), used by the public entry points;
//   - an integer layer for children derived by the scatter-split path,
//     keyed by (parent handle, attribute, value) — which fully determines
//     the child's content — so probe loops never build string keys.
//
// Both layers are sharded so concurrent candidate probes do not
// serialize on a single mutex (the old evaluator's single map+mutex made
// the parallel path bypass the cache entirely).
type repCache struct {
	next atomic.Uint32 // dense handles handed out so far
	// quant, when non-nil, derives a rep's fixed-point quantized CDF from
	// its payload at intern time. It is set once, before any intern, by
	// binned-EMD evaluators; reps published while it is set carry a
	// non-nil qcdf.
	quant   func([]float64) []int64
	byKey   [cacheShards]repKeyShard
	byChild [cacheShards]repChildShard
}

type repKeyShard struct {
	mu sync.RWMutex
	m  map[string]*rep
}

type repChildShard struct {
	mu sync.RWMutex
	m  map[uint64]*rep
}

func newRepCache() *repCache {
	c := &repCache{}
	for i := range c.byKey {
		c.byKey[i].m = make(map[string]*rep)
	}
	for i := range c.byChild {
		c.byChild[i].m = make(map[uint64]*rep)
	}
	return c
}

// fnv1a hashes a string for shard selection.
func fnv1a(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// mix spreads an integer key across shards (Fibonacci hashing).
func mix(k uint64) uint64 { return k * 0x9E3779B97F4A7C15 }

// internKey returns the rep interned under the canonical partition key,
// building its payload at most once per content via build.
func (c *repCache) internKey(key string, build func() []float64) *rep {
	s := &c.byKey[fnv1a(key)&(cacheShards-1)]
	s.mu.RLock()
	r, ok := s.m[key]
	s.mu.RUnlock()
	if ok {
		return r
	}
	data := build()
	var q []int64
	if c.quant != nil {
		q = c.quant(data)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if r, ok := s.m[key]; ok {
		return r
	}
	r = &rep{id: c.next.Add(1) - 1, data: data, qcdf: q}
	s.m[key] = r
	return r
}

// childKey packs a scatter-split child identity. Attribute indices and
// value codes are both far below 16 bits (codes are uint16 in the
// dataset), so the triple fits one word.
func childKey(parent uint32, attr, value int) uint64 {
	return uint64(parent)<<32 | uint64(attr)<<16 | uint64(value)
}

// lookupChild returns the interned rep of a scatter-split child, if any.
func (c *repCache) lookupChild(key uint64) (*rep, bool) {
	s := &c.byChild[mix(key)&(cacheShards-1)]
	s.mu.RLock()
	r, ok := s.m[key]
	s.mu.RUnlock()
	return r, ok
}

// internChild publishes a scatter-split child rep, keeping the first
// writer's rep on a race so handles stay stable.
func (c *repCache) internChild(key uint64, data []float64) *rep {
	var q []int64
	if c.quant != nil {
		q = c.quant(data)
	}
	s := &c.byChild[mix(key)&(cacheShards-1)]
	s.mu.Lock()
	defer s.mu.Unlock()
	if r, ok := s.m[key]; ok {
		return r
	}
	r := &rep{id: c.next.Add(1) - 1, data: data, qcdf: q}
	s.m[key] = r
	return r
}

// count reports how many distinct representations were materialized.
func (c *repCache) count() int { return int(c.next.Load()) }

// shardLens reports the per-shard occupancy of both keyed layers
// combined: shardLens()[i] is how many interned reps shard i holds.
func (c *repCache) shardLens() []int {
	out := make([]int, cacheShards)
	for i := range out {
		c.byKey[i].mu.RLock()
		n := len(c.byKey[i].m)
		c.byKey[i].mu.RUnlock()
		c.byChild[i].mu.RLock()
		n += len(c.byChild[i].m)
		c.byChild[i].mu.RUnlock()
		out[i] = n
	}
	return out
}

// pairCache caches distances between interned representations, keyed by
// the packed ordered handle pair, sharded like repCache. misses counts
// every distance actually computed by the evaluator — including ones the
// incremental engine resolves into probe-local matrices without storing
// here — so CacheStats reflects real work done. hits counts lookups
// served from the cache; the session layer reports the delta of both as
// per-run stats.
type pairCache struct {
	misses atomic.Int64
	hits   atomic.Int64
	shards [cacheShards]pairShard
}

type pairShard struct {
	mu sync.Mutex
	m  map[uint64]float64
}

func newPairCache() *pairCache {
	c := &pairCache{}
	for i := range c.shards {
		c.shards[i].m = make(map[uint64]float64)
	}
	return c
}

func (c *pairCache) get(key uint64) (float64, bool) {
	s := &c.shards[mix(key)&(cacheShards-1)]
	s.mu.Lock()
	d, ok := s.m[key]
	s.mu.Unlock()
	if ok {
		c.hits.Add(1)
	}
	return d, ok
}

func (c *pairCache) put(key uint64, d float64) {
	s := &c.shards[mix(key)&(cacheShards-1)]
	s.mu.Lock()
	s.m[key] = d
	s.mu.Unlock()
}

func (c *pairCache) len() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += len(s.m)
		s.mu.Unlock()
	}
	return n
}

// shardLens reports per-shard occupancy: shardLens()[i] is how many
// cached distances shard i holds — the distribution (not just the
// aggregate) is what reveals a bad hash or a hot shard.
func (c *pairCache) shardLens() []int {
	out := make([]int, cacheShards)
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		out[i] = len(s.m)
		s.mu.Unlock()
	}
	return out
}
