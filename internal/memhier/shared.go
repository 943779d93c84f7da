package memhier

import (
	"fmt"
	"math/bits"
	"sync"
)

// SharedCache is a thread-safe last-level cache shared by several cores'
// Hierarchies — the Machine's L3, standing in for the paper's socket-wide
// LLC the way the private Hierarchy stands in for a per-core slice. Sets
// are distributed over independently locked shards (shard = low bits of
// the line number), so concurrent cores contend only when they touch the
// same shard, and the non-sampled fast path stays allocation-free: an
// access is one mutex acquisition plus the same packed-slab probe/fill the
// private levels use.
//
// Sharding is behaviour-preserving: every line maps to exactly one shard,
// replacement decisions only ever compare ways within one set, and each
// shard's LRU clock orders its own touches exactly as the global clock of
// an unsharded cache would. A single-core Machine therefore produces
// byte-identical results to a private L3 of the same geometry.
type SharedCache struct {
	cfg       LevelConfig
	shards    []l3shard
	shardBits uint
	shardMask uint64
	lineShift uint
	maxLine   uint64 // first line address the packed tags cannot represent
	// router, when set, receives every dirty eviction out of the cache
	// (DRAM absorbs last-level writebacks; the NUMA layer attributes them
	// to the evicted line's home memory node).
	router DRAMRouter
}

// l3shard is one independently locked slice of the shared cache: a full
// packed cache covering every set whose index has the shard's low bits.
type l3shard struct {
	mu sync.Mutex
	c  *cache
}

// defaultShards is the shard count target: enough that the handful of
// simulated cores rarely collide, small enough that per-shard sets stay
// numerous (the default 2048-set L3 gets 32 sets per shard).
const defaultShards = 64

// NewSharedCache builds a shared last-level cache of the given geometry.
// shardCount must be a power of two no larger than the set count; 0 picks
// a default.
func NewSharedCache(lc LevelConfig, shardCount int) (*SharedCache, error) {
	// Validate the full geometry once (also computes set count bounds).
	probe, err := newCache(lc)
	if err != nil {
		return nil, err
	}
	nsets := int(probe.setMask) + 1
	if shardCount == 0 {
		shardCount = defaultShards
		for shardCount > nsets {
			shardCount >>= 1
		}
	}
	if shardCount <= 0 || bits.OnesCount(uint(shardCount)) != 1 {
		return nil, fmt.Errorf("memhier: shard count %d not a power of two", shardCount)
	}
	if shardCount > nsets {
		return nil, fmt.Errorf("memhier: %d shards exceed %d sets", shardCount, nsets)
	}
	s := &SharedCache{
		cfg:       lc,
		shards:    make([]l3shard, shardCount),
		shardBits: uint(bits.TrailingZeros(uint(shardCount))),
		shardMask: uint64(shardCount - 1),
		lineShift: probe.lineShift,
		// The shard selector consumes shardBits of the line number before
		// the per-shard set/tag split, so the representable range matches
		// the unsharded cache exactly.
		maxLine: probe.maxLineOf(),
	}
	shardCfg := lc
	shardCfg.Size = lc.Size / shardCount
	for i := range s.shards {
		c, err := newCache(shardCfg)
		if err != nil {
			return nil, err
		}
		s.shards[i].c = c
	}
	return s, nil
}

// Config returns the cache geometry.
func (s *SharedCache) Config() LevelConfig { return s.cfg }

// SetDRAMRouter attaches the NUMA layer's router for writeback
// attribution. This is the socket's router — a per-socket SharedCache is
// the L3 of exactly one socket.
func (s *SharedCache) SetDRAMRouter(r DRAMRouter) { s.router = r }

// locate maps a line address to its shard, the shard index and the
// shard-local line address: the shard selector bits are dropped from the
// line number, which is a bijection within the shard, so the shard's
// ordinary set/tag split applies.
func (s *SharedCache) locate(lineAddr uint64) (*l3shard, uint64, uint64) {
	line := lineAddr >> s.lineShift
	idx := line & s.shardMask
	return &s.shards[idx], idx, (line >> s.shardBits) << s.lineShift
}

// globalAddr inverts locate for an evicted shard-local line address: the
// shard selector bits slot back under the shard-local line number.
func (s *SharedCache) globalAddr(localAddr, shardIdx uint64) uint64 {
	return ((localAddr>>s.lineShift)<<s.shardBits | shardIdx) << s.lineShift
}

// routeWriteback hands a dirty eviction to the router (outside the shard
// lock; the router has its own synchronization and the evicted address is
// a value, so no shard state is touched).
func (s *SharedCache) routeWriteback(localAddr, shardIdx uint64) {
	if s.router != nil {
		s.router.RouteWriteback(s.globalAddr(localAddr, shardIdx))
	}
}

// access is the demand path: probe, and on a miss immediately fill the
// line (clean — dirtiness lives in L1 under write-allocate), all under the
// shard lock so the fill hint cannot go stale. Dirty victims are counted
// as writebacks and dropped, as for any last level (DRAM absorbs them).
func (s *SharedCache) access(lineAddr uint64) (hit, wasPref bool) {
	sh, idx, local := s.locate(lineAddr)
	sh.mu.Lock()
	var ph probeHint
	hit, wasPref = sh.c.probe(local, false, &ph)
	var evDirty bool
	var evAddr uint64
	if !hit {
		evDirty, evAddr = sh.c.fill(local, &ph, false)
	}
	sh.mu.Unlock()
	if evDirty {
		s.routeWriteback(evAddr, idx)
	}
	return hit, wasPref
}

// installDirty merges a dirty line evicted from a faster private level
// (write-back traffic), refreshing it if present.
func (s *SharedCache) installDirty(lineAddr uint64) {
	sh, idx, local := s.locate(lineAddr)
	sh.mu.Lock()
	evDirty, evAddr := sh.c.install(local, true, false)
	sh.mu.Unlock()
	if evDirty {
		s.routeWriteback(evAddr, idx)
	}
}

// prefetchInstall installs the line with the prefetch flag unless present.
func (s *SharedCache) prefetchInstall(lineAddr uint64) {
	sh, idx, local := s.locate(lineAddr)
	sh.mu.Lock()
	present, evDirty, evAddr := sh.c.prefetchInstall(local)
	if !present {
		sh.c.stats.Prefetches++
	}
	sh.mu.Unlock()
	if evDirty {
		s.routeWriteback(evAddr, idx)
	}
}

// contains reports (without replacement side effects) whether the line is
// cached.
func (s *SharedCache) contains(lineAddr uint64) bool {
	sh, _, local := s.locate(lineAddr)
	sh.mu.Lock()
	ok := sh.c.contains(local)
	sh.mu.Unlock()
	return ok
}

// Stats sums the per-shard counters. Accesses and Hits are zero here: the
// shared cache does not know which core's L2 miss reached it; the per-core
// Hierarchy.LevelStats derives them from its own counters.
func (s *SharedCache) Stats() LevelStats {
	var out LevelStats
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		st := sh.c.stats
		sh.mu.Unlock()
		out.Misses += st.Misses
		out.Writebacks += st.Writebacks
		out.Prefetches += st.Prefetches
		out.PrefHits += st.PrefHits
	}
	return out
}
