// Package memhier simulates a multi-level write-back cache hierarchy plus
// DRAM. It is the substitute for the Intel Xeon memory system of the paper's
// Jureca testbed: every simulated memory instruction is routed through the
// hierarchy, which reports the *data source* (the level that served the
// line) and the *access cost* (latency in cycles) — exactly the two fields
// the PEBS hardware records for a sampled memory operation.
//
// The model is a set-associative, LRU, write-back/write-allocate hierarchy
// with inclusive fills and an optional next-line prefetcher. It is a
// functional (not timing-accurate) model: latencies are fixed per level,
// which is sufficient because the paper's analysis consumes the *relative*
// distribution of sources and costs, not absolute machine timings.
package memhier

import (
	"encoding/binary"
	"fmt"
	"math/bits"
)

// DataSource identifies the memory-hierarchy level that served an access.
// It mirrors the PEBS "data source" encoding at the granularity the paper
// uses (L1, L2, L3, local DRAM, remote-socket DRAM).
type DataSource int

const (
	// SrcL1 means the access hit in the first-level data cache.
	SrcL1 DataSource = iota
	// SrcL2 means the line was served by the second-level cache.
	SrcL2
	// SrcL3 means the line was served by the last-level cache.
	SrcL3
	// SrcDRAM means the line came from the socket's own (local) memory
	// controller — or from the flat DRAM of a non-NUMA hierarchy.
	SrcDRAM
	// SrcDRAMRemote means the line crossed the socket interconnect: its
	// home memory node belongs to another socket. Only hierarchies routed
	// through a multi-node DRAMRouter produce it; everywhere else the
	// encoding is exactly the historical 4-value one.
	SrcDRAMRemote
)

// String returns the conventional level name.
func (s DataSource) String() string {
	switch s {
	case SrcL1:
		return "L1"
	case SrcL2:
		return "L2"
	case SrcL3:
		return "L3"
	case SrcDRAM:
		return "DRAM"
	case SrcDRAMRemote:
		return "RemoteDRAM"
	}
	return fmt.Sprintf("DataSource(%d)", int(s))
}

// NumSources is the number of distinct DataSource values.
const NumSources = 5

// MaxCacheLevels is the deepest supported hierarchy: DataSource (and the
// PMU's per-source miss counters) encode exactly L1..L3 plus the two DRAM
// classes; a deeper hierarchy would have no meaningful source labels.
const MaxCacheLevels = 3

// LevelConfig describes one cache level.
type LevelConfig struct {
	// Name is a label used in reports ("L1D", "L2", ...).
	Name string
	// Size is the total capacity in bytes; must be a power of two multiple
	// of LineSize*Assoc.
	Size int
	// LineSize is the cache-line size in bytes (power of two).
	LineSize int
	// Assoc is the set associativity (ways per set).
	Assoc int
	// HitLatency is the access cost in cycles when this level serves data.
	HitLatency uint64
}

// Config describes the whole hierarchy.
type Config struct {
	// Levels lists the cache levels from closest (L1) to farthest (LLC).
	Levels []LevelConfig
	// DRAMLatency is the access cost in cycles when no level holds the line
	// (the local-socket fill cost under NUMA routing).
	DRAMLatency uint64
	// RemoteDRAMLatency is the fill cost when a multi-node DRAMRouter
	// resolves the line to another socket's memory node. 0 falls back to
	// DRAMLatency (no interconnect penalty); nonzero values must not be
	// below DRAMLatency.
	RemoteDRAMLatency uint64
	// NextLinePrefetch enables a simple next-line prefetcher: on an L1 miss
	// the successor line is installed into L2 (and below), modelling the
	// hardware streamer that makes linear sweeps cheap.
	NextLinePrefetch bool
}

// DefaultConfig returns a Haswell-like single-core slice: 32 KiB 8-way L1D,
// 256 KiB 8-way L2, 2.5 MiB 20-way L3 slice, 64-byte lines; latencies
// 4/12/36/230 cycles. These mirror the Xeon E5-2680 v3 nodes of Jureca at
// per-core L3 granularity.
func DefaultConfig() Config {
	return Config{
		Levels: []LevelConfig{
			{Name: "L1D", Size: 32 << 10, LineSize: 64, Assoc: 8, HitLatency: 4},
			{Name: "L2", Size: 256 << 10, LineSize: 64, Assoc: 8, HitLatency: 12},
			{Name: "L3", Size: 2560 << 10, LineSize: 64, Assoc: 20, HitLatency: 36},
		},
		DRAMLatency:      230,
		NextLinePrefetch: true,
	}
}

// LevelStats aggregates per-level counters.
type LevelStats struct {
	Accesses   uint64 // lookups that reached this level
	Hits       uint64
	Misses     uint64
	Writebacks uint64 // dirty evictions out of this level
	Prefetches uint64 // lines installed by the prefetcher
	PrefHits   uint64 // demand hits on prefetched lines
}

// MissRatio returns Misses/Accesses (0 when idle).
func (s LevelStats) MissRatio() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

// AccessResult describes the outcome of one memory access.
type AccessResult struct {
	// Source is the level that served the data.
	Source DataSource
	// Latency is the access cost in cycles.
	Latency uint64
	// LineAddr is the address of the cache line containing the access.
	LineAddr uint64
	// Prefetched reports whether the hit landed on a prefetched line.
	Prefetched bool
}

// Packed line encoding. Each way is ONE 8-byte word in a flat per-level
// slab, so a whole set is a short streak of loads over one or two host
// cache lines; lookups additionally go through a one-byte-per-way
// partial-tag signature filter (see cache.sigs) so most probes verify at
// most one slab word. Valid ways form a prefix of the set (lines are never
// invalidated outside Reset), tracked by a per-set occupancy count, so
// free-way discovery is the occupancy itself.
//
//	bits 0..2   flags (valid, dirty, prefetched)
//	bits 3..22  reserved (zero; the LRU state lives outside the slab)
//	bits 23..63 set-relative tag (41 bits)
//
// LRU recency is tracked by one of two equivalent policies, chosen per
// level at construction:
//
//   - assoc ≤ 8: a per-set 8×8 bit matrix packed in a uint64 (bit 8i+j set
//     ⇒ way i touched more recently than way j). A touch sets row i and
//     clears column i (~4 ALU ops); the LRU victim is the unique all-zero
//     row among the valid ways, found with a zero-byte scan — O(1), no
//     second pass over the set.
//   - assoc > 8: a 20-bit tick per way, stamped on every touch; the victim
//     is the branchless min of tick<<7|way over the set, computed only
//     when an eviction is actually needed. The ticks live in a dedicated
//     packed side array (three 21-bit fields per word, one cache-line-ish
//     56-byte strip per 20-way set) rather than in the slab words: the
//     victim scan then reads ~1 host cache line instead of the set's
//     160-byte slab strip, recency restamps on hits stop dirtying slab
//     lines, and a miss probe (signature scan, then victim pick) touches
//     no slab words at all. The tick wraps roughly every million touches;
//     tickNext renormalizes all ticks to their per-set recency ranks
//     before that happens.
//
// Both policies order ways by last touch, i.e. both are exact LRU; they
// pick identical victims.
const (
	entValid = 1 << 0
	entDirty = 1 << 1
	entPref  = 1 << 2 // installed by prefetcher, not yet demand-hit

	lruShift = 3
	lruBits  = 20
	lruMax   = 1<<lruBits - 1

	tagShift = lruShift + lruBits
	tagBits  = 64 - tagShift

	// Packed tick layout: three 21-bit fields per uint64 of the ticks array.
	tickFieldBits = 21
	tickFieldMask = 1<<tickFieldBits - 1
	ticksPerWord  = 3

	// matchMask strips the reserved bits and the mutable flags, keeping
	// tag|valid — the fields a resident line must match.
	matchMask = ^uint64(uint64(lruMax)<<lruShift | entDirty | entPref)

	// victimShift packs an LRU tick with a way index (assoc is validated to
	// fit in 7 bits) so tick-policy victim selection is a branchless min.
	victimShift = 7

	// matMaxAssoc is the widest set the matrix-LRU policy covers (8 rows of
	// a uint64).
	matMaxAssoc = 8

	oneBytes  = 0x0101010101010101
	highBytes = 0x8080808080808080
)

type cache struct {
	cfg  LevelConfig
	slab []uint64 // nsets*assoc packed tag|lru|flags words
	occ  []uint8  // per-set count of valid ways (valid ways form a prefix)
	// sigs holds one partial-tag byte per way (tag's low 8 bits), sets
	// padded to whole 8-byte words. A probe compares a whole set's
	// signatures against the wanted tag byte in one or three XOR+zero-byte
	// steps and verifies only candidate ways in the slab — an L1/L2 miss
	// usually touches no slab words at all, a hit exactly one. False
	// positives (1/256 per way) cost one extra verify; the slab compare
	// stays authoritative.
	sigs      []byte
	sigStride int      // bytes of sigs per set (assoc rounded up to 8)
	mats      []uint64 // per-set recency matrices (assoc <= 8); nil selects the tick policy
	matRow    uint64   // low-assoc column bits a touch sets in its row
	matPad    uint64   // bytes >= assoc forced non-zero in the victim search
	// ticks holds the tick policy's packed per-way LRU stamps (three 21-bit
	// fields per word, tickStride words per set); nil on matrix levels.
	ticks      []uint64
	tickStride int
	setMask    uint64
	lineShift  uint
	setBits    uint // log2(nsets), tag = line >> setBits
	assoc      int
	tick       uint32
	stats      LevelStats

	// MRU shortcut: the slab index / set / way and line address of the most
	// recently demand-touched line. MRU lines never carry entPref (demand
	// contact clears it), so a hit here needs no prefetch bookkeeping.
	mruIdx   int
	mruSet   int
	mruWay   int
	mruLine  uint64
	mruValid bool
}

// touch marks way w of set setIdx as the most recently used (matrix policy).
func (c *cache) touch(setIdx, w int) {
	m := c.mats[setIdx]
	m |= c.matRow << (8 * uint(w)) // w beats every way
	m &^= uint64(oneBytes) << w    // every way loses to w (incl. the diagonal)
	c.mats[setIdx] = m
}

// matVictim returns the LRU way of a full set under the matrix policy: the
// unique way whose row is zero (it beats nobody), via a zero-byte scan.
func (c *cache) matVictim(setIdx int) int {
	x := c.mats[setIdx] | c.matPad
	return bits.TrailingZeros64((x-oneBytes)&^x&highBytes) >> 3
}

// tickNext advances the tick policy's LRU clock. When the 20-bit clock is
// about to wrap it renormalizes every way's tick to its per-set recency
// rank — victim selection only compares ticks within one set, so rank
// compression is behaviour-preserving — and restarts the clock above the
// ranks.
func (c *cache) tickNext() uint32 {
	c.tick++
	if c.tick == lruMax {
		c.renorm()
	}
	return c.tick
}

// tickOf reads way w's packed LRU tick.
func (c *cache) tickOf(setIdx, w int) uint32 {
	word := c.ticks[setIdx*c.tickStride+w/ticksPerWord]
	return uint32(word>>(tickFieldBits*uint(w%ticksPerWord))) & tickFieldMask
}

// tickStamp writes way w's packed LRU tick (the tick policy's touch).
func (c *cache) tickStamp(setIdx, w int, t uint32) {
	idx := setIdx*c.tickStride + w/ticksPerWord
	sh := tickFieldBits * uint(w%ticksPerWord)
	c.ticks[idx] = c.ticks[idx]&^(uint64(tickFieldMask)<<sh) | uint64(t)<<sh
}

// renorm rank-compresses the LRU ticks of every set's valid ways. Ticks
// are unique while live (every touch draws a fresh tick), so ranks are
// unambiguous and victim selection is unchanged.
func (c *cache) renorm() {
	var lrus [128]uint32
	nsets := int(c.setMask) + 1
	for s := 0; s < nsets; s++ {
		occ := int(c.occ[s])
		for i := 0; i < occ; i++ {
			lrus[i] = c.tickOf(s, i)
		}
		for i := 0; i < occ; i++ {
			r := uint32(1)
			for j := 0; j < occ; j++ {
				if lrus[j] < lrus[i] {
					r++
				}
			}
			c.tickStamp(s, i, r)
		}
	}
	c.tick = uint32(c.assoc) + 1
}

// setMRU records a demand-touched line as the level's MRU shortcut.
func (c *cache) setMRU(setIdx, way int, lineAddr uint64) {
	c.mruIdx = setIdx*c.assoc + way
	c.mruSet = setIdx
	c.mruWay = way
	c.mruLine = lineAddr
	c.mruValid = true
}

// dropMRUAt invalidates the shortcut when slab slot idx is repurposed.
func (c *cache) dropMRUAt(idx int) {
	if c.mruValid && c.mruIdx == idx {
		c.mruValid = false
	}
}

// DRAMRouter attributes DRAM traffic to memory nodes: the NUMA layer's
// port into the hierarchy. Each socket's caches hold their own router (a
// socket-specific view of one shared page placement); implementations must
// be safe for concurrent use by all hierarchies of a Machine.
type DRAMRouter interface {
	// RouteFill resolves a demand line fill's home memory node, records
	// the fill at that node's controller, and reports whether the fill is
	// remote to the router's socket.
	RouteFill(lineAddr uint64) (remote bool)
	// RouteWriteback attributes a dirty last-level-cache eviction absorbed
	// by DRAM to the evicted line's home controller.
	RouteWriteback(lineAddr uint64)
	// RemotePossible reports whether RouteFill can ever return true
	// (false for a single-node topology).
	RemotePossible() bool
}

// Hierarchy is one core's view of the memory system: private cache levels
// plus, optionally, a shared last-level cache. The private state is not
// safe for concurrent use — each simulated core owns its own Hierarchy —
// while the attached SharedCache (if any) is internally locked, which is
// what lets a Machine's cores run concurrently against one L3.
type Hierarchy struct {
	cfg      Config
	levels   []*cache     // private levels (L1 [, L2])
	shared   *SharedCache // optional shared last-level cache
	l1       *cache       // levels[0], kept flat for the Access fast path
	lineMask uint64       // LineSize-1
	maxLine  uint64       // first line address the packed tags cannot represent
	dram     uint64       // DRAM access count (local + remote fills)
	// router, when set, resolves every DRAM fill to a home memory node;
	// fills remote to the owning socket are charged remoteLat and labelled
	// SrcDRAMRemote. dramRemote counts them.
	router     DRAMRouter
	remoteLat  uint64
	dramRemote uint64
	// mruHits counts L1 accesses served by the MRU fast path and probeOps
	// those that took the probe loop; LevelStats folds them lazily.
	mruHits  uint64
	probeOps uint64
	warmSink uint64 // keeps the set-warming loads live; never read
	// hints is the per-level probe→fill scratch for the current access
	// (persistent to avoid re-zeroing per op; Hierarchy is single-threaded).
	hints [8]probeHint
}

// newCache validates one level's configuration and builds its packed cache.
func newCache(lc LevelConfig) (*cache, error) {
	if lc.LineSize <= 0 || bits.OnesCount(uint(lc.LineSize)) != 1 {
		return nil, fmt.Errorf("memhier: level %s line size %d not a power of two", lc.Name, lc.LineSize)
	}
	if lc.Assoc <= 0 || lc.Assoc > 127 {
		return nil, fmt.Errorf("memhier: level %s associativity %d invalid (1..127)", lc.Name, lc.Assoc)
	}
	if lc.Size <= 0 || lc.Size%(lc.LineSize*lc.Assoc) != 0 {
		return nil, fmt.Errorf("memhier: level %s size %d not divisible by line*assoc", lc.Name, lc.Size)
	}
	nsets := lc.Size / (lc.LineSize * lc.Assoc)
	if bits.OnesCount(uint(nsets)) != 1 {
		return nil, fmt.Errorf("memhier: level %s set count %d not a power of two", lc.Name, nsets)
	}
	if lc.HitLatency == 0 {
		return nil, fmt.Errorf("memhier: level %s hit latency must be > 0", lc.Name)
	}
	c := &cache{
		cfg:       lc,
		slab:      make([]uint64, nsets*lc.Assoc),
		occ:       make([]uint8, nsets),
		setMask:   uint64(nsets - 1),
		lineShift: uint(bits.TrailingZeros(uint(lc.LineSize))),
		setBits:   uint(bits.TrailingZeros(uint(nsets))),
		assoc:     lc.Assoc,
	}
	c.sigStride = (lc.Assoc + 7) &^ 7
	c.sigs = make([]byte, nsets*c.sigStride)
	if lc.Assoc <= matMaxAssoc {
		c.mats = make([]uint64, nsets)
		c.matRow = uint64(1)<<lc.Assoc - 1
		if lc.Assoc < matMaxAssoc {
			c.matPad = ^uint64(0) << (8 * uint(lc.Assoc))
		}
	} else {
		c.tickStride = (lc.Assoc + ticksPerWord - 1) / ticksPerWord
		c.ticks = make([]uint64, nsets*c.tickStride)
		c.initTicks()
	}
	return c, nil
}

// maxLineOf returns the first line address the cache's packed set-relative
// tags cannot represent (capped at 2^64-1).
func (c *cache) maxLineOf() uint64 {
	if total := tagBits + c.setBits + c.lineShift; total < 64 {
		return uint64(1) << total
	}
	return ^uint64(0)
}

// New validates the configuration and builds the hierarchy.
func New(cfg Config) (*Hierarchy, error) {
	return newHierarchy(cfg, nil)
}

// NewWithSharedLLC builds a hierarchy whose private levels are cfg.Levels
// and whose last level is the given shared cache (one L3 shared by all
// cores of a Machine). cfg.Levels must hold only the private levels.
func NewWithSharedLLC(cfg Config, llc *SharedCache) (*Hierarchy, error) {
	if llc == nil {
		return nil, fmt.Errorf("memhier: nil shared LLC")
	}
	return newHierarchy(cfg, llc)
}

func newHierarchy(cfg Config, llc *SharedCache) (*Hierarchy, error) {
	if len(cfg.Levels) == 0 {
		return nil, fmt.Errorf("memhier: no cache levels configured")
	}
	if cfg.DRAMLatency == 0 {
		return nil, fmt.Errorf("memhier: DRAMLatency must be > 0")
	}
	nCaches := len(cfg.Levels)
	if llc != nil {
		nCaches++
	}
	if nCaches > MaxCacheLevels {
		// DataSource (and the PMU's per-source miss counters) encode
		// exactly L1..L3 plus DRAM; a deeper hierarchy has no meaningful
		// source labels, so reject it instead of mislabelling levels.
		return nil, fmt.Errorf("memhier: %d cache levels exceed the modelled %d (L1..L3 + DRAM)",
			nCaches, MaxCacheLevels)
	}
	if cfg.RemoteDRAMLatency != 0 && cfg.RemoteDRAMLatency < cfg.DRAMLatency {
		return nil, fmt.Errorf("memhier: remote DRAM latency %d below local %d",
			cfg.RemoteDRAMLatency, cfg.DRAMLatency)
	}
	h := &Hierarchy{cfg: cfg, shared: llc, maxLine: ^uint64(0), remoteLat: cfg.RemoteDRAMLatency}
	if h.remoteLat == 0 {
		h.remoteLat = cfg.DRAMLatency
	}
	lineSize := cfg.Levels[0].LineSize
	for i, lc := range cfg.Levels {
		if lc.LineSize != lineSize {
			return nil, fmt.Errorf("memhier: level %s line size %d differs from L1 %d",
				lc.Name, lc.LineSize, lineSize)
		}
		if i > 0 && lc.HitLatency <= cfg.Levels[i-1].HitLatency {
			return nil, fmt.Errorf("memhier: level %s latency %d not greater than previous level",
				lc.Name, lc.HitLatency)
		}
		c, err := newCache(lc)
		if err != nil {
			return nil, err
		}
		// The packed tag is set-relative, so each level represents line
		// addresses below 2^(tagBits+setBits+lineShift) exactly; the
		// hierarchy supports the tightest level's range (53 bits of address
		// for the default 64-set L1 — far beyond the simulated 46-bit
		// address space, but guarded in Access all the same).
		if ml := c.maxLineOf(); ml < h.maxLine {
			h.maxLine = ml
		}
		h.levels = append(h.levels, c)
	}
	if llc != nil {
		if llc.cfg.LineSize != lineSize {
			return nil, fmt.Errorf("memhier: shared LLC line size %d differs from L1 %d",
				llc.cfg.LineSize, lineSize)
		}
		if last := cfg.Levels[len(cfg.Levels)-1]; llc.cfg.HitLatency <= last.HitLatency {
			return nil, fmt.Errorf("memhier: shared LLC latency %d not greater than level %s",
				llc.cfg.HitLatency, last.Name)
		}
		if llc.maxLine < h.maxLine {
			h.maxLine = llc.maxLine
		}
	}
	h.l1 = h.levels[0]
	h.lineMask = uint64(cfg.Levels[0].LineSize - 1)
	return h, nil
}

// LineSize returns the cache-line size in bytes.
func (h *Hierarchy) LineSize() int { return h.cfg.Levels[0].LineSize }

// Levels returns the number of cache levels, counting the shared LLC.
func (h *Hierarchy) Levels() int {
	n := len(h.levels)
	if h.shared != nil {
		n++
	}
	return n
}

// SetDRAMRouter attaches the NUMA layer's per-socket router. It must be
// called before any access (the attached core precomputes per-source stall
// tables at construction, and switching routing mid-run would mislabel
// history).
func (h *Hierarchy) SetDRAMRouter(r DRAMRouter) { h.router = r }

// RemoteDRAMPossible reports whether this hierarchy can ever serve a fill
// from a remote memory node — true only when a multi-node router is
// attached. The monitoring layer keys its trace-format extensions
// (RemoteDRAM source label, REMOTE_DRAM counter) off this, so single-node
// stacks keep emitting the exact pre-NUMA byte stream.
func (h *Hierarchy) RemoteDRAMPossible() bool {
	return h.router != nil && h.router.RemotePossible()
}

// LevelStats returns a copy of the counters for level i (0 = L1). The hot
// path only counts misses; accesses and hits are derived here — every
// demand access probes L1 (fast-path hits are in mruHits, slow probes in
// probeOps), each level's accesses are the previous level's misses, and
// hits are accesses minus misses. The folded numbers match a hierarchy
// that counted every probe eagerly.
//
// For a shared LLC, Accesses and Misses are this core's share (its L2
// misses and its DRAM fills), while Writebacks/Prefetches/PrefHits are the
// cache-wide totals — eviction work on a shared cache is not attributable
// to one core.
func (h *Hierarchy) LevelStats(i int) LevelStats {
	if h.shared != nil && i == len(h.levels) {
		s := h.shared.Stats()
		s.Accesses = h.levels[i-1].stats.Misses
		s.Misses = h.dram
		s.Hits = s.Accesses - s.Misses
		return s
	}
	s := h.levels[i].stats
	if i == 0 {
		s.Accesses = h.mruHits + h.probeOps
	} else {
		s.Accesses = h.levels[i-1].stats.Misses
	}
	s.Hits = s.Accesses - s.Misses
	return s
}

// SourceLatency returns the access cost charged when the given level serves
// the data (the core uses it to precompute per-source stall tables).
func (h *Hierarchy) SourceLatency(s DataSource) uint64 {
	if s == SrcDRAMRemote {
		return h.remoteLat
	}
	if int(s) < len(h.levels) {
		return h.levels[s].cfg.HitLatency
	}
	if h.shared != nil && int(s) == len(h.levels) {
		return h.shared.cfg.HitLatency
	}
	return h.cfg.DRAMLatency
}

// DRAMAccesses returns the number of line fills served by DRAM, local and
// remote together.
func (h *Hierarchy) DRAMAccesses() uint64 { return h.dram }

// RemoteDRAMAccesses returns the number of line fills served by a remote
// socket's memory node (0 without a multi-node router).
func (h *Hierarchy) RemoteDRAMAccesses() uint64 { return h.dramRemote }

// setBase returns the set index and slab base index of lineAddr's set plus
// the packed tag|valid word (tick field zero) a resident line would carry.
func (c *cache) setBase(lineAddr uint64) (setIdx, base int, want uint64) {
	line := lineAddr >> c.lineShift
	setIdx = int(line & c.setMask)
	return setIdx, setIdx * c.assoc, (line>>c.setBits)<<tagShift | entValid
}

// lineOf reconstructs the line address of the packed word e resident in
// the set holding lineAddr (tags are set-relative, so the set index comes
// from the co-resident line).
func (c *cache) lineOf(e, lineAddr uint64) uint64 {
	set := (lineAddr >> c.lineShift) & c.setMask
	return ((e>>tagShift)<<c.setBits | set) << c.lineShift
}

// probeHint carries a miss's fill destination from probe to fill, plus the
// set coordinates probe already computed so fill does not recompute them:
// hint >= 0 is a free way index; hint < 0 encodes the LRU victim way as
// ^victim. The hint stays valid until the set is next modified, which the
// access path guarantees happens only at fillAbove (the probe loop touches
// deeper levels, never this set, in between; dirty propagation installs
// into level i+1 only after level i+1's own fill consumed its hint).
type probeHint struct {
	hint   int
	setIdx int
	base   int
	want   uint64
}

// Recency refresh on a hit is policy-dependent and appears manually
// inlined at each hit site (the compiler does not inline a shared helper
// here, and these are the hottest instructions in the model): matrix
// levels touch the set's matrix, tick levels restamp the word's tick
// field.

// probe is the demand lookup of one level. On a hit it refreshes LRU state
// and (for writes) marks the line dirty. On a miss it fills ph with the
// fill destination. The match scan is deliberately minimal — valid ways
// form a prefix (lines are never invalidated outside Reset), so it walks
// occ packed words with one compare each; the victim is found only on a
// miss of a full set, O(1) from the recency matrix (assoc ≤ 8) or in a
// second pass over set data the match scan just pulled into host cache.
func (c *cache) probe(lineAddr uint64, write bool, ph *probeHint) (hit, wasPref bool) {
	if c.mruValid && c.mruLine == lineAddr {
		// MRU lines are demand-touched, so no prefetch bookkeeping applies.
		if c.mats != nil {
			c.touch(c.mruSet, c.mruWay)
		} else {
			c.tickStamp(c.mruSet, c.mruWay, c.tickNext())
		}
		if write {
			c.slab[c.mruIdx] |= entDirty
		}
		return true, false
	}
	return c.probeScan(lineAddr, write, ph)
}

// probeScan is probe below the MRU shortcut: the set scan. The L1 call
// sites that already failed the hierarchy-level MRU check enter here
// directly instead of re-testing it.
func (c *cache) probeScan(lineAddr uint64, write bool, ph *probeHint) (hit, wasPref bool) {
	setIdx, base, want := c.setBase(lineAddr)
	// Signature match: compare the wanted tag byte against the whole set's
	// signature bytes with the zero-byte trick, then verify candidates in
	// the slab. Most misses touch no slab words; hits verify exactly one
	// (plus 1/256-rate false positives). Empty ways' zero signatures can
	// only produce false candidates — the slab word 0 never matches want,
	// which carries the valid bit.
	bcast := (want >> tagShift & 0xFF) * oneBytes
	sb := setIdx * c.sigStride
	for k := 0; k < c.sigStride; k += 8 {
		x := binary.LittleEndian.Uint64(c.sigs[sb+k:]) ^ bcast
		for zeros := (x - oneBytes) & ^x & highBytes; zeros != 0; zeros &= zeros - 1 {
			i := k + bits.TrailingZeros64(zeros)>>3
			if i >= c.assoc {
				break // padding bytes of the last word
			}
			if e := c.slab[base+i]; e&matchMask == want {
				if c.mats != nil {
					c.touch(setIdx, i)
				} else {
					c.tickStamp(setIdx, i, c.tickNext())
				}
				wasPref = e&entPref != 0
				if write || wasPref {
					if write {
						e |= entDirty
					}
					if wasPref {
						e &^= entPref
						c.stats.PrefHits++
					}
					c.slab[base+i] = e
				}
				c.setMRU(setIdx, i, lineAddr)
				return true, wasPref
			}
		}
	}
	c.stats.Misses++
	ph.setIdx, ph.base, ph.want = setIdx, base, want
	switch {
	case int(c.occ[setIdx]) < c.assoc:
		ph.hint = int(c.occ[setIdx]) // first free way: the prefix invariant
	case c.mats != nil:
		ph.hint = ^c.matVictim(setIdx)
	default:
		ph.hint = ^c.tickVictim(setIdx)
	}
	return false, false
}

// tickVictim scans a full set's packed ticks for the way with the oldest
// stamp. Victim tracking is branchless: tick<<victimShift|way packs
// recency and the way index so a single min() both orders by last use and
// breaks ties toward the lowest way. Ticks are unique while live, so this
// matches a first-strictly-smaller linear scan; the three fields of each
// word feed three independent compare chains (CMOVs), so the serial
// latency is one min per *word* of the side array — about one host cache
// line of loads for the 20-way L3 set, where the old in-slab scan pulled
// the set's whole 160-byte slab strip. Padding fields beyond assoc carry
// the maximum stamp (see initTicks) and can never win.
func (c *cache) tickVictim(setIdx int) int {
	base := setIdx * c.tickStride
	m0, m1, m2 := ^uint64(0), ^uint64(0), ^uint64(0)
	w := uint64(0)
	for _, word := range c.ticks[base : base+c.tickStride] {
		v0 := (word&tickFieldMask)<<victimShift | w
		v1 := (word>>tickFieldBits&tickFieldMask)<<victimShift | (w + 1)
		v2 := (word>>(2*tickFieldBits)&tickFieldMask)<<victimShift | (w + 2)
		if v0 < m0 {
			m0 = v0
		}
		if v1 < m1 {
			m1 = v1
		}
		if v2 < m2 {
			m2 = v2
		}
		w += ticksPerWord
	}
	// Ticks are unique within a set, so the global min is unique and the
	// accumulator split cannot change which way wins.
	if m1 < m0 {
		m0 = m1
	}
	if m2 < m0 {
		m0 = m2
	}
	return int(m0 & (1<<victimShift - 1))
}

// initTicks resets the packed tick array: real fields to zero, the padding
// fields of the last word of each set to the maximum stamp so tickVictim
// never picks a way beyond assoc.
func (c *cache) initTicks() {
	if c.ticks == nil {
		return
	}
	clear(c.ticks)
	first := c.assoc % ticksPerWord
	if c.tickStride*ticksPerWord == c.assoc {
		return // no padding fields
	}
	var pad uint64
	for f := first; f < ticksPerWord; f++ {
		pad |= uint64(tickFieldMask) << (tickFieldBits * uint(f))
	}
	for s := 0; s <= int(c.setMask); s++ {
		c.ticks[s*c.tickStride+c.tickStride-1] |= pad
	}
}

// fill completes a miss using the hint computed by probe: it places
// lineAddr in the free way, or evicts the LRU victim. It returns whether a
// dirty line was evicted (writeback). The place/evict logic is flattened
// into the body — fills are demand fills (never prefetch-flagged), so the
// MRU shortcut always moves here and every helper left is inlinable.
func (c *cache) fill(lineAddr uint64, ph *probeHint, dirty bool) (evictedDirty bool, evictedAddr uint64) {
	w := ph.hint
	var ev uint64
	if w >= 0 {
		c.occ[ph.setIdx]++
	} else {
		w = ^w
		ev = c.slab[ph.base+w]
	}
	fresh := ph.want
	if c.mats != nil {
		c.touch(ph.setIdx, w)
	} else {
		c.tickStamp(ph.setIdx, w, c.tickNext())
	}
	if dirty {
		fresh |= entDirty
	}
	c.slab[ph.base+w] = fresh
	c.sigs[ph.setIdx*c.sigStride+w] = byte(ph.want >> tagShift)
	c.setMRU(ph.setIdx, w, lineAddr)
	if ev&entDirty != 0 {
		c.stats.Writebacks++
		return true, c.lineOf(ev, lineAddr)
	}
	return false, 0
}

// findWay locates the resident way holding the line described by (setIdx,
// base, want), or -1. It is the signature-filtered presence scan shared by
// install and prefetchInstall: like probe's match loop it compares the
// wanted tag byte against the whole set's signatures with the zero-byte
// trick and verifies only candidate ways in the slab, so a miss usually
// touches no slab words at all. No LRU or flag side effects.
//
//repro:noalloc
func (c *cache) findWay(setIdx, base int, want uint64) int {
	bcast := (want >> tagShift & 0xFF) * oneBytes
	sb := setIdx * c.sigStride
	for k := 0; k < c.sigStride; k += 8 {
		x := binary.LittleEndian.Uint64(c.sigs[sb+k:]) ^ bcast
		for zeros := (x - oneBytes) & ^x & highBytes; zeros != 0; zeros &= zeros - 1 {
			i := k + bits.TrailingZeros64(zeros)>>3
			if i >= c.assoc {
				break // padding bytes of the last word
			}
			if c.slab[base+i]&matchMask == want {
				return i
			}
		}
	}
	return -1
}

// install places a line into the level, evicting LRU if needed.
// It returns whether a dirty line was evicted (writeback).
func (c *cache) install(lineAddr uint64, dirty, pref bool) (evictedDirty bool, evictedAddr uint64) {
	setIdx, base, want := c.setBase(lineAddr)
	if i := c.findWay(setIdx, base, want); i >= 0 {
		// Already present (e.g. prefetch raced a demand fill): refresh.
		if c.mats != nil {
			c.touch(setIdx, i)
		} else {
			c.tickStamp(setIdx, i, c.tickNext())
		}
		if dirty {
			c.slab[base+i] |= entDirty
		}
		return false, 0
	}
	occ := int(c.occ[setIdx])
	switch {
	case occ < c.assoc:
		c.occ[setIdx]++
		return c.place(setIdx, base, occ, want, lineAddr, dirty, pref)
	case c.mats != nil:
		return c.evict(setIdx, base, c.matVictim(setIdx), want, lineAddr, dirty, pref)
	default:
		return c.evict(setIdx, base, c.tickVictim(setIdx), want, lineAddr, dirty, pref)
	}
}

// place writes the line into way i of set setIdx and stamps its recency.
func (c *cache) place(setIdx, base, i int, want, lineAddr uint64, dirty, pref bool) (bool, uint64) {
	fresh := want
	if c.mats != nil {
		c.touch(setIdx, i)
	} else {
		c.tickStamp(setIdx, i, c.tickNext())
	}
	if dirty {
		fresh |= entDirty
	}
	if pref {
		fresh |= entPref
	}
	c.slab[base+i] = fresh
	c.sigs[setIdx*c.sigStride+i] = byte(want >> tagShift)
	if pref {
		c.dropMRUAt(base + i)
	} else {
		c.setMRU(setIdx, i, lineAddr)
	}
	return false, 0
}

// evict replaces the victim way (chosen by the caller) with the line and
// reports a writeback when the victim was dirty. Like fill, the body is
// flattened so it makes no non-inlinable calls.
func (c *cache) evict(setIdx, base, victim int, want, lineAddr uint64, dirty, pref bool) (bool, uint64) {
	ev := c.slab[base+victim]
	fresh := want
	if c.mats != nil {
		c.touch(setIdx, victim)
	} else {
		c.tickStamp(setIdx, victim, c.tickNext())
	}
	if dirty {
		fresh |= entDirty
	}
	if pref {
		fresh |= entPref
		c.dropMRUAt(base + victim)
	} else {
		c.setMRU(setIdx, victim, lineAddr)
	}
	c.slab[base+victim] = fresh
	c.sigs[setIdx*c.sigStride+victim] = byte(want >> tagShift)
	if ev&entDirty != 0 {
		c.stats.Writebacks++
		return true, c.lineOf(ev, lineAddr)
	}
	return false, 0
}

// prefetchInstall is the prefetcher's contains-then-install pair fused into
// one scan: it reports present=true (with no side effects) when the line is
// already cached, and otherwise installs it with the prefetch flag.
func (c *cache) prefetchInstall(lineAddr uint64) (present, evictedDirty bool, evictedAddr uint64) {
	if c.mruValid && c.mruLine == lineAddr {
		return true, false, 0
	}
	setIdx, base, want := c.setBase(lineAddr)
	if c.findWay(setIdx, base, want) >= 0 {
		return true, false, 0
	}
	occ := int(c.occ[setIdx])
	var victim int
	switch {
	case occ < c.assoc:
		c.occ[setIdx]++
		evictedDirty, evictedAddr = c.place(setIdx, base, occ, want, lineAddr, false, true)
		return false, evictedDirty, evictedAddr
	case c.mats != nil:
		victim = c.matVictim(setIdx)
	default:
		victim = c.tickVictim(setIdx)
	}
	evictedDirty, evictedAddr = c.evict(setIdx, base, victim, want, lineAddr, false, true)
	return false, evictedDirty, evictedAddr
}

// contains reports (without LRU side effects) whether the line is cached.
func (c *cache) contains(lineAddr uint64) bool {
	if c.mruValid && c.mruLine == lineAddr {
		return true
	}
	_, base, want := c.setBase(lineAddr)
	for _, e := range c.slab[base : base+c.assoc] {
		if e&matchMask == want {
			return true
		}
	}
	return false
}

// Access simulates one memory access of the given size at addr. Accesses
// spanning a line boundary are charged to the first line only (the workloads
// issue naturally aligned 4/8-byte element accesses, so splits are rare and
// irrelevant to the sampled statistics). write selects store semantics
// (write-back, write-allocate).
//
// Addresses must lie below the packed-tag range reported at construction
// (2^53 for the default geometry — far beyond the simulated 46-bit address
// space); Access panics otherwise rather than alias tags silently.
//
//repro:noalloc
func (h *Hierarchy) Access(addr uint64, size int, write bool) AccessResult {
	lineAddr := addr &^ h.lineMask
	// L1 MRU fast path: a repeat touch of the most recently used line costs
	// one compare plus an LRU refresh — no way scan, no per-access stats
	// (folded from mruHits), no fill work. This is the common case for the
	// element-granular workloads (8 touches per 64-byte line).
	if l1 := h.l1; l1.mruValid && l1.mruLine == lineAddr {
		h.mruHits++
		if l1.mats != nil {
			l1.touch(l1.mruSet, l1.mruWay)
		} else {
			l1.tickStamp(l1.mruSet, l1.mruWay, l1.tickNext())
		}
		if write {
			l1.slab[l1.mruIdx] |= entDirty
		}
		return AccessResult{Source: SrcL1, Latency: l1.cfg.HitLatency, LineAddr: lineAddr}
	}
	return h.accessLine(addr, lineAddr, write)
}

// accessLine is Access below the L1 MRU fast path: the full probe/fill walk
// for one line-resolving access. It is shared by Access and AccessRun (the
// line-run batch path), which both guarantee the L1 MRU shortcut does not
// apply when it is called.
//
//repro:noalloc
func (h *Hierarchy) accessLine(addr, lineAddr uint64, write bool) AccessResult {
	if lineAddr >= h.maxLine {
		panic(fmt.Sprintf("memhier: address %#x beyond the %d-bit packed-tag range", addr, bits.Len64(h.maxLine-1)))
	}
	h.probeOps++
	// Warm the deeper levels' sets before the L1 scan: the probe loop walks
	// the levels serially, so without this each level's set loads start only
	// after the previous level missed. The early loads have no model side
	// effects; they just overlap the host-cache misses of all levels' sets
	// (the xor into warmSink keeps the compiler from dropping them).
	if len(h.levels) > 1 {
		line := lineAddr >> h.l1.lineShift
		warm := uint64(0)
		for _, c := range h.levels[1:] {
			setIdx := int(line & c.setMask)
			warm ^= uint64(c.sigs[setIdx*c.sigStride])
			if c.ticks != nil {
				// The tick strip is what a miss of this set will scan for
				// the LRU victim; pull its first host line now so the scan
				// overlaps the faster levels' probes.
				warm ^= c.ticks[setIdx*c.tickStride]
			}
		}
		h.warmSink = warm
	}
	// Probe levels top-down; each miss leaves its fill hint in h.hints so
	// the fills after a miss reuse the work of the miss scans instead of
	// rescanning. L1 enters below its MRU shortcut (both callers of
	// accessLine already tested it).
	for i, c := range h.levels {
		var hit, wasPref bool
		if i == 0 {
			hit, wasPref = c.probeScan(lineAddr, write, &h.hints[i])
		} else {
			hit, wasPref = c.probe(lineAddr, false, &h.hints[i])
		}
		if hit {
			// Fill the line into all faster levels (inclusive fills).
			h.fillAbove(i, lineAddr, write)
			return AccessResult{
				Source:     DataSource(i),
				Latency:    c.cfg.HitLatency,
				LineAddr:   lineAddr,
				Prefetched: wasPref,
			}
		}
	}
	if s := h.shared; s != nil {
		// The shared LLC probes and (on a miss) fills in one critical
		// section, so another core cannot invalidate a fill hint between
		// the two steps. The mutation order matches the private path: LLC
		// first, then the private fills (whose dirty evictions install
		// into the LLC afterwards).
		hit, wasPref := s.access(lineAddr)
		if hit {
			h.fillAbove(len(h.levels), lineAddr, write)
			return AccessResult{
				Source:     DataSource(len(h.levels)),
				Latency:    s.cfg.HitLatency,
				LineAddr:   lineAddr,
				Prefetched: wasPref,
			}
		}
		src, lat := h.dramFill(lineAddr)
		h.fillAbove(len(h.levels), lineAddr, write)
		if next := lineAddr + uint64(h.LineSize()); h.cfg.NextLinePrefetch && next < h.maxLine {
			h.prefetch(next)
		}
		return AccessResult{Source: src, Latency: lat, LineAddr: lineAddr}
	}
	// Miss everywhere: DRAM services the line.
	src, lat := h.dramFill(lineAddr)
	h.fillAbove(len(h.levels), lineAddr, write)
	// The next-line target can sit one line past the packed-tag range when
	// the demand access was the last representable line; the prefetcher
	// simply does not cross that boundary (no silent tag truncation).
	if next := lineAddr + uint64(h.LineSize()); h.cfg.NextLinePrefetch && next < h.maxLine {
		h.prefetch(next)
	}
	return AccessResult{Source: src, Latency: lat, LineAddr: lineAddr}
}

// dramFill accounts a line fill that fell through every cache level: flat
// DRAM without a router, or the line's home node — charged the local or
// the remote (interconnect-crossing) cost — with one.
func (h *Hierarchy) dramFill(lineAddr uint64) (DataSource, uint64) {
	h.dram++
	if h.router != nil && h.router.RouteFill(lineAddr) {
		h.dramRemote++
		return SrcDRAMRemote, h.remoteLat
	}
	return SrcDRAM, h.cfg.DRAMLatency
}

// fillAbove installs lineAddr into every level faster than hitLevel, using
// the fill hints the probe loop computed during the miss scans.
// Dirty state lands in L1 for writes (write-allocate); evicted dirty lines
// are pushed one level down, approximating write-back traffic.
func (h *Hierarchy) fillAbove(hitLevel int, lineAddr uint64, write bool) {
	if hitLevel > len(h.levels) {
		hitLevel = len(h.levels)
	}
	for i := hitLevel - 1; i >= 0; i-- {
		dirty := write && i == 0
		evDirty, evAddr := h.levels[i].fill(lineAddr, &h.hints[i], dirty)
		if evDirty {
			// Propagate the dirty line into the next level (it may already be
			// there under inclusion; install refreshes and merges dirtiness).
			switch {
			case i+1 < len(h.levels):
				h.levels[i+1].install(evAddr, true, false)
			case h.shared != nil:
				h.shared.installDirty(evAddr)
			}
		}
	}
}

// prefetch installs the line into L2 and slower levels (not L1, matching the
// L2 streamer behaviour of the modelled parts).
func (h *Hierarchy) prefetch(lineAddr uint64) {
	for i := 1; i < len(h.levels); i++ {
		c := h.levels[i]
		present, evDirty, evAddr := c.prefetchInstall(lineAddr)
		if present {
			continue
		}
		c.stats.Prefetches++
		if evDirty {
			switch {
			case i+1 < len(h.levels):
				h.levels[i+1].install(evAddr, true, false)
			case h.shared != nil:
				h.shared.installDirty(evAddr)
			}
		}
	}
	if h.shared != nil {
		h.shared.prefetchInstall(lineAddr)
	}
}

// RunResult aggregates the outcome of one batched line run issued through
// AccessRun. The counts are deltas (AccessRun adds into an existing value),
// so a caller can accumulate several runs into one result.
type RunResult struct {
	// Lines counts the line-resolving probes by serving source: each
	// distinct cache line of the run is resolved exactly once and lands in
	// the bucket of the level that served it.
	Lines [NumSources]uint64
	// Bulk counts the remaining same-line accesses, charged as L1 MRU hits
	// without re-probing.
	Bulk uint64
}

// AccessRun simulates n accesses sweeping addr, addr+stride, ...,
// addr+(n-1)*stride (stride > 0) in one call: the line-run batch path. It
// is byte-identical in cache-state mutation and statistics to n Access
// calls — each distinct line runs the full probe/fill walk once, and the
// remaining same-line accesses are folded into a single bulk L1 MRU charge
// (LRU victim selection consumes only the order of touches, so one recency
// refresh stands in for a run of touches on one line). The caller is
// responsible for splitting runs at monitoring boundaries: any access that
// must be observed per-op (a sample-gate firing, a multiplexing quantum
// boundary) has to be issued through Access instead.
//
//repro:noalloc
func (h *Hierarchy) AccessRun(addr, stride, n uint64, write bool, rr *RunResult) {
	lineSize := uint64(h.cfg.Levels[0].LineSize)
	l1 := h.l1
	// The same-line count divides by the stride; the kernels' strides are
	// the power-of-two element sizes (4, 8), where a shift replaces the
	// ~25-cycle divide on the per-line path.
	strideShift := -1
	if stride&(stride-1) == 0 {
		strideShift = bits.TrailingZeros64(stride)
	}
	for i := uint64(0); i < n; {
		lineAddr := addr &^ h.lineMask
		if !(l1.mruValid && l1.mruLine == lineAddr) {
			// Line crossing: the full probe/fill walk, once per line.
			res := h.accessLine(addr, lineAddr, write)
			rr.Lines[res.Source]++
			i++
			addr += stride
			if i >= n || stride >= lineSize {
				continue
			}
			// accessLine left the line as the L1 MRU, so the same-line tail
			// falls through to the bulk charge below.
			if addr&^h.lineMask != lineAddr {
				continue
			}
		}
		// Every remaining op on the MRU line is an L1 hit charged in bulk;
		// a single recency refresh stands in for k touches of one line.
		k := uint64(1)
		if stride < lineSize {
			span := lineAddr + lineSize - addr + stride - 1
			if strideShift >= 0 {
				k = span >> strideShift
			} else {
				k = span / stride
			}
			if rem := n - i; k > rem {
				k = rem
			}
		}
		h.mruHits += k
		if l1.mats != nil {
			l1.touch(l1.mruSet, l1.mruWay)
		} else {
			l1.tickStamp(l1.mruSet, l1.mruWay, l1.tickNext())
		}
		if write {
			l1.slab[l1.mruIdx] |= entDirty
		}
		rr.Bulk += k
		i += k
		addr += k * stride
	}
}

// Contains reports whether the line holding addr is present at level i,
// without disturbing replacement state. Intended for tests.
func (h *Hierarchy) Contains(i int, addr uint64) bool {
	lineAddr := addr &^ h.lineMask
	if h.shared != nil && i == len(h.levels) {
		return h.shared.contains(lineAddr)
	}
	return h.levels[i].contains(lineAddr)
}
