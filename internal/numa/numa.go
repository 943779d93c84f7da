// Package numa models the multi-socket memory topology of the paper's
// testbed: the Xeon E5-2680 v3 nodes of Jureca are 2-socket parts, so half
// of a node's DRAM is remote to any given core. The package provides a
// page-granular placement layer — a virtual-address→home-node translation
// under a configurable placement policy (first-touch, interleave, or
// explicit per-range binds) — plus per-node DRAM controller accounting
// (fills served locally, fills served to remote sockets, absorbed LLC
// writebacks).
//
// The memory hierarchy consumes the layer through per-socket Routers
// (memhier.DRAMRouter): on a last-level-cache miss the owning socket's
// router resolves the line's home node, records the fill at that node's
// controller, and reports whether the fill crossed the socket interconnect
// — which the hierarchy translates into the SrcDRAMRemote data source and
// the remote fill latency. A single-node placement routes every fill
// locally and is observationally identical to the flat-DRAM model.
package numa

import (
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"
)

// Policy selects how unbound pages acquire a home node.
type Policy int

const (
	// FirstTouch assigns a page to the socket of the first core whose DRAM
	// fill touches it — the Linux default, and the reason serially
	// initialized data lands entirely on the initializing thread's socket.
	FirstTouch Policy = iota
	// Interleave assigns pages round-robin by page number across all
	// nodes, the `numactl --interleave=all` placement.
	Interleave
)

// String returns the policy's flag spelling.
func (p Policy) String() string {
	switch p {
	case FirstTouch:
		return "first-touch"
	case Interleave:
		return "interleave"
	}
	return fmt.Sprintf("Policy(%d)", int(p))
}

// PolicyNames lists the parseable policy spellings.
func PolicyNames() []string { return []string{"first-touch", "interleave"} }

// ParsePolicy resolves a flag spelling ("" defaults to first-touch).
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "", "first-touch":
		return FirstTouch, nil
	case "interleave":
		return Interleave, nil
	}
	return 0, fmt.Errorf("numa: unknown placement policy %q (have %v)", s, PolicyNames())
}

// DefaultPageSize is the placement granularity: the 4 KiB base page.
const DefaultPageSize = 4096

// DefaultRemoteDRAMLatency is the default remote-socket fill cost in
// cycles: ~1.6× the 230-cycle local DRAM latency of the modelled Haswell
// parts, matching the QPI hop penalty measured on 2-socket E5 v3 systems.
const DefaultRemoteDRAMLatency = 370

// Config parameterizes a Placement.
type Config struct {
	// Sockets is the number of sockets (= memory nodes; one controller per
	// socket). 0 leaves NUMA modelling off entirely; 1 builds a routed
	// single-node placement that must be observationally identical to the
	// flat-DRAM model.
	Sockets int
	// PageSize is the placement granularity in bytes (power of two;
	// 0 selects DefaultPageSize).
	PageSize uint64
	// Policy places pages that no explicit Bind covers.
	Policy Policy
	// RemoteDRAMLatency is the remote-socket fill cost in cycles
	// (0 selects DefaultRemoteDRAMLatency). Only meaningful with >1 socket.
	RemoteDRAMLatency uint64
}

// NodeStats is one memory node's DRAM controller accounting.
type NodeStats struct {
	// FillsLocal counts line fills served to cores of this node's socket.
	FillsLocal uint64
	// FillsRemote counts line fills served across the interconnect to
	// cores of other sockets.
	FillsRemote uint64
	// Writebacks counts dirty last-level-cache evictions absorbed by this
	// node's controller.
	Writebacks uint64
	// Pages counts pages currently homed on this node (bound or touched).
	Pages uint64
}

// Placement is the page table of the NUMA layer: the VA→home-node
// translation plus per-node controller statistics. One Placement is shared
// by all sockets of a Machine. Translation runs only on LLC misses and
// LLC writebacks, but a DRAM-bound kernel makes those the common case, so
// the steady state must not re-serialize what the sharded L3 locks
// parallelize: already-placed pages translate under a read lock and the
// controller counters are atomics; only the one-time page placements
// (first touch, binds) take the write lock.
type Placement struct {
	nodes     int
	pageShift uint
	policy    Policy

	mu    sync.RWMutex
	pages map[uint64]uint8 // policy-placed pages (never inside a bind)
	binds []bindRange      // explicit binds, kept non-overlapping
	stats []nodeCounters
}

// bindRange is one explicit bind over the page-number range [lo, hi).
// Binds are stored as ranges, not materialized per page — a paper-scale
// mbind of tens of GiB is O(existing binds + already-placed pages), not
// O(range/page-size).
type bindRange struct {
	lo, hi uint64
	node   uint8
}

// nodeCounters is one node's controller accounting, atomically updated
// outside the page-table locks.
type nodeCounters struct {
	fillsLocal  atomic.Uint64
	fillsRemote atomic.Uint64
	writebacks  atomic.Uint64
	pages       atomic.Uint64
}

// New validates the configuration and builds an empty placement.
func New(cfg Config) (*Placement, error) {
	nodes := cfg.Sockets
	if nodes == 0 {
		nodes = 1
	}
	if nodes < 1 || nodes > 255 {
		return nil, fmt.Errorf("numa: %d sockets out of range 1..255", cfg.Sockets)
	}
	pageSize := cfg.PageSize
	if pageSize == 0 {
		pageSize = DefaultPageSize
	}
	if bits.OnesCount64(pageSize) != 1 || pageSize < 64 {
		return nil, fmt.Errorf("numa: page size %d not a power of two >= 64", pageSize)
	}
	if cfg.Policy != FirstTouch && cfg.Policy != Interleave {
		// Reject at construction like every other Config field — an
		// out-of-range value would silently place first-touch while
		// reports label it with the bogus name.
		return nil, fmt.Errorf("numa: unknown placement policy %v", cfg.Policy)
	}
	return &Placement{
		nodes:     nodes,
		pageShift: uint(bits.TrailingZeros64(pageSize)),
		policy:    cfg.Policy,
		pages:     make(map[uint64]uint8),
		stats:     make([]nodeCounters, nodes),
	}, nil
}

// Nodes returns the number of memory nodes.
func (p *Placement) Nodes() int { return p.nodes }

// PageSize returns the placement granularity in bytes.
func (p *Placement) PageSize() uint64 { return 1 << p.pageShift }

// Policy returns the default placement policy.
func (p *Placement) Policy() Policy { return p.policy }

// bindOf returns the bind covering page pn, if any. Callers hold p.mu
// (read or write). Binds are per-object and few, so a linear scan beats
// any index.
func (p *Placement) bindOf(pn uint64) (int, bool) {
	for _, b := range p.binds {
		if pn >= b.lo && pn < b.hi {
			return int(b.node), true
		}
	}
	return 0, false
}

// homeOf resolves (and, under first-touch, assigns) the home node of page
// pn for a fill issued by a core of node toucher. Callers hold p.mu for
// writing.
func (p *Placement) homeOf(pn uint64, toucher int) int {
	if n, ok := p.bindOf(pn); ok {
		return n
	}
	if n, ok := p.pages[pn]; ok {
		return int(n)
	}
	var node int
	switch p.policy {
	case Interleave:
		node = int(pn % uint64(p.nodes))
	default: // FirstTouch
		node = toucher
	}
	p.pages[pn] = uint8(node)
	p.stats[node].pages.Add(1)
	return node
}

// translate resolves page pn, placing it for toucher only when it is
// still unplaced: the hot read path takes the read lock, the one-time
// placement upgrades to the write lock (re-checking under it — another
// socket may have placed the page in between).
func (p *Placement) translate(pn uint64, toucher int) int {
	p.mu.RLock()
	n, bound := p.bindOf(pn)
	if !bound {
		var placed uint8
		var ok bool
		if placed, ok = p.pages[pn]; ok {
			n, bound = int(placed), true
		}
	}
	p.mu.RUnlock()
	if bound {
		return n
	}
	p.mu.Lock()
	node := p.homeOf(pn, toucher)
	p.mu.Unlock()
	return node
}

// HomeNode resolves the home node of addr for a fill issued by a core of
// node toucher, assigning the page under the placement policy if it is
// still unplaced. Translation is total: every address resolves to a node.
func (p *Placement) HomeNode(addr uint64, toucher int) int {
	if toucher < 0 || toucher >= p.nodes {
		toucher = 0
	}
	return p.translate(addr>>p.pageShift, toucher)
}

// Lookup returns addr's home node without placing the page: assigned is
// false when the page has not been bound or touched yet (under Interleave
// the would-be node is still returned).
func (p *Placement) Lookup(addr uint64) (node int, assigned bool) {
	pn := addr >> p.pageShift
	p.mu.RLock()
	defer p.mu.RUnlock()
	if n, ok := p.bindOf(pn); ok {
		return n, true
	}
	if n, ok := p.pages[pn]; ok {
		return int(n), true
	}
	if p.policy == Interleave {
		return int(pn % uint64(p.nodes)), false
	}
	return 0, false
}

// Bind explicitly homes every page overlapping [lo, hi) on the given node
// — the per-object bind policy (numa_alloc_onnode / mbind). Binding
// overrides earlier placements and pre-empts the default policy for the
// covered pages.
func (p *Placement) Bind(lo, hi uint64, node int) error {
	if node < 0 || node >= p.nodes {
		return fmt.Errorf("numa: bind to node %d outside 0..%d", node, p.nodes-1)
	}
	if hi <= lo {
		return fmt.Errorf("numa: empty bind range [%#x, %#x)", lo, hi)
	}
	first := lo >> p.pageShift
	lastExcl := (hi-1)>>p.pageShift + 1 // page-number range [first, lastExcl)
	p.mu.Lock()
	defer p.mu.Unlock()
	// Carve the new range out of existing binds (the newest bind wins):
	// overlapped portions leave their old node's page count, remnants
	// split into up to two ranges. A fresh slice — splitting can append
	// two remnants per consumed bind, so filtering in place would let the
	// write index overtake unvisited elements.
	kept := make([]bindRange, 0, len(p.binds)+2)
	for _, b := range p.binds {
		oLo, oHi := max(b.lo, first), min(b.hi, lastExcl)
		if oLo >= oHi {
			kept = append(kept, b)
			continue
		}
		p.stats[b.node].pages.Add(^uint64(oHi - oLo - 1)) // -= overlap
		if b.lo < first {
			kept = append(kept, bindRange{lo: b.lo, hi: first, node: b.node})
		}
		if b.hi > lastExcl {
			kept = append(kept, bindRange{lo: lastExcl, hi: b.hi, node: b.node})
		}
	}
	p.binds = kept
	// Policy-placed pages inside the range hand ownership to the bind.
	for pn, n := range p.pages {
		if pn >= first && pn < lastExcl {
			p.stats[n].pages.Add(^uint64(0)) // -1
			delete(p.pages, pn)
		}
	}
	p.binds = append(p.binds, bindRange{lo: first, hi: lastExcl, node: uint8(node)})
	p.stats[node].pages.Add(lastExcl - first)
	return nil
}

// Stats returns a copy of the per-node controller counters.
func (p *Placement) Stats() []NodeStats {
	out := make([]NodeStats, len(p.stats))
	for i := range p.stats {
		c := &p.stats[i]
		out[i] = NodeStats{
			FillsLocal:  c.fillsLocal.Load(),
			FillsRemote: c.fillsRemote.Load(),
			Writebacks:  c.writebacks.Load(),
			Pages:       c.pages.Load(),
		}
	}
	return out
}

// PagesIn counts, per node, the assigned pages overlapping [lo, hi) — the
// per-object placement breakdown reported for registered data objects.
// Unassigned (never-touched, unbound) pages are not counted. Cost scales
// with placed pages and binds, not with the queried range.
func (p *Placement) PagesIn(lo, hi uint64) []uint64 {
	out := make([]uint64, p.nodes)
	if hi <= lo {
		return out
	}
	first := lo >> p.pageShift
	lastExcl := (hi-1)>>p.pageShift + 1
	p.mu.RLock()
	defer p.mu.RUnlock()
	for pn, n := range p.pages {
		if pn >= first && pn < lastExcl {
			out[n]++
		}
	}
	for _, b := range p.binds {
		if oLo, oHi := max(b.lo, first), min(b.hi, lastExcl); oLo < oHi {
			out[b.node] += oHi - oLo
		}
	}
	return out
}

// Router returns the given socket's view of the placement: the
// memhier.DRAMRouter its hierarchies and shared LLC attach to.
func (p *Placement) Router(socket int) (*Router, error) {
	if socket < 0 || socket >= p.nodes {
		return nil, fmt.Errorf("numa: socket %d outside 0..%d", socket, p.nodes-1)
	}
	return &Router{p: p, socket: socket}, nil
}

// Router is one socket's port into the placement. It implements
// memhier.DRAMRouter: the socket's caches call RouteFill on every DRAM
// line fill and RouteWriteback on every dirty LLC eviction.
type Router struct {
	p      *Placement
	socket int
}

// RouteFill resolves the line's home node (placing the page on first
// touch), records the fill at that node's controller, and reports whether
// the fill is remote to the router's socket.
func (r *Router) RouteFill(lineAddr uint64) bool {
	p := r.p
	node := p.translate(lineAddr>>p.pageShift, r.socket)
	if node == r.socket {
		p.stats[node].fillsLocal.Add(1)
		return false
	}
	p.stats[node].fillsRemote.Add(1)
	return true
}

// RouteWriteback attributes a dirty LLC eviction to the evicted line's
// home controller. The evicted page is usually already placed (a demand
// fill preceded the line's caching), but not always: the next-line
// prefetcher installs lines without consulting the page table, and a
// store can dirty such a line before any demand fill touches its page —
// the translation therefore stays total, placing the page under the
// policy with the evicting socket as the toucher.
func (r *Router) RouteWriteback(lineAddr uint64) {
	p := r.p
	node := p.translate(lineAddr>>p.pageShift, r.socket)
	p.stats[node].writebacks.Add(1)
}

// RemotePossible reports whether RouteFill can ever return true — false
// for a single-node placement, which keeps single-socket stacks emitting
// the exact pre-NUMA trace format (no remote source label, no remote
// counter).
func (r *Router) RemotePossible() bool { return r.p.nodes > 1 }
