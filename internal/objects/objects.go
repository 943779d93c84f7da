// Package objects implements the data-object registry of the monitoring
// extensions: the table that matches sampled memory addresses to the data
// object owning them. Objects come from three sources, as in the paper:
//
//   - static data objects discovered by scanning the binary, identified by
//     their symbol name;
//   - dynamically allocated objects captured by instrumenting malloc and
//     friends, identified by their allocation call stack;
//   - allocation groups: manually delimited runs of many small consecutive
//     allocations wrapped into a single logical object spanning the first
//     to the last address — the workaround the paper applies to HPCG, whose
//     per-row allocations are hundreds of bytes each and would otherwise
//     fall below the tracking threshold and bloat the trace.
//
// The registry also performs per-object reference accounting (loads,
// stores, latency, data-source mix), which feeds the report's object table
// (the "124_GenerateProblem_ref.cpp|617 MB" annotations of Figure 1).
package objects

import (
	"fmt"
	"sync"

	"repro/internal/interval"
	"repro/internal/memhier"
	"repro/internal/prog"
)

// Kind classifies a data object.
type Kind int

const (
	// KindStatic is a named symbol from the binary's data segment.
	KindStatic Kind = iota
	// KindDynamic is a tracked individual heap allocation.
	KindDynamic
	// KindGroup is a manually wrapped group of small allocations.
	KindGroup
)

func (k Kind) String() string {
	switch k {
	case KindStatic:
		return "static"
	case KindDynamic:
		return "dynamic"
	case KindGroup:
		return "group"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Object is one resolvable data object with its reference accounting.
type Object struct {
	// ID is a dense registry-assigned identifier.
	ID int
	// Kind classifies the object's origin.
	Kind Kind
	// Name identifies the object: the symbol name (static), the allocation
	// site (dynamic), or the group label.
	Name string
	// StackID is the allocation call stack (dynamic objects; 0 otherwise).
	StackID uint32
	// Range is the address span [Lo, Hi). For groups it covers first to
	// last wrapped address, exactly like the paper's manual wrapping.
	Range interval.Interval
	// Bytes is the allocated payload: for groups, the sum of member sizes
	// (Range.Len() may exceed it due to allocator rounding).
	Bytes uint64
	// Members counts the allocations absorbed (1 unless a group).
	Members uint64
	// Live reports whether the object is still allocated.
	Live bool

	// Reference accounting, filled by Record.
	Refs       uint64
	Loads      uint64
	Stores     uint64
	LatencySum uint64
	Sources    [memhier.NumSources]uint64
}

// MeanLatency returns the average sampled access cost (0 when unreferenced).
func (o *Object) MeanLatency() float64 {
	if o.Refs == 0 {
		return 0
	}
	return float64(o.LatencySum) / float64(o.Refs)
}

// Config parameterizes the registry.
type Config struct {
	// MinTrackSize is the tracking threshold: individual dynamic
	// allocations smaller than this are not registered (the paper's
	// "allocations below the threshold"). Groups absorb allocations of any
	// size. 0 tracks everything.
	MinTrackSize uint64
	// Namer renders a dynamic allocation's identity from its call stack id;
	// defaults to "alloc_<stackID>".
	Namer func(stackID uint32) string
}

// Stats aggregates registry activity.
type Stats struct {
	// AllocsSeen counts allocation events observed.
	AllocsSeen uint64
	// AllocsTracked counts allocations registered individually.
	AllocsTracked uint64
	// AllocsGrouped counts allocations absorbed into groups.
	AllocsGrouped uint64
	// AllocsBelowThreshold counts allocations skipped by MinTrackSize.
	AllocsBelowThreshold uint64
	// Resolved and Unresolved count Record outcomes.
	Resolved   uint64
	Unresolved uint64
}

// Registry is the object table. Registration (allocation hooks, groups,
// binary scans) is single-threaded — it happens during problem setup —
// but one registry may be shared by the monitors of a multi-core Machine,
// whose sampling paths call Record/Resolve concurrently; those paths are
// serialized by an internal mutex. Samples are rare (one per PEBS period),
// so the lock is uncontended and never touches the non-sampled fast path.
type Registry struct {
	cfg    Config
	mu     sync.Mutex
	tree   interval.Tree[*Object]
	objs   []*Object
	byAddr map[uint64]*Object // live dynamic objects by base address
	group  *Object            // open group, if any
	stats  Stats
}

// NewRegistry creates an empty registry.
func NewRegistry(cfg Config) *Registry {
	if cfg.Namer == nil {
		cfg.Namer = func(id uint32) string { return fmt.Sprintf("alloc_%d", id) }
	}
	return &Registry{cfg: cfg, byAddr: make(map[uint64]*Object)}
}

// Stats returns a copy of the counters.
func (r *Registry) Stats() Stats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.stats
}

func (r *Registry) add(o *Object) *Object {
	o.ID = len(r.objs)
	r.objs = append(r.objs, o)
	// Insert errors only on empty ranges, which the callers exclude.
	if err := r.tree.Insert(o.Range, o); err != nil {
		panic(fmt.Sprintf("objects: inserting %v: %v", o.Range, err))
	}
	return o
}

// AddStatic registers a static data object by name.
func (r *Registry) AddStatic(obj prog.StaticObject) (*Object, error) {
	if obj.Size == 0 {
		return nil, fmt.Errorf("objects: static object %q has zero size", obj.Name)
	}
	o := &Object{
		Kind:    KindStatic,
		Name:    obj.Name,
		Range:   interval.Interval{Lo: obj.Addr, Hi: obj.Addr + obj.Size},
		Bytes:   obj.Size,
		Members: 1,
		Live:    true,
	}
	return r.add(o), nil
}

// ScanBinary registers every static data object of the binary, as Extrae's
// binary scan does at startup.
func (r *Registry) ScanBinary(b *prog.Binary) error {
	for _, s := range b.StaticObjects() {
		if _, err := r.AddStatic(s); err != nil {
			return err
		}
	}
	return nil
}

// BeginGroup opens a manual allocation group. Until EndGroup, every
// allocation is absorbed into a single object named name. Groups model the
// paper's manual wrapping of the first and last addresses of a run of small
// allocations. Only one group may be open at a time.
func (r *Registry) BeginGroup(name string) error {
	if r.group != nil {
		return fmt.Errorf("objects: group %q already open", r.group.Name)
	}
	r.group = &Object{Kind: KindGroup, Name: name, Live: true}
	return nil
}

// EndGroup closes the open group and registers its wrapped range.
func (r *Registry) EndGroup() (*Object, error) {
	if r.group == nil {
		return nil, fmt.Errorf("objects: no group open")
	}
	g := r.group
	r.group = nil
	if g.Members == 0 {
		return nil, fmt.Errorf("objects: group %q absorbed no allocations", g.Name)
	}
	return r.add(g), nil
}

// OnAlloc handles one allocation event (wire it to prog.Hooks.OnAlloc).
func (r *Registry) OnAlloc(info prog.AllocInfo) {
	r.stats.AllocsSeen++
	if r.group != nil {
		g := r.group
		if g.Members == 0 || info.Addr < g.Range.Lo {
			g.Range.Lo = info.Addr
		}
		if end := info.Addr + info.Size; end > g.Range.Hi {
			g.Range.Hi = end
		}
		g.Bytes += info.Size
		g.Members++
		if g.StackID == 0 {
			g.StackID = info.StackID
		}
		r.stats.AllocsGrouped++
		return
	}
	if r.cfg.MinTrackSize > 0 && info.Size < r.cfg.MinTrackSize {
		r.stats.AllocsBelowThreshold++
		return
	}
	o := &Object{
		Kind:    KindDynamic,
		Name:    r.cfg.Namer(info.StackID),
		StackID: info.StackID,
		Range:   interval.Interval{Lo: info.Addr, Hi: info.Addr + info.Size},
		Bytes:   info.Size,
		Members: 1,
		Live:    true,
	}
	r.add(o)
	r.byAddr[info.Addr] = o
	r.stats.AllocsTracked++
}

// OnFree handles one free event (wire it to prog.Hooks.OnFree). Freed
// dynamic objects are marked dead and removed from address resolution but
// keep their accumulated accounting; group members are never individually
// freed in the modelled workloads, so groups stay live.
func (r *Registry) OnFree(info prog.AllocInfo) {
	o, ok := r.byAddr[info.Addr]
	if !ok {
		return
	}
	delete(r.byAddr, info.Addr)
	o.Live = false
	// Remove from the tree so stale ranges cannot shadow reused addresses.
	if err := r.tree.Delete(o.Range); err != nil {
		panic(fmt.Sprintf("objects: deleting %v: %v", o.Range, err))
	}
}

// Resolve finds the object containing addr.
func (r *Registry) Resolve(addr uint64) (*Object, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	_, o, ok := r.tree.Stab(addr)
	return o, ok
}

// Record resolves addr and accumulates reference accounting. It returns the
// object, or ok=false when the address belongs to no tracked object (the
// unresolved case that dominated the paper's preliminary HPCG analysis).
// Safe for concurrent use by several monitors sharing the registry.
func (r *Registry) Record(addr uint64, latency uint64, store bool, src memhier.DataSource) (*Object, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	_, o, ok := r.tree.Stab(addr)
	if !ok {
		r.stats.Unresolved++
		return nil, false
	}
	r.stats.Resolved++
	o.Refs++
	if store {
		o.Stores++
	} else {
		o.Loads++
	}
	o.LatencySum += latency
	if src >= 0 && int(src) < len(o.Sources) {
		o.Sources[src]++
	}
	return o, true
}

// ResolutionRate returns Resolved/(Resolved+Unresolved), the headline metric
// of the paper's grouping experiment (1 when no references recorded).
func (r *Registry) ResolutionRate() float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	total := r.stats.Resolved + r.stats.Unresolved
	if total == 0 {
		return 1
	}
	return float64(r.stats.Resolved) / float64(total)
}

// Objects returns all registered objects in registration order.
func (r *Registry) Objects() []*Object { return r.objs }

// Label renders the paper-style object annotation "name|size MB".
func (o *Object) Label() string {
	mb := float64(o.Bytes) / (1 << 20)
	switch {
	case mb >= 1:
		return fmt.Sprintf("%s|%.0f MB", o.Name, mb)
	case o.Bytes >= 1<<10:
		return fmt.Sprintf("%s|%.0f KB", o.Name, float64(o.Bytes)/(1<<10))
	default:
		return fmt.Sprintf("%s|%d B", o.Name, o.Bytes)
	}
}
