// Package machspec is the declarative machine description of the simulator:
// a versioned JSON document naming everything that defines the simulated
// hardware — sockets, cache levels (size/associativity/line/latency and the
// prefetcher), DRAM nodes with local and remote fill latencies, page
// placement, and the PEBS + multiplexing sampling configuration — decoded
// strictly (unknown fields rejected, semantic validation mirroring the
// memhier/numa construction limits) and resolved to the existing
// memhier.Config / numa.Config pair that the core stack consumes.
//
// The three named hierarchies of the scenario matrix (haswell, small,
// noprefetch) are checked-in spec files embedded in this package;
// scenario.HierarchyConfig resolves them through the same path as a
// user-supplied -machine file, so a spec-driven run and a named-hierarchy
// run cannot drift apart. Specs have a canonical JSON serialization
// (Spec.JSON), which the sweep engine's cache key hashes, so byte-identical
// machine descriptions are recognized as the same machine regardless of
// where they were loaded from.
package machspec

import (
	"bytes"
	"embed"
	"encoding/json"
	"fmt"
	"io"
	"math/bits"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/memhier"
	"repro/internal/numa"
)

// Version is the spec format version this package reads and writes.
const Version = 1

// Construction caps beyond the structural memhier/numa limits: they bound
// what a hostile spec can make the resolver allocate (the checkpoint codec's
// capped-preallocation discipline, applied to configuration).
const (
	// MaxLevelSize bounds one cache level's capacity (1 GiB — an order of
	// magnitude above any modelled LLC slice).
	MaxLevelSize = 1 << 30
	// MaxLineSize bounds the cache line size (the page-size end of sector
	// granularities).
	MaxLineSize = 4096
	// MaxSockets bounds the socket count (numa supports 255 nodes; 64 is
	// already far past the modelled testbeds).
	MaxSockets = 64
	// MaxPageSize bounds the placement granularity (1 GiB hugepages).
	MaxPageSize = 1 << 30
)

// Spec is one machine description.
type Spec struct {
	// Version is the spec format version; must equal Version.
	Version int `json:"version"`
	// Name labels the machine in reports and sweep tables. Load defaults it
	// to the file's base name when the document leaves it empty.
	Name string `json:"name,omitempty"`
	// Sockets is the NUMA socket count (= memory nodes). 0 describes the
	// flat single-L3 stack with no placement layer.
	Sockets int `json:"sockets,omitempty"`
	// Placement names the page placement policy of a NUMA machine
	// ("first-touch" or "interleave"; "" defaults to first-touch).
	Placement string `json:"placement,omitempty"`
	// PageSize is the placement granularity in bytes (power of two;
	// 0 selects the 4 KiB default).
	PageSize uint64 `json:"page_size,omitempty"`
	// Cache describes the cache hierarchy.
	Cache Cache `json:"cache"`
	// DRAM describes the memory nodes.
	DRAM DRAM `json:"dram"`
	// Sampling, when present, overrides the run's PEBS + multiplexing
	// configuration (nil inherits the scenario's or the cmd's defaults).
	Sampling *Sampling `json:"sampling,omitempty"`
}

// Cache describes the cache hierarchy of a Spec.
type Cache struct {
	// Levels lists the cache levels from closest (L1) to farthest (LLC).
	Levels []Level `json:"levels"`
	// NextLinePrefetch enables the next-line prefetcher.
	NextLinePrefetch bool `json:"next_line_prefetch"`
}

// Level describes one cache level.
type Level struct {
	// Name labels the level in reports ("L1D", "L2", ...).
	Name string `json:"name"`
	// Size is the total capacity in bytes.
	Size int `json:"size"`
	// LineSize is the cache-line size in bytes (power of two; every level
	// must use the L1 line size).
	LineSize int `json:"line_size"`
	// Assoc is the set associativity (1..127).
	Assoc int `json:"assoc"`
	// HitLatency is the access cost in cycles when this level serves data.
	HitLatency uint64 `json:"hit_latency"`
}

// DRAM describes the memory nodes of a Spec.
type DRAM struct {
	// Latency is the local-node fill cost in cycles.
	Latency uint64 `json:"latency"`
	// RemoteLatency is the cross-socket fill cost in cycles (0 selects the
	// numa default on multi-socket machines; requires >= 2 sockets when
	// set, and must not be below Latency).
	RemoteLatency uint64 `json:"remote_latency,omitempty"`
}

// Sampling is the optional PEBS + multiplexing section. Every field is a
// pointer: nil inherits the surrounding default (the scenario's sampling
// identity, or the cmd flags), a set field overrides it — which is what
// makes a sweep's sampling axis composable with the scenario matrix.
type Sampling struct {
	// Period samples every Period-th eligible operation per event class.
	Period *uint64 `json:"period,omitempty"`
	// MuxQuantumNs alternates load/store sampling every quantum
	// (0 disables multiplexing: both classes sampled throughout).
	MuxQuantumNs *uint64 `json:"mux_quantum_ns,omitempty"`
	// Randomize perturbs the inter-sample gaps (deterministically, from
	// Seed).
	Randomize *bool `json:"randomize,omitempty"`
	// Seed drives the randomized gaps.
	Seed *int64 `json:"seed,omitempty"`
	// LatencyThreshold drops load samples below the threshold.
	LatencyThreshold *uint64 `json:"latency_threshold,omitempty"`
}

// String renders the set fields compactly ("p50,mux25000") for sweep tables
// and labels; an all-nil override prints as "sampling-default".
func (s *Sampling) String() string {
	var parts []string
	if s.Period != nil {
		parts = append(parts, fmt.Sprintf("p%d", *s.Period))
	}
	if s.MuxQuantumNs != nil {
		parts = append(parts, fmt.Sprintf("mux%d", *s.MuxQuantumNs))
	}
	if s.Randomize != nil {
		parts = append(parts, fmt.Sprintf("rand=%t", *s.Randomize))
	}
	if s.Seed != nil {
		parts = append(parts, fmt.Sprintf("seed%d", *s.Seed))
	}
	if s.LatencyThreshold != nil {
		parts = append(parts, fmt.Sprintf("thr%d", *s.LatencyThreshold))
	}
	if len(parts) == 0 {
		return "sampling-default"
	}
	return strings.Join(parts, ",")
}

//go:embed specs/*.json
var specFS embed.FS

// Decode reads one spec document strictly: unknown fields are rejected (a
// typoed knob must fail loudly, not silently run the default machine),
// trailing garbage is rejected, and the result is validated.
func Decode(r io.Reader) (*Spec, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("machspec: %w", err)
	}
	if dec.More() {
		return nil, fmt.Errorf("machspec: trailing data after the spec document")
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// Load reads and validates a spec file. An empty Name defaults to the
// file's base name (sans .json), so sweep tables always have a label.
func Load(path string) (*Spec, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	s, err := Decode(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if s.Name == "" {
		s.Name = strings.TrimSuffix(filepath.Base(path), ".json")
	}
	return s, nil
}

// Names lists the embedded named machine specs (sorted).
func Names() []string {
	ents, err := specFS.ReadDir("specs")
	if err != nil {
		panic(err) // embedded FS: cannot fail
	}
	out := make([]string, 0, len(ents))
	for _, e := range ents {
		out = append(out, strings.TrimSuffix(e.Name(), ".json"))
	}
	sort.Strings(out)
	return out
}

// Named resolves an embedded named machine spec.
func Named(name string) (*Spec, error) {
	b, err := specFS.ReadFile("specs/" + name + ".json")
	if err != nil {
		return nil, fmt.Errorf("machspec: unknown machine spec %q (have %v)", name, Names())
	}
	s, err := Decode(bytes.NewReader(b))
	if err != nil {
		return nil, fmt.Errorf("machspec: embedded spec %q: %w", name, err)
	}
	if s.Name == "" {
		s.Name = name
	}
	return s, nil
}

// Resolve turns a machine reference into a spec: a path (anything
// containing a separator or ending in .json) is loaded from disk, anything
// else names an embedded spec.
func Resolve(ref string) (*Spec, error) {
	if strings.ContainsRune(ref, os.PathSeparator) || strings.HasSuffix(ref, ".json") {
		return Load(ref)
	}
	return Named(ref)
}

// Validate checks the spec against the format version and the semantic
// limits of the memhier/numa constructors it resolves into — mirrored here
// (rather than constructing a throwaway hierarchy) so hostile documents are
// rejected before anything is allocated from their counts.
func (s *Spec) Validate() error {
	if s.Version != Version {
		return fmt.Errorf("machspec: unsupported spec version %d (want %d)", s.Version, Version)
	}
	if err := ValidateTopology(s.Sockets, s.Placement, s.DRAM.RemoteLatency); err != nil {
		return err
	}
	if s.Sockets > MaxSockets {
		return fmt.Errorf("machspec: %d sockets exceed the supported %d", s.Sockets, MaxSockets)
	}
	if s.PageSize != 0 {
		if s.Sockets == 0 {
			return fmt.Errorf("machspec: page_size %d without a NUMA topology (set sockets >= 1)", s.PageSize)
		}
		if bits.OnesCount64(s.PageSize) != 1 || s.PageSize < 64 || s.PageSize > MaxPageSize {
			return fmt.Errorf("machspec: page_size %d not a power of two in 64..%d", s.PageSize, MaxPageSize)
		}
	}
	if n := len(s.Cache.Levels); n == 0 {
		return fmt.Errorf("machspec: no cache levels configured")
	} else if n > memhier.MaxCacheLevels {
		return fmt.Errorf("machspec: %d cache levels exceed the modelled %d (L1..L3 + DRAM)", n, memhier.MaxCacheLevels)
	}
	var prevLat uint64
	for i, lv := range s.Cache.Levels {
		if lv.Name == "" {
			return fmt.Errorf("machspec: cache level %d has no name", i)
		}
		if lv.LineSize <= 0 || lv.LineSize > MaxLineSize || bits.OnesCount(uint(lv.LineSize)) != 1 {
			return fmt.Errorf("machspec: level %s line_size %d not a power of two in 1..%d", lv.Name, lv.LineSize, MaxLineSize)
		}
		if lv.LineSize != s.Cache.Levels[0].LineSize {
			return fmt.Errorf("machspec: level %s line_size %d differs from L1 %d", lv.Name, lv.LineSize, s.Cache.Levels[0].LineSize)
		}
		if lv.Assoc < 1 || lv.Assoc > 127 {
			return fmt.Errorf("machspec: level %s assoc %d invalid (1..127)", lv.Name, lv.Assoc)
		}
		if lv.Size <= 0 || lv.Size > MaxLevelSize {
			return fmt.Errorf("machspec: level %s size %d out of range 1..%d", lv.Name, lv.Size, MaxLevelSize)
		}
		if lv.Size%(lv.LineSize*lv.Assoc) != 0 {
			return fmt.Errorf("machspec: level %s size %d not divisible by line_size*assoc", lv.Name, lv.Size)
		}
		if nsets := lv.Size / (lv.LineSize * lv.Assoc); bits.OnesCount(uint(nsets)) != 1 {
			return fmt.Errorf("machspec: level %s set count %d not a power of two", lv.Name, nsets)
		}
		if lv.HitLatency == 0 {
			return fmt.Errorf("machspec: level %s hit_latency must be > 0", lv.Name)
		}
		if lv.HitLatency <= prevLat {
			return fmt.Errorf("machspec: level %s hit_latency %d not greater than the previous level", lv.Name, lv.HitLatency)
		}
		prevLat = lv.HitLatency
	}
	if s.DRAM.Latency == 0 {
		return fmt.Errorf("machspec: dram latency must be > 0")
	}
	if s.DRAM.Latency <= prevLat {
		return fmt.Errorf("machspec: dram latency %d not greater than the last cache level", s.DRAM.Latency)
	}
	if s.DRAM.RemoteLatency != 0 && s.DRAM.RemoteLatency < s.DRAM.Latency {
		return fmt.Errorf("machspec: remote dram latency %d below local %d", s.DRAM.RemoteLatency, s.DRAM.Latency)
	}
	if sp := s.Sampling; sp != nil {
		if sp.Period != nil && *sp.Period == 0 {
			return fmt.Errorf("machspec: sampling period must be > 0 when set")
		}
	}
	return nil
}

// ValidateTopology checks a socket/placement/remote-latency selection —
// whether it came from a spec document or from per-cmd override flags. It
// is the one shared validation path of simrun, hpcgrepro and the scenario
// runner, so every surface rejects an inert or contradictory topology with
// the same message.
func ValidateTopology(sockets int, placement string, remoteLatency uint64) error {
	if sockets < 0 {
		return fmt.Errorf("machspec: socket count must be >= 0 (got %d)", sockets)
	}
	if placement != "" {
		if _, err := numa.ParsePolicy(placement); err != nil {
			return err
		}
		if sockets == 0 {
			// A placement with no NUMA topology is inert (one node: every
			// policy places identically, remote fills are impossible);
			// reject rather than silently run it.
			return fmt.Errorf("machspec: placement %q requires a NUMA topology (sockets >= 1)", placement)
		}
	}
	if remoteLatency != 0 && sockets < 2 {
		// A <2-socket machine has no remote fills to charge; silently
		// accepting the latency would make the knob look inert.
		return fmt.Errorf("machspec: remote DRAM latency requires >= 2 sockets (got %d)", sockets)
	}
	return nil
}

// Memhier resolves the cache + DRAM section to the hierarchy configuration.
// The remote latency is deliberately left out: it flows through the NUMA
// configuration (core.NewMachine stamps it into every socket's hierarchy),
// so a flat resolution stays bit-identical to the historical configs.
func (s *Spec) Memhier() memhier.Config {
	cfg := memhier.Config{
		DRAMLatency:      s.DRAM.Latency,
		NextLinePrefetch: s.Cache.NextLinePrefetch,
	}
	for _, lv := range s.Cache.Levels {
		cfg.Levels = append(cfg.Levels, memhier.LevelConfig{
			Name:       lv.Name,
			Size:       lv.Size,
			LineSize:   lv.LineSize,
			Assoc:      lv.Assoc,
			HitLatency: lv.HitLatency,
		})
	}
	return cfg
}

// NUMA resolves the topology section (the zero Config for flat machines).
func (s *Spec) NUMA() numa.Config {
	if s.Sockets == 0 {
		return numa.Config{}
	}
	policy, err := numa.ParsePolicy(s.Placement)
	if err != nil {
		// Validate accepted the spec; an unparseable policy cannot reach
		// here.
		panic(err)
	}
	return numa.Config{
		Sockets:           s.Sockets,
		PageSize:          s.PageSize,
		Policy:            policy,
		RemoteDRAMLatency: s.DRAM.RemoteLatency,
	}
}

// JSON returns the canonical serialization: two-space indented, fixed field
// order, trailing newline — the byte form the sweep cache key is computed
// over.
func (s *Spec) JSON() ([]byte, error) {
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}
