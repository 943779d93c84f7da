package machspec

import (
	"bytes"
	"os"
	"reflect"
	"strings"
	"testing"

	"repro/internal/memhier"
	"repro/internal/numa"
)

// valid returns a well-formed spec document for the rejection tables to
// perturb.
func valid() string {
	return `{
  "version": 1,
  "name": "test",
  "cache": {
    "levels": [
      {"name": "L1D", "size": 32768, "line_size": 64, "assoc": 8, "hit_latency": 4},
      {"name": "L2", "size": 262144, "line_size": 64, "assoc": 8, "hit_latency": 12}
    ],
    "next_line_prefetch": true
  },
  "dram": {"latency": 230}
}`
}

func TestDecodeValid(t *testing.T) {
	s, err := Decode(strings.NewReader(valid()))
	if err != nil {
		t.Fatal(err)
	}
	if s.Name != "test" || len(s.Cache.Levels) != 2 || s.DRAM.Latency != 230 {
		t.Fatalf("decoded spec mangled: %+v", s)
	}
	// The resolution must be accepted by the real constructor: machspec's
	// mirrored validation may be stricter than memhier's, never looser.
	if _, err := memhier.New(s.Memhier()); err != nil {
		t.Fatalf("validated spec rejected by memhier.New: %v", err)
	}
}

// TestDecodeRejects is the table of hostile/contradictory documents:
// unknown fields, version mismatches, and every mirrored memhier/numa
// limit.
func TestDecodeRejects(t *testing.T) {
	cases := []struct {
		name string
		doc  string
		want string // substring of the error
	}{
		{"unknown top-level field", `{"version": 1, "frequency_ghz": 2.5, "cache": {"levels": [{"name": "L1D", "size": 32768, "line_size": 64, "assoc": 8, "hit_latency": 4}]}, "dram": {"latency": 230}}`, "unknown field"},
		{"unknown level field", `{"version": 1, "cache": {"levels": [{"name": "L1D", "size": 32768, "line_size": 64, "assoc": 8, "hit_latency": 4, "mshr": 10}]}, "dram": {"latency": 230}}`, "unknown field"},
		{"unknown sampling field", `{"version": 1, "cache": {"levels": [{"name": "L1D", "size": 32768, "line_size": 64, "assoc": 8, "hit_latency": 4}]}, "dram": {"latency": 230}, "sampling": {"periodicity": 100}}`, "unknown field"},
		{"version 0", `{"version": 0, "cache": {"levels": [{"name": "L1D", "size": 32768, "line_size": 64, "assoc": 8, "hit_latency": 4}]}, "dram": {"latency": 230}}`, "unsupported spec version 0"},
		{"version 2", `{"version": 2, "cache": {"levels": [{"name": "L1D", "size": 32768, "line_size": 64, "assoc": 8, "hit_latency": 4}]}, "dram": {"latency": 230}}`, "unsupported spec version 2"},
		{"trailing garbage", valid() + `{"version": 1}`, "trailing data"},
		{"no levels", `{"version": 1, "cache": {"levels": []}, "dram": {"latency": 230}}`, "no cache levels"},
		{"four levels", `{"version": 1, "cache": {"levels": [
			{"name": "L1D", "size": 32768, "line_size": 64, "assoc": 8, "hit_latency": 4},
			{"name": "L2", "size": 65536, "line_size": 64, "assoc": 8, "hit_latency": 12},
			{"name": "L3", "size": 131072, "line_size": 64, "assoc": 8, "hit_latency": 36},
			{"name": "L4", "size": 262144, "line_size": 64, "assoc": 8, "hit_latency": 80}]},
			"dram": {"latency": 230}}`, "4 cache levels exceed the modelled 3"},
		{"assoc zero", `{"version": 1, "cache": {"levels": [{"name": "L1D", "size": 32768, "line_size": 64, "assoc": 0, "hit_latency": 4}]}, "dram": {"latency": 230}}`, "assoc 0 invalid"},
		{"assoc 128", `{"version": 1, "cache": {"levels": [{"name": "L1D", "size": 1048576, "line_size": 64, "assoc": 128, "hit_latency": 4}]}, "dram": {"latency": 230}}`, "assoc 128 invalid"},
		{"line size not pow2", `{"version": 1, "cache": {"levels": [{"name": "L1D", "size": 32760, "line_size": 63, "assoc": 8, "hit_latency": 4}]}, "dram": {"latency": 230}}`, "line_size 63"},
		{"line size mismatch", `{"version": 1, "cache": {"levels": [
			{"name": "L1D", "size": 32768, "line_size": 64, "assoc": 8, "hit_latency": 4},
			{"name": "L2", "size": 262144, "line_size": 128, "assoc": 8, "hit_latency": 12}]},
			"dram": {"latency": 230}}`, "line_size 128 differs from L1 64"},
		{"size not divisible", `{"version": 1, "cache": {"levels": [{"name": "L1D", "size": 32769, "line_size": 64, "assoc": 8, "hit_latency": 4}]}, "dram": {"latency": 230}}`, "not divisible"},
		{"set count not pow2", `{"version": 1, "cache": {"levels": [{"name": "L1D", "size": 36864, "line_size": 64, "assoc": 8, "hit_latency": 4}]}, "dram": {"latency": 230}}`, "set count 72 not a power of two"},
		{"hostile size", `{"version": 1, "cache": {"levels": [{"name": "L1D", "size": 1099511627776, "line_size": 64, "assoc": 8, "hit_latency": 4}]}, "dram": {"latency": 230}}`, "out of range"},
		{"latency not monotonic", `{"version": 1, "cache": {"levels": [
			{"name": "L1D", "size": 32768, "line_size": 64, "assoc": 8, "hit_latency": 12},
			{"name": "L2", "size": 262144, "line_size": 64, "assoc": 8, "hit_latency": 12}]},
			"dram": {"latency": 230}}`, "not greater than the previous level"},
		{"dram latency zero", `{"version": 1, "cache": {"levels": [{"name": "L1D", "size": 32768, "line_size": 64, "assoc": 8, "hit_latency": 4}]}, "dram": {"latency": 0}}`, "dram latency must be > 0"},
		{"dram below cache", `{"version": 1, "cache": {"levels": [{"name": "L1D", "size": 32768, "line_size": 64, "assoc": 8, "hit_latency": 40}]}, "dram": {"latency": 36}}`, "dram latency 36 not greater"},
		{"remote below local", `{"version": 1, "sockets": 2, "cache": {"levels": [{"name": "L1D", "size": 32768, "line_size": 64, "assoc": 8, "hit_latency": 4}]}, "dram": {"latency": 230, "remote_latency": 100}}`, "remote dram latency 100 below local 230"},
		{"remote on flat machine", `{"version": 1, "cache": {"levels": [{"name": "L1D", "size": 32768, "line_size": 64, "assoc": 8, "hit_latency": 4}]}, "dram": {"latency": 230, "remote_latency": 370}}`, "remote DRAM latency requires >= 2 sockets"},
		{"negative sockets", `{"version": 1, "sockets": -1, "cache": {"levels": [{"name": "L1D", "size": 32768, "line_size": 64, "assoc": 8, "hit_latency": 4}]}, "dram": {"latency": 230}}`, "socket count must be >= 0"},
		{"too many sockets", `{"version": 1, "sockets": 65, "cache": {"levels": [{"name": "L1D", "size": 32768, "line_size": 64, "assoc": 8, "hit_latency": 4}]}, "dram": {"latency": 230}}`, "65 sockets exceed"},
		{"placement on flat machine", `{"version": 1, "placement": "interleave", "cache": {"levels": [{"name": "L1D", "size": 32768, "line_size": 64, "assoc": 8, "hit_latency": 4}]}, "dram": {"latency": 230}}`, "requires a NUMA topology"},
		{"unknown placement", `{"version": 1, "sockets": 2, "placement": "striped", "cache": {"levels": [{"name": "L1D", "size": 32768, "line_size": 64, "assoc": 8, "hit_latency": 4}]}, "dram": {"latency": 230}}`, "unknown placement policy"},
		{"page size on flat machine", `{"version": 1, "page_size": 4096, "cache": {"levels": [{"name": "L1D", "size": 32768, "line_size": 64, "assoc": 8, "hit_latency": 4}]}, "dram": {"latency": 230}}`, "page_size 4096 without a NUMA topology"},
		{"page size not pow2", `{"version": 1, "sockets": 2, "page_size": 5000, "cache": {"levels": [{"name": "L1D", "size": 32768, "line_size": 64, "assoc": 8, "hit_latency": 4}]}, "dram": {"latency": 230}}`, "page_size 5000 not a power of two"},
		{"sampling period zero", `{"version": 1, "cache": {"levels": [{"name": "L1D", "size": 32768, "line_size": 64, "assoc": 8, "hit_latency": 4}]}, "dram": {"latency": 230}, "sampling": {"period": 0}}`, "sampling period must be > 0"},
		{"unnamed level", `{"version": 1, "cache": {"levels": [{"size": 32768, "line_size": 64, "assoc": 8, "hit_latency": 4}]}, "dram": {"latency": 230}}`, "level 0 has no name"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Decode(strings.NewReader(tc.doc))
			if err == nil {
				t.Fatalf("hostile document accepted")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestNamedSpecs pins the embedded registry: the three named hierarchies
// decode, validate, resolve through memhier.New, and carry their own names.
func TestNamedSpecs(t *testing.T) {
	want := []string{"haswell", "noprefetch", "small"}
	if got := Names(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Names() = %v, want %v", got, want)
	}
	for _, name := range want {
		s, err := Named(name)
		if err != nil {
			t.Fatalf("Named(%q): %v", name, err)
		}
		if s.Name != name {
			t.Errorf("spec %q carries name %q", name, s.Name)
		}
		if _, err := memhier.New(s.Memhier()); err != nil {
			t.Errorf("spec %q rejected by memhier.New: %v", name, err)
		}
	}
	if _, err := Named("jureca"); err == nil || !strings.Contains(err.Error(), `unknown machine spec "jureca"`) {
		t.Fatalf("unknown name error = %v", err)
	}
}

// TestValidateTopology pins the shared override-validation messages that
// simrun, hpcgrepro and the scenario runner all surface.
func TestValidateTopology(t *testing.T) {
	cases := []struct {
		sockets   int
		placement string
		remote    uint64
		want      string // "" = accepted
	}{
		{0, "", 0, ""},
		{2, "interleave", 370, ""},
		{2, "", 0, ""},
		{-1, "", 0, "machspec: socket count must be >= 0 (got -1)"},
		{0, "interleave", 0, `machspec: placement "interleave" requires a NUMA topology (sockets >= 1)`},
		{0, "striped", 0, `numa: unknown placement policy "striped" (have [first-touch interleave])`},
		{0, "", 370, "machspec: remote DRAM latency requires >= 2 sockets (got 0)"},
		{1, "", 370, "machspec: remote DRAM latency requires >= 2 sockets (got 1)"},
	}
	for _, tc := range cases {
		err := ValidateTopology(tc.sockets, tc.placement, tc.remote)
		if tc.want == "" {
			if err != nil {
				t.Errorf("ValidateTopology(%d, %q, %d) = %v, want nil", tc.sockets, tc.placement, tc.remote, err)
			}
			continue
		}
		if err == nil || err.Error() != tc.want {
			t.Errorf("ValidateTopology(%d, %q, %d) = %v, want %q", tc.sockets, tc.placement, tc.remote, err, tc.want)
		}
	}
}

// TestCanonicalFixedPoint: Decode∘Encode is a fixed point — re-decoding a
// spec's canonical JSON and re-encoding it reproduces the bytes.
func TestCanonicalFixedPoint(t *testing.T) {
	for _, name := range Names() {
		s, err := Named(name)
		if err != nil {
			t.Fatal(err)
		}
		b1, err := s.JSON()
		if err != nil {
			t.Fatal(err)
		}
		s2, err := Decode(bytes.NewReader(b1))
		if err != nil {
			t.Fatalf("canonical JSON of %q does not re-decode: %v", name, err)
		}
		s2.Name = s.Name // Decode (unlike Load/Named) cannot default the name
		b2, err := s2.JSON()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b1, b2) {
			t.Errorf("spec %q: decode∘encode not a fixed point", name)
		}
	}
}

// TestResolve covers the path-vs-name split.
func TestResolve(t *testing.T) {
	s, err := Resolve("haswell")
	if err != nil || s.Name != "haswell" {
		t.Fatalf("Resolve(haswell) = %+v, %v", s, err)
	}
	dir := t.TempDir()
	path := dir + "/custom.json"
	if err := os.WriteFile(path, []byte(valid()), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err = Resolve(path)
	if err != nil {
		t.Fatal(err)
	}
	if s.Name != "test" {
		t.Fatalf("file spec name = %q, want the document's own", s.Name)
	}
	if _, err := Resolve("no-such-machine"); err == nil {
		t.Fatal("unknown reference accepted")
	}
}

// TestSpecNUMAConfig pins the numa resolution, including that the remote
// latency flows through the NUMA config (not the flat cache config).
func TestSpecNUMAConfig(t *testing.T) {
	doc := `{
  "version": 1, "sockets": 2, "placement": "interleave", "page_size": 8192,
  "cache": {"levels": [{"name": "L1D", "size": 32768, "line_size": 64, "assoc": 8, "hit_latency": 4}], "next_line_prefetch": true},
  "dram": {"latency": 230, "remote_latency": 370}
}`
	s, err := Decode(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	nc := s.NUMA()
	want := numa.Config{Sockets: 2, PageSize: 8192, Policy: numa.Interleave, RemoteDRAMLatency: 370}
	if nc != want {
		t.Fatalf("NUMA() = %+v, want %+v", nc, want)
	}
	if _, err := numa.New(nc); err != nil {
		t.Fatalf("resolved numa config rejected: %v", err)
	}
	if mc := s.Memhier(); mc.RemoteDRAMLatency != 0 {
		t.Fatalf("Memhier() carries RemoteDRAMLatency %d; it must flow via the NUMA config", mc.RemoteDRAMLatency)
	}
	if flat := (&Spec{}).NUMA(); flat != (numa.Config{}) {
		t.Fatalf("flat spec NUMA() = %+v, want zero", flat)
	}
}
