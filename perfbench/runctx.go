package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// runContext is the configuration every report carries, so a number is
// never read without the box size, machine and code it was measured on.
type runContext struct {
	Workload     string         `json:"workload"`
	Why          string         `json:"why"`
	Seed         int64          `json:"seed"`
	Traced       bool           `json:"traced"`
	Seconds      float64        `json:"seconds"`
	NProc        int            `json:"nproc"`
	GOMAXPROCS   int            `json:"gomaxprocs"`
	CPU          string         `json:"cpu"`
	GoVersion    string         `json:"go_version"`
	Commit       string         `json:"commit"`
	SourceDigest string         `json:"source_digest"`
	CacheStart   string         `json:"modelled_cache_start"`
	Config       map[string]any `json:"config"`
}

func printContext(w io.Writer, wl workload, e *env, budget time.Duration) {
	ctx := runContext{
		Workload:     wl.name,
		Why:          wl.why,
		Seed:         e.seed,
		Traced:       e.traced,
		Seconds:      budget.Seconds(),
		NProc:        runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		CPU:          cpuModel(),
		GoVersion:    runtime.Version(),
		Commit:       commit,
		SourceDigest: sourceDigest(e.root),
		CacheStart:   "cold: every job builds a fresh simulated machine, so modelled caches start empty",
		Config:       wl.config,
	}
	b, err := json.Marshal(map[string]runContext{"context": ctx})
	if err != nil {
		fmt.Fprintf(w, "context: %v\n", err)
		return
	}
	fmt.Fprintf(w, "%s\n", b)
}

// cpuModel is the host CPU's model name ("unknown" when not on Linux).
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceDigest hashes the repository's non-test Go sources and go.mod, so
// runs from a checkout without version control still name the code they
// measured.
func sourceDigest(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // an unreadable entry only weakens the digest
		}
		if d.IsDir() {
			switch d.Name() {
			case ".git", ".bench_build", "vendor", "perfbench":
				return filepath.SkipDir
			}
			return nil
		}
		if (strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go")) || path == filepath.Join(root, "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		b, err := os.ReadFile(p)
		if err != nil {
			return "unknown"
		}
		rel, _ := filepath.Rel(root, p)
		fmt.Fprintf(h, "%s %d\n", rel, len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
