package sweep

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"

	"repro/internal/atomicio"
)

// Cache is a directory-backed store of canonical Metrics JSON keyed by the
// point content hash: one <key>.json file per entry, written atomically
// (temp + rename through atomicio) so a crashed writer never leaves a
// truncated entry that would later be served as a result. Reads are
// defensive anyway: an entry that is not complete, valid JSON — a torn
// write by a non-atomic producer, a truncating filesystem crash, manual
// tampering — is evicted with a notice and reported as a miss, so one
// corrupt file costs a re-simulation, never the point. Multiple processes
// may share one cache directory: rename is atomic, so readers observe
// either the old complete entry or the new complete entry, never a tear.
type Cache struct {
	dir string
	// Notice, when non-nil, receives one call per evicted corrupt entry.
	// Set it before the cache is shared between goroutines.
	Notice func(key string, err error)
}

var keyPattern = regexp.MustCompile(`^[0-9a-f]{64}$`)

// OpenCache creates dir if needed and returns the cache over it.
func OpenCache(dir string) (*Cache, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("sweep: cache: %w", err)
	}
	return &Cache{dir: dir}, nil
}

func (c *Cache) path(key string) (string, error) {
	// The key is interpolated into a filesystem path; only the hex digest
	// shape Key produces is accepted.
	if !keyPattern.MatchString(key) {
		return "", fmt.Errorf("sweep: cache: malformed key %q", key)
	}
	return filepath.Join(c.dir, key+".json"), nil
}

// Get returns the cached metrics bytes for key, or ok=false on a miss. A
// corrupt or truncated entry is evicted and reported as a miss: serving torn
// bytes as a simulation result would be worse than re-simulating the point.
func (c *Cache) Get(key string) ([]byte, bool, error) {
	p, err := c.path(key)
	if err != nil {
		return nil, false, err
	}
	b, err := os.ReadFile(p)
	if os.IsNotExist(err) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, fmt.Errorf("sweep: cache: %w", err)
	}
	if verr := validEntry(b); verr != nil {
		// Remove may fail if a concurrent writer just replaced the entry
		// with a good one — the next Get will read that one; either way the
		// corrupt bytes are never returned.
		os.Remove(p)
		if c.Notice != nil {
			c.Notice(key, verr)
		}
		return nil, false, nil
	}
	return b, true, nil
}

// validEntry checks that cached bytes form a complete metrics document. A
// torn write truncates the JSON mid-token, which json.Valid rejects.
func validEntry(b []byte) error {
	if len(b) == 0 {
		return fmt.Errorf("sweep: cache: empty entry")
	}
	if !json.Valid(b) {
		return fmt.Errorf("sweep: cache: corrupt or truncated entry (%d bytes)", len(b))
	}
	return nil
}

// Put stores the metrics bytes for key, replacing any existing entry
// atomically.
func (c *Cache) Put(key string, b []byte) error {
	p, err := c.path(key)
	if err != nil {
		return err
	}
	return atomicio.WriteFile(p, func(w io.Writer) error {
		_, werr := w.Write(b)
		return werr
	})
}
