package sweep

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"syscall"

	"mcnet/internal/mcsim"
)

// Outcome is the cached product of one job: the simulation measurements.
// The analytic curve is recomputed on every run (it is cheap and depends on
// the spec's model preset, which is not part of the job identity).
type Outcome struct {
	// SimLatency is the mean generation→delivery latency of the measured
	// messages (NaN when none were delivered).
	SimLatency Float `json:"sim_latency"`
	// SimSourceWait is the mean injection-queue wait (the quantity the
	// model's Eqs. 23/30 approximate).
	SimSourceWait Float `json:"sim_source_wait"`
	// SimPOut is the observed fraction of measured messages that left their
	// source cluster (compare Eq. 13).
	SimPOut Float `json:"sim_pout"`
	// Delivered counts measured messages that arrived; Truncated reports an
	// exhausted event budget (extreme saturation).
	Delivered int  `json:"delivered"`
	Truncated bool `json:"truncated"`
	// Telemetry is the per-tier contention digest, present only when the
	// job ran with telemetry enabled (Spec.Telemetry). The omitempty keeps
	// telemetry-off cache files and serialized results byte-identical to
	// previous versions; a cached outcome without it does not satisfy a
	// telemetry-requesting run (the engine re-executes and re-stores).
	Telemetry *mcsim.TelemetrySummary `json:"telemetry,omitempty"`
}

// Cache stores job outcomes by content key. Implementations must be safe for
// concurrent use by the engine's workers.
type Cache interface {
	// Get returns the cached outcome for key, if present.
	Get(key string) (Outcome, bool)
	// Put stores the outcome for key.
	Put(key string, o Outcome) error
}

// DirCache is a disk-backed cache holding one JSON file per job, so sweeps
// survive interruption and re-runs resume instantly. It is safe for
// concurrent use by multiple engines — even in separate processes — sharing
// one directory: entries are written to a temporary file and atomically
// renamed into place, so readers never observe a partial entry, and
// concurrent writers of the same key (necessarily writing the same outcome,
// the key is a content hash of the job) settle on a complete file either
// way.
type DirCache struct {
	dir    string
	prefix string // dir and a separator: an entry's path is prefix+key+".json"
}

// ValidKey reports whether key is acceptable to DirCache: non-empty, at most
// 200 bytes (headroom for the temp-file and .json suffixes within a 255-byte
// filename limit), and built only from ASCII letters,
// digits, '-' and '_'. Job content hashes (lower-case hex) always qualify;
// the restriction exists because the serving layer accepts keys over the
// wire, and a key must never be able to address a path outside the cache
// directory.
func ValidKey(key string) bool {
	if key == "" || len(key) > 200 {
		return false
	}
	for i := 0; i < len(key); i++ {
		c := key[i]
		switch {
		case c >= '0' && c <= '9':
		case c >= 'a' && c <= 'z':
		case c >= 'A' && c <= 'Z':
		case c == '-' || c == '_':
		default:
			return false
		}
	}
	return true
}

// NewDirCache opens (creating if needed) a cache rooted at dir.
func NewDirCache(dir string) (*DirCache, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &DirCache{dir: dir, prefix: filepath.Clean(dir) + string(filepath.Separator)}, nil
}

// Dir returns the cache's root directory.
func (c *DirCache) Dir() string { return c.dir }

func (c *DirCache) path(key string) string {
	return c.prefix + key + ".json"
}

// entryBuf sizes Get's stack buffer: a telemetry-off entry is ~110 bytes
// and a telemetry-on one ~600.
const entryBuf = 1024

// Get implements Cache. Entries are read in the form Put writes them;
// unreadable or corrupt entries, and anything else, count as misses, as do
// keys ValidKey rejects. The entry is read with plain system calls into a
// stack buffer, grown only when an entry fills it. os.Open would register
// the file with the runtime's network poller, which a regular file never
// needs, at three more system calls and two more allocations per entry.
func (c *DirCache) Get(key string) (Outcome, bool) {
	if !ValidKey(key) {
		return Outcome{}, false
	}
	fd, err := syscall.Open(c.path(key), syscall.O_RDONLY|syscall.O_CLOEXEC, 0)
	if err != nil {
		return Outcome{}, false
	}
	var stack [entryBuf]byte
	b := stack[:0]
	for {
		n, err := syscall.Read(fd, b[len(b):cap(b)])
		if err == syscall.EINTR {
			continue
		}
		if err != nil {
			syscall.Close(fd)
			return Outcome{}, false
		}
		b = b[:len(b)+n]
		// A short read of a regular file ends it.
		if len(b) < cap(b) {
			break
		}
		b = append(b, 0)[:len(b)]
	}
	syscall.Close(fd)
	return parseEntry(b)
}

// Put implements Cache. The entry is written to a temporary file and renamed
// into place, so a concurrent reader never observes a partial entry.
func (c *DirCache) Put(key string, o Outcome) error {
	if !ValidKey(key) {
		return fmt.Errorf("sweep: invalid cache key %q", key)
	}
	var stack [entryBuf]byte
	b, err := appendOutcome(stack[:0], &o)
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(c.dir, key+".tmp*")
	if err != nil {
		return err
	}
	_, err = tmp.Write(b)
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), c.path(key))
	}
	if err != nil {
		os.Remove(tmp.Name())
	}
	return err
}

// Len returns the number of cached entries.
func (c *DirCache) Len() int {
	entries, err := os.ReadDir(c.dir)
	if err != nil {
		return 0
	}
	n := 0
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".json") {
			n++
		}
	}
	return n
}

// Delete removes one cached entry; deleting an absent key is not an error.
func (c *DirCache) Delete(key string) error {
	if !ValidKey(key) {
		return fmt.Errorf("sweep: invalid cache key %q", key)
	}
	err := os.Remove(c.path(key))
	if err != nil && !os.IsNotExist(err) {
		return err
	}
	return nil
}
