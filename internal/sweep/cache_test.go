package sweep

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// memCache is an in-memory Cache for tests.
type memCache struct {
	mu sync.Mutex
	m  map[string]Outcome
}

func newMemCache() *memCache { return &memCache{m: make(map[string]Outcome)} }

func (c *memCache) Get(key string) (Outcome, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	o, ok := c.m[key]
	return o, ok
}

func (c *memCache) Put(key string, o Outcome) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.m[key] = o
	return nil
}

func TestDirCacheRoundTrip(t *testing.T) {
	c, err := NewDirCache(filepath.Join(t.TempDir(), "cache"))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get("absent"); ok {
		t.Error("empty cache reported a hit")
	}
	o := Outcome{
		SimLatency:    21.5,
		SimSourceWait: 0.25,
		SimPOut:       Float(math.NaN()),
		Delivered:     1000,
		Truncated:     true,
	}
	if err := c.Put("k1", o); err != nil {
		t.Fatal(err)
	}
	got, ok := c.Get("k1")
	if !ok {
		t.Fatal("stored entry missing")
	}
	if got.SimLatency != o.SimLatency || got.Delivered != o.Delivered || !got.Truncated {
		t.Errorf("round trip: got %+v, want %+v", got, o)
	}
	if !math.IsNaN(float64(got.SimPOut)) {
		t.Errorf("NaN did not round-trip: %v", got.SimPOut)
	}
	if c.Len() != 1 {
		t.Errorf("Len = %d, want 1", c.Len())
	}
}

func TestDirCacheCorruptEntryIsMiss(t *testing.T) {
	dir := t.TempDir()
	c, err := NewDirCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "bad.json"), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get("bad"); ok {
		t.Error("corrupt entry reported as hit")
	}
}

func TestDirCacheClear(t *testing.T) {
	c, err := NewDirCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"a", "b"} {
		if err := c.Put(k, Outcome{SimLatency: 1}); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Clear(); err != nil {
		t.Fatal(err)
	}
	if c.Len() != 0 {
		t.Errorf("Len after Clear = %d", c.Len())
	}
	if _, ok := c.Get("a"); ok {
		t.Error("entry survived Clear")
	}
}

func TestDirCacheReopen(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cache")
	c1, err := NewDirCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := c1.Put("k", Outcome{SimLatency: 3.5, Delivered: 7}); err != nil {
		t.Fatal(err)
	}
	c2, err := NewDirCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := c2.Get("k")
	if !ok || got.SimLatency != 3.5 || got.Delivered != 7 {
		t.Errorf("reopened cache: %+v, ok=%v", got, ok)
	}
}

// Clear removes every cached entry, forcing the next run to re-execute.
func (c *DirCache) Clear() error {
	entries, err := os.ReadDir(c.dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".json") {
			if err := os.Remove(filepath.Join(c.dir, e.Name())); err != nil {
				return err
			}
		}
	}
	return nil
}

// TestDirCachePutFailedRenameLeavesNoTemp checks that a Put whose rename
// fails (here the entry's path is a directory) removes its temporary file.
func TestDirCachePutFailedRenameLeavesNoTemp(t *testing.T) {
	dir := t.TempDir()
	c, err := NewDirCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(filepath.Join(dir, "abc123.json"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := c.Put("abc123", Outcome{SimLatency: 1}); err == nil {
		t.Fatal("Put over a directory succeeded")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.Name() != "abc123.json" {
			t.Errorf("Put left %s behind", e.Name())
		}
	}
}
