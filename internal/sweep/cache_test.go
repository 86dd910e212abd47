package sweep

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"

	"mcnet/internal/mcsim"
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

// telemetryOutcome is a telemetry-on outcome, the larger of the two entry
// forms.
func telemetryOutcome() Outcome {
	return Outcome{SimLatency: 40.25, SimSourceWait: 3.5, SimPOut: 0.75, Delivered: 2000,
		Telemetry: &mcsim.TelemetrySummary{
			Tiers:      []mcsim.TierSummary{{Tier: "icn1"}, {Tier: "ecn1"}, {Tier: "concentrator"}, {Tier: "icn2"}},
			Bottleneck: "icn2", MeanQueueing: 1.5, MeanBlocking: 2.25, MeanTransmission: 12,
		}}
}

// TestDirCacheReadEdgeCases: entry files of awkward sizes and shapes — at,
// below and above Get's stack buffer, empty, cut short, or a directory in
// the entry's place — read as misses and never panic, while a valid entry
// padded to the same sizes (JSON whitespace before the closing brace) reads
// back whole.
func TestDirCacheReadEdgeCases(t *testing.T) {
	dir := t.TempDir()
	c, err := NewDirCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	o := telemetryOutcome()
	entry, err := appendOutcome(nil, &o)
	if err != nil {
		t.Fatal(err)
	}
	padded := func(size int) []byte {
		b := append([]byte(nil), entry[:len(entry)-1]...)
		b = append(b, bytes.Repeat([]byte{' '}, size-len(entry))...)
		return append(b, '}')
	}
	junk := func(size int) []byte { return append([]byte(`{"sim_latency":`), bytes.Repeat([]byte{'9'}, size-15)...) }
	write := func(key string, b []byte) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, key+".json"), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	misses := map[string][]byte{
		"junk-1024":    junk(entryBuf),
		"junk-3072":    junk(3 << 10),
		"empty":        {},
		"truncated":    entry[:len(entry)-1],
		"half":         entry[:len(entry)/2],
		"pad-1024-cut": padded(entryBuf)[:entryBuf-1],
	}
	for key, b := range misses {
		write(key, b)
	}
	if err := os.Mkdir(filepath.Join(dir, "dir.json"), 0o755); err != nil {
		t.Fatal(err)
	}
	misses["dir"] = nil
	for key := range misses {
		if got, ok := c.Get(key); ok {
			t.Errorf("%s: read as a hit: %+v", key, got)
		}
	}
	for _, size := range []int{len(entry), entryBuf - 1, entryBuf, entryBuf + 1, 2 * entryBuf, 3 << 10} {
		key := fmt.Sprintf("pad-%d", size)
		write(key, padded(size))
		got, ok := c.Get(key)
		if !ok {
			t.Errorf("%s: valid entry of %d bytes read as a miss", key, size)
			continue
		}
		if b, _ := appendOutcome(nil, &got); !bytes.Equal(b, entry) {
			t.Errorf("%s: read back %s, want %s", key, b, entry)
		}
	}
}

// TestDirCacheGetClosesFiles: Gets over hits, misses, absent keys and the
// awkward files of TestDirCacheReadEdgeCases leave the process's count of
// open file descriptors unchanged. Linux only: it counts /proc/self/fd.
func TestDirCacheGetClosesFiles(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("counts /proc/self/fd")
	}
	dir := t.TempDir()
	c, err := NewDirCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	o := telemetryOutcome()
	for _, k := range []string{"hit", "big"} {
		if err := c.Put(k, o); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Put("plain", Outcome{SimLatency: 1, Delivered: 2}); err != nil {
		t.Fatal(err)
	}
	files := map[string][]byte{
		"junk-1024": bytes.Repeat([]byte{'x'}, entryBuf),
		"junk-3072": bytes.Repeat([]byte{'x'}, 3<<10),
		"empty":     {},
		"truncated": []byte(`{"sim_latency":1,"sim_source_wait":`),
	}
	for key, b := range files {
		if err := os.WriteFile(filepath.Join(dir, key+".json"), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.Mkdir(filepath.Join(dir, "dir.json"), 0o755); err != nil {
		t.Fatal(err)
	}
	keys := []string{"hit", "big", "plain", "absent", "junk-1024", "junk-3072", "empty", "truncated", "dir", "../escape"}
	openFDs := func() int {
		t.Helper()
		fds, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			t.Fatal(err)
		}
		return len(fds)
	}
	before := openFDs()
	hits := 0
	for i := 0; i < 10000; i++ {
		if _, ok := c.Get(keys[i%len(keys)]); ok {
			hits++
		}
	}
	if after := openFDs(); after != before {
		t.Errorf("%d open file descriptors after 10,000 Gets, %d before", after, before)
	}
	if want := 3 * 1000; hits != want {
		t.Errorf("%d hits, want %d", hits, want)
	}
}
