package sweep

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestDirCacheConcurrentEngines(t *testing.T) {
	// Two engines — standing in for two processes — run the same spec over
	// one shared cache directory at the same time. Writers race on the same
	// content-hashed keys; the atomic temp-file + rename protocol must keep
	// every entry complete, and both runs must produce byte-identical CSVs
	// (also identical to an uncontended reference run).
	if testing.Short() {
		t.Skip("concurrent cache stress skipped in -short")
	}
	dir := filepath.Join(t.TempDir(), "shared-cache")
	spec := tinySpec()
	spec.Reps = 2 // 8 jobs keeps the race window interesting but cheap

	refCSV, _, _ := runToBytes(t, &Engine{Workers: 2}, spec)

	type out struct {
		csv []byte
		sum Summary
	}
	results := make(chan out, 2)
	for i := 0; i < 2; i++ {
		go func() {
			cache, err := NewDirCache(dir)
			if err != nil {
				t.Error(err)
				results <- out{}
				return
			}
			var cb bytes.Buffer
			cs := NewCSVSink(&cb, spec)
			eng := &Engine{Workers: 2, Cache: cache, Sinks: []Sink{cs}}
			sum, err := eng.Run(spec)
			if err != nil {
				t.Errorf("concurrent engine: %v", err)
			}
			if err := cs.Flush(); err != nil {
				t.Error(err)
			}
			results <- out{cb.Bytes(), sum}
		}()
	}
	a, b := <-results, <-results
	if t.Failed() {
		t.FailNow()
	}
	if !bytes.Equal(a.csv, refCSV) || !bytes.Equal(b.csv, refCSV) {
		t.Error("engines sharing a cache dir diverged from the uncontended run")
	}

	// Every surviving entry must be complete valid JSON (a torn write would
	// surface here as a parse failure → miss → silent re-execution).
	cache, err := NewDirCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := Expand(spec)
	if err != nil {
		t.Fatal(err)
	}
	if cache.Len() != len(jobs) {
		t.Errorf("shared cache holds %d entries, want %d", cache.Len(), len(jobs))
	}
	for _, j := range jobs {
		if _, ok := cache.Get(j.Key()); !ok {
			t.Errorf("job %d missing or corrupt in shared cache", j.Index)
		}
	}
	// No temp files left behind.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".json") {
			t.Errorf("leftover non-entry file %q in cache dir", e.Name())
		}
	}
}

func TestDirCacheRejectsUnsafeKeys(t *testing.T) {
	dir := t.TempDir()
	c, err := NewDirCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	bad := []string{"", "../evil", "a/b", `a\b`, "a.b", "..", "k*y", "k y",
		strings.Repeat("x", 201)}
	for _, key := range bad {
		if err := c.Put(key, Outcome{}); err == nil {
			t.Errorf("Put(%q) accepted an unsafe key", key)
		}
		if _, ok := c.Get(key); ok {
			t.Errorf("Get(%q) reported a hit for an unsafe key", key)
		}
		if err := c.Delete(key); err == nil {
			t.Errorf("Delete(%q) accepted an unsafe key", key)
		}
	}
	// Nothing escaped into (or out of) the cache directory.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Errorf("unsafe keys left %d files behind", len(entries))
	}
	for _, key := range []string{"0f3a", "Key-1_b", strings.Repeat("x", 200)} {
		if !ValidKey(key) {
			t.Errorf("ValidKey(%q) = false, want true", key)
		}
		if err := c.Put(key, Outcome{Delivered: 1}); err != nil {
			t.Errorf("Put(%q): %v", key, err)
		}
	}
}
