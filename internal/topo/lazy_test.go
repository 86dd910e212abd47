package topo_test

import (
	"runtime"
	"testing"

	"mcnet/internal/routing"
	"mcnet/internal/sweep"
	"mcnet/internal/topo"
	"mcnet/internal/units"
)

// TestModelOnlyBuildsNoTables: the analytic model reads a topology's
// route-length distribution and channel count, never its routes. So a
// model-only saturation search over the deepest tree the shape bound
// accepts, m=4 n=9 with 94.4 MB of route tables, allocates under 1 MB and
// leaves every table unbuilt, and so does one over the largest jellyfish
// of the sweep grid. The first route then builds the tables.
func TestModelOnlyBuildsNoTables(t *testing.T) {
	topo.ClearCache()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	m := sweep.ModelFor("calibrated", "m=4:2x9", "", "", units.Default())
	if _, err := m.SaturationPoint(1e-4); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
		t.Errorf("model-only search of m=4:2x9 allocated %d bytes, want under 1 MB", alloc)
	} else {
		t.Logf("model-only search of m=4:2x9 allocated %d bytes", alloc)
	}
	if _, err := sweep.ModelFor("calibrated", "m=4:2x5", "", "jellyfish", units.Default()).SaturationPoint(1e-4); err != nil {
		t.Fatal(err)
	}

	tree, err := topo.NewFatTree(4, 9, routing.Balanced)
	if err != nil {
		t.Fatal(err)
	}
	global, err := topo.NewGlobal(topo.Spec{}, 4, 2, routing.Balanced)
	if err != nil {
		t.Fatal(err)
	}
	jelly, err := topo.New(topo.Spec{Kind: topo.KindJellyfish}, 4, 5, routing.Balanced)
	if err != nil {
		t.Fatal(err)
	}
	for _, tp := range []topo.Topology{tree, global, jelly} {
		if topo.TablesBuilt(tp) {
			t.Errorf("%s: tables built by a model-only search", tp)
		}
	}
	// The 9-tree's tables are left unbuilt: they are the 94.4 MB.
	for _, tp := range []topo.Topology{global, jelly} {
		tp.AppendRoute(nil, 0, 0, tp.Nodes()-1, 0)
		if !topo.TablesBuilt(tp) {
			t.Errorf("%s: tables not built by the first route", tp)
		}
	}
}
