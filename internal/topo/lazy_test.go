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
// of the sweep grid. The jellyfish counts its route-length distribution at
// construction and holds no S² distance table: the table belongs to the
// route build, like the S² table of route channels. The first route then
// builds the tables.
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
	// Rebuilt fresh, as the search built it, the jellyfish allocates less
	// than one 4·S²-byte int32 table.
	topo.ClearCache()
	runtime.ReadMemStats(&before)
	if _, err := topo.New(topo.Spec{Kind: topo.KindJellyfish}, 4, 5, routing.Balanced); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	s := uint64(jelly.Switches())
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 4*s*s {
		t.Errorf("model-only build of %s allocated %d bytes, want under %d: it holds an S² table", jelly, alloc, 4*s*s)
	} else {
		t.Logf("model-only build of %s allocated %d bytes", jelly, alloc)
	}
	// The 9-tree's tables are left unbuilt: they are the 94.4 MB.
	for _, tp := range []topo.Topology{global, jelly} {
		tp.AppendRoute(nil, 0, 0, tp.Nodes()-1, 0)
		if !topo.TablesBuilt(tp) {
			t.Errorf("%s: tables not built by the first route", tp)
		}
	}
}
