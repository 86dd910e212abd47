package routing_test

import (
	"testing"

	"mcnet/internal/routing"
	"mcnet/internal/topo"
)

// TestSharedTableReturnsSameInstance checks that route tables are shared
// per (shape, routing mode): topo.NewFatTree builds each fat tree's route
// arenas once, so equal keys must yield one instance and a different shape
// or mode must not.
func TestSharedTableReturnsSameInstance(t *testing.T) {
	must := func(ft *topo.FatTree, err error) *topo.FatTree {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return ft
	}
	a := must(topo.NewFatTree(4, 2, routing.Balanced))
	b := must(topo.NewFatTree(4, 2, routing.Balanced))
	c := must(topo.NewFatTree(4, 3, routing.Balanced))
	d := must(topo.NewFatTree(4, 2, routing.RandomUp))
	if a != b {
		t.Error("same shape+mode must share one table")
	}
	if a == c || a == d {
		t.Error("different shape or mode must not share tables")
	}
}
