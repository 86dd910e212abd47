package topo

import (
	"testing"

	"mcnet/internal/routing"
)

// BenchmarkTopoBuild measures fresh, uncached construction of the sweep
// grid's topology shapes: the paper's Org1 m=8 3-tree (its largest fat
// tree), the equal-budget jellyfish of Org2's m=4 5-tree (its largest
// random-regular graph) and the dragonfly that attaches Org1's 32 clusters.
// Every process pays these builds the first time it meets a shape. The m=4
// 9-tree is the deepest tree the shape bound accepts; its B/op shows how
// close the build stays to its tables' exact size. These cases force the
// route tables a simulation builds on its first route. The "-model" cases
// build the 9-tree and the jellyfish as the analytic model alone meets
// them: geometry, distances and route-length distribution, no tables.
func BenchmarkTopoBuild(b *testing.B) {
	withTables := func(t Topology, err error) (Topology, error) {
		switch t := t.(type) {
		case *FatTree:
			t.tables()
		case *Jellyfish:
			t.paths()
		}
		return t, err
	}
	for _, c := range []struct {
		name  string
		build func() (Topology, error)
	}{
		{"fattree-m8-n3", func() (Topology, error) { return withTables(newFatTree(8, 3, routing.Balanced)) }},
		{"fattree-m4-n9", func() (Topology, error) { return withTables(newFatTree(4, 9, routing.Balanced)) }},
		{"fattree-m4-n9-model", func() (Topology, error) { return newFatTree(4, 9, routing.Balanced) }},
		{"jellyfish-m4-n5", func() (Topology, error) {
			return withTables(newJellyfish(nodeCount(4, 5), switchCount(4, 5), 4, 0))
		}},
		{"jellyfish-m4-n5-model", func() (Topology, error) {
			return newJellyfish(nodeCount(4, 5), switchCount(4, 5), 4, 0)
		}},
		{"dragonfly-org1", func() (Topology, error) { return newDragonfly(32) }},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if _, err := c.build(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(b.Elapsed().Seconds()*1e3/float64(b.N), "ms/build")
		})
	}
}
