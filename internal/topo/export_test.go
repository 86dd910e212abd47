package topo

// TablesBuilt reports whether t has built its route tables: a fat tree's
// arenas, a jellyfish's distance table or path arena. A dragonfly computes
// each route per call and has none.
func TablesBuilt(t Topology) bool {
	switch t := t.(type) {
	case *FatTree:
		return t.upArena != nil
	case *Jellyfish:
		return t.dist != nil || t.pathOff != nil
	}
	return false
}

// ClearCache empties the process-wide topology cache, so the next request
// for any shape builds a fresh instance.
func ClearCache() { cache.Clear() }
