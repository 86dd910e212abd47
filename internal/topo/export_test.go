package topo

// TablesBuilt reports whether t has built its route tables. A dragonfly
// computes each route per call and has none.
func TablesBuilt(t Topology) bool {
	switch t := t.(type) {
	case *FatTree:
		return t.upArena != nil
	case *Jellyfish:
		return t.pathOff != nil
	}
	return false
}

// ClearCache empties the process-wide topology cache, so the next request
// for any shape builds a fresh instance.
func ClearCache() { cache.Clear() }
