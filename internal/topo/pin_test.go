package topo

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"maps"
	"math"
	"slices"
	"testing"
)

// hashInt32s feeds each slice, length first, into h.
func hashInt32s(h hash.Hash, slices ...[]int32) {
	var buf [8]byte
	for _, s := range slices {
		binary.LittleEndian.PutUint64(buf[:], uint64(len(s)))
		h.Write(buf[:])
		for _, v := range s {
			binary.LittleEndian.PutUint32(buf[:4], uint32(v))
			h.Write(buf[:4])
		}
	}
}

// hashFloats feeds the bit patterns of xs, length first, into h.
func hashFloats(h hash.Hash, xs []float64) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(len(xs)))
	h.Write(buf[:])
	for _, x := range xs {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(x))
		h.Write(buf[:])
	}
}

// TestTablesPinned pins, bit for bit, every precomputed route table: the
// fat tree's Balanced route arena and its ascent/descent arenas for every
// tableShapes shape in both modes, the Jellyfish distance, path and
// route-length tables for TestJellyfish's shapes, and the Dragonfly's
// all-pairs routes for TestDragonfly's terminal counts. The fat-tree and
// jellyfish tables wait for a topology's first route, so the test forces
// them. A rewrite of a table builder must leave every digest unchanged: the
// simulator's routes, and so every simulated result, hang off these tables.
func TestTablesPinned(t *testing.T) {
	want := map[string]string{
		"fattree m=4 n=1 balanced":  "52177fa97965e81a91ce6fa1fe8ba3343e9bb5e24dfd5487b17a6f3462a8e6c7",
		"fattree m=4 n=1 random-up": "610c08c70221cc3db3043012398e35a9b2de39dd1acbcda75f7110f5d7e8d82a",
		"fattree m=8 n=1 balanced":  "80c53837ce40b5fefcd3045876f102425914a7ac0222a10a378fcfdefae29f97",
		"fattree m=8 n=1 random-up": "c76f217e171c7df5d4f9e7fda4aa0d43c8bed9a2347c71dff00f1bb6e06d2897",
		"fattree m=4 n=2 balanced":  "4c3e91723a83696226201e4ae6accd5393e390643aede069a4498bca2323465d",
		"fattree m=4 n=2 random-up": "7232be2db8f5ac468583529f852de97cec0353e193892731b899d4a4e62d8ca3",
		"fattree m=8 n=2 balanced":  "d8db4c08a808923dcc1419e71927a1eec25d2561ed03ccc6a3ac597b2e654bfe",
		"fattree m=8 n=2 random-up": "202b8e0babbd929c31c48d347c966de26971a7a58fb1c48797f2080c42415303",
		"fattree m=8 n=3 balanced":  "615a8c7b0534df88b159bbe3ee7c8fef385d8e28319002e442add5d1f3fd4e7c",
		"fattree m=8 n=3 random-up": "4b8d1aa4a459db1d41f11adbe6b1c70c57f775d49d892da8a54d1ec52748aa8f",
		"fattree m=4 n=4 balanced":  "c928ab39bd50cac040fd3e9dc34be8fdb2f0116da7b2a1e96b5d73a2174e8e23",
		"fattree m=4 n=4 random-up": "f3da8775a716037818a03e3d8132450bfd796e7f9884fd984db749d0967cce5b",
		"jellyfish m=4 n=1":         "4f6afc34330604bf5dc5fdf3741d5567c044b5a207fce27227c2bde26792b263",
		"jellyfish m=4 n=3":         "f7db7593d4e49676bb90fe24ed45330fbc63d1ac7924a766120bbcef79b3b198",
		"jellyfish m=4 n=5":         "783555e86111d6dfaf739b7c14b2556f692793239d60a365c3431b8c7713b352",
		"jellyfish m=8 n=2":         "e52d8ad7d18d112f6ac5eff3b21799b67aa98c7f5175dc32e0d79cd0ae405e10",
		"jellyfish m=8 n=3":         "5eb5fcf2d35785b7413d155a71e8dad07e7ea8171a33d6986bce126ddb49f0b5",
		"dragonfly count=1":         "e2f4e9139178898adbc994222cb78c8aa9de4d2700f3b4996bd5c7f82a816931",
		"dragonfly count=2":         "e2f4e9139178898adbc994222cb78c8aa9de4d2700f3b4996bd5c7f82a816931",
		"dragonfly count=6":         "e2f4e9139178898adbc994222cb78c8aa9de4d2700f3b4996bd5c7f82a816931",
		"dragonfly count=7":         "28473d779c01d9c3338caefbad65d375c1366deb463fe002d8f342a3a4eb98d2",
		"dragonfly count=16":        "28473d779c01d9c3338caefbad65d375c1366deb463fe002d8f342a3a4eb98d2",
		"dragonfly count=32":        "28473d779c01d9c3338caefbad65d375c1366deb463fe002d8f342a3a4eb98d2",
		"dragonfly count=72":        "28473d779c01d9c3338caefbad65d375c1366deb463fe002d8f342a3a4eb98d2",
		"dragonfly count=73":        "cf8b0292c322e086d80fb64ef50543f5ea243cce68542bc34c5e88fd66ddd0dd",
	}
	got := map[string]string{}
	for _, sh := range tableShapes {
		for _, mode := range bothModes {
			// Fresh builds: the digest must pin the builder, not whatever
			// instance an earlier test left in the shared cache.
			tr, err := newFatTree(sh[0], sh[1], mode)
			if err != nil {
				t.Fatal(err)
			}
			tr.tables()
			h := sha256.New()
			hashInt32s(h, tr.routeOff, tr.routeArena, tr.upArena, tr.downArena)
			got[fmt.Sprintf("fattree m=%d n=%d %v", sh[0], sh[1], mode)] = hex.EncodeToString(h.Sum(nil))
		}
	}
	for _, sh := range [][2]int{{4, 1}, {4, 3}, {4, 5}, {8, 2}, {8, 3}} {
		jf, err := newJellyfish(nodeCount(sh[0], sh[1]), switchCount(sh[0], sh[1]), sh[0], 0)
		if err != nil {
			t.Fatal(err)
		}
		jf.paths()
		h := sha256.New()
		hashInt32s(h, jf.dist, jf.pathOff, jf.pathArena)
		hashFloats(h, jf.routeDist)
		got[fmt.Sprintf("jellyfish m=%d n=%d", sh[0], sh[1])] = hex.EncodeToString(h.Sum(nil))
	}
	for _, count := range []int{1, 2, 6, 7, 16, 32, 72, 73} {
		df, err := newDragonfly(count)
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		var path []int32
		for src := 0; src < df.Nodes(); src++ {
			for dst := 0; dst < df.Nodes(); dst++ {
				if src != dst {
					path = df.AppendRoute(path[:0], 0, src, dst, 0)
					hashInt32s(h, path)
				}
			}
		}
		hashFloats(h, df.routeDist)
		got[fmt.Sprintf("dragonfly count=%d", count)] = hex.EncodeToString(h.Sum(nil))
	}
	for _, name := range slices.Sorted(maps.Keys(want)) {
		if got[name] != want[name] {
			t.Errorf("%s: table digest %s, want %s", name, got[name], want[name])
		}
	}
	if len(got) != len(want) {
		t.Errorf("hashed %d tables, pinned %d", len(got), len(want))
	}
}
