package analytic_test

import (
	"errors"
	"math"
	"testing"

	"mcnet/internal/analytic"
	"mcnet/internal/system"
)

// clampTo returns v when it lies in [lo, hi] and def otherwise (NaN
// included).
func clampTo(v, lo, hi, def float64) float64 {
	if v >= lo && v <= hi {
		return v
	}
	return def
}

// FuzzSaturationSearch holds the saturation search to walkSaturationPoint,
// the rung walk it replaced, bit for bit. The low bit of mode picks the
// predicate:
//
//   - 0: a threshold, saturated from thr on (or above thr when mode's top
//     bit is set), with thr placed by (mode>>1)%5 in [0, start/2), exactly on
//     rung x, between rung x and the next, past limit, or with start above
//     limit;
//   - 1: a random organization from fuzzModel, searched through a Grid
//     (twice, the second search on the used grid) against the walk over
//     the un-memoized Model.Evaluate.
func FuzzSaturationSearch(f *testing.F) {
	for kind := uint8(0); kind < 5; kind++ {
		f.Add(kind<<1, 1e-6, 1.0, 9.25, 1e-3, uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0))
		f.Add(kind<<1|0x80, 1e-6, 1.0, 3.5, 1e-4, uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0))
	}
	f.Add(uint8(2), 0.0, 1e-3, 19.0, 1e-3, uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0))
	f.Add(uint8(4), 1e-6, 1.0, 19.0, 1e-3, uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0))
	f.Add(uint8(1), 1e-6, 1.0, 0.0, 1e-3, uint8(4), uint8(1), uint8(2), uint8(2), uint8(2), uint8(6))
	f.Add(uint8(1), 1e-6, 1.0, 0.0, 1e-4, uint8(8), uint8(2), uint8(2), uint8(4), uint8(0), uint8(0))
	f.Add(uint8(1), 1e-5, 10.0, 0.0, 1e-3, uint8(4), uint8(2), uint8(1), uint8(2), uint8(1), uint8(15))
	f.Add(uint8(1), 1e-6, 1e-4, 0.0, 1e-3, uint8(2), uint8(3), uint8(1), uint8(1), uint8(7), uint8(9))
	f.Fuzz(func(t *testing.T, mode uint8, start, limit, x, tol float64, ports, lv1, lv2, cnt1, cnt2, shape uint8) {
		if mode&1 == 1 {
			m := fuzzModel(t, ports, lv1, lv2, cnt1, cnt2, shape)
			start = clampTo(start, 1e-8, 1e-3, 1e-6)
			limit = clampTo(limit, start/4, 10, 1)
			tol = clampTo(tol, 1e-5, 1e-2, 1e-3)
			want := referenceSaturationPoint(m, start, limit, tol)
			g := analytic.NewGrid(m)
			for range 2 {
				if got := g.SaturationPoint(start, limit, tol); !bitsEqual(got, want) {
					t.Fatalf("start %v limit %v tol %v: grid search %v, rung walk %v", start, limit, tol, got, want)
				}
			}
			return
		}
		// A start of zero or below stands for the default start. The
		// tolerance and the threshold reach 0, where the bisection ends
		// only because the bracket stops splitting.
		if !(start <= 0 || start >= 1e-200 && start <= 1e3) {
			start = 1e-6
		}
		limit = clampTo(limit, 1e-12, 1e6, 1)
		tol = clampTo(tol, 0, 0.5, 1e-3)
		x = clampTo(math.Abs(x), 0, 1e3, 0)
		rung, frac := int(x)%48, x-math.Floor(x)
		s := start
		if s <= 0 {
			s = 1e-9
		}
		var thr float64
		switch (mode >> 1) % 5 {
		case 0: // below start, down to 0: every rung saturates
			thr = s * frac / 2
		case 1: // exactly on a rung
			thr = math.Ldexp(s, rung)
		case 2: // between two rungs
			thr = math.Ldexp(s, rung) * (1 + frac)
		case 3: // past limit: no rung saturates
			thr = limit * (2 + frac)
		case 4: // start above limit
			limit = s * (0.25 + frac/2)
			thr = s * (0.5 + frac)
		}
		saturated := func(l float64) bool {
			if mode&0x80 != 0 {
				return l > thr
			}
			return l >= thr
		}
		want := walkSaturationPoint(saturated, start, limit, tol)
		if got := analytic.SaturationSearch(saturated, start, limit, tol); !bitsEqual(got, want) {
			t.Fatalf("start %v limit %v tol %v thr %v: search %v, rung walk %v", start, limit, tol, thr, got, want)
		}
	})
}

// TestSaturationSearchProbes pins how many rungs the search probes on the
// sweep's ladder (start 1e-6, limit 1, the highest rung start·2^19 ≈
// 0.524): at most five, ⌈log₂ 21⌉, wherever the first saturated rung is or
// if there is none, where the rung walk probes one more rung than the index
// of the first saturated one. A tolerance of 1 skips the bisection, so
// every probe is a rung.
func TestSaturationSearchProbes(t *testing.T) {
	for k := 0; k <= 20; k++ {
		thr := math.Ldexp(1e-6, k)
		probes := 0
		analytic.SaturationSearch(func(l float64) bool {
			probes++
			return l >= thr
		}, 1e-6, 1, 1)
		if probes > 5 {
			t.Errorf("first saturated rung %d: %d probes, want at most 5", k, probes)
		}
	}
}

// TestSaturationSearchTerminates pins that the bisection ends once the
// midpoint no longer splits the bracket: under tol = 0 on Org1's model, and
// on a strict predicate that saturates at every load above 0 (the fuzz
// corpus entry 9fa0d9e71267a46a), whose bracket halves into the subnormals.
// No double halves more than about 1,075 times before reaching 0, so a
// search past maxProbes probes would never end; its next probe fails the
// test instead.
func TestSaturationSearchTerminates(t *testing.T) {
	const maxProbes = 1100
	search := func(t *testing.T, saturated func(float64) bool, tol float64) float64 {
		probes := 0
		return analytic.SaturationSearch(func(l float64) bool {
			if probes++; probes > maxProbes {
				t.Fatalf("search still running after %d probes", maxProbes)
			}
			return saturated(l)
		}, 1e-6, 1, tol)
	}
	t.Run("org1-tol0", func(t *testing.T) {
		m := buildModel(t, system.Format(system.Table1Org1()), "", 32, 256, analytic.DefaultOptions())
		got := search(t, func(l float64) bool {
			_, err := m.Evaluate(l)
			return errors.Is(err, analytic.ErrSaturated)
		}, 0)
		if want := m.SaturationPoint(1e-6, 1, 1e-9); math.Abs(got-want) > 1e-9*want {
			t.Errorf("point %v, %v at tol 1e-9", got, want)
		}
		if pub := m.SaturationPoint(1e-6, 1, 0); !bitsEqual(pub, got) {
			t.Errorf("Model.SaturationPoint %v, search %v", pub, got)
		}
	})
	t.Run("always-saturated", func(t *testing.T) {
		if got := search(t, func(l float64) bool { return l > 0 }, 1e-4); got != 0 {
			t.Errorf("point %v, want 0", got)
		}
	})
}
