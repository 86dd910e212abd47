package analytic

import (
	"math"
	"testing"
	"testing/quick"
)

// chainServiceOracle is the per-journey form of the backward stage recursion
// (Eqs. 16–18): one walk over a K-stage journey, with the channel rate and
// the message transfer time of each stage supplied by closures and mtcn the
// transfer time of the final (switch→node) stage. It returns S₀, or false
// when a stage's utilization reaches 1. suffixService must reproduce it bit
// for bit for every journey of a family.
func chainServiceOracle(k int, eta func(int) float64, mtcs func(int) float64, mtcn float64) (s0 float64, ok bool) {
	sumW := 0.0
	s := 0.0
	for stage := k - 1; stage >= 0; stage-- {
		if stage == k-1 {
			s = mtcn
		} else {
			s = mtcs(stage) + sumW
		}
		if stage > 0 {
			e := eta(stage)
			if e*s >= 1 {
				return math.Inf(1), false
			}
			sumW += 0.5 * s * ChannelBlockingProbability(e, s)
		}
	}
	return s, true
}

// checkFamily compares suffixService's S₀ for journeys of 1+tail+x stages,
// x < len(s0), with the oracle's.
func checkFamily(t *testing.T, what string, s0 []float64, ok, tail int, oracle func(k int) (float64, bool)) {
	t.Helper()
	for x := range s0 {
		k := 1 + tail + x
		want, wantOK := oracle(k)
		if gotOK := x < ok; gotOK != wantOK {
			t.Fatalf("%s, %d stages: saturated %v, oracle %v", what, k, !gotOK, !wantOK)
		}
		if wantOK && math.Float64bits(s0[x]) != math.Float64bits(want) {
			t.Fatalf("%s, %d stages: S₀ %x, oracle %x", what, k, math.Float64bits(s0[x]), math.Float64bits(want))
		}
	}
}

// FuzzJourneyChains holds the one-walk-per-suffix recursion to the
// per-journey oracle, bit for bit, over fuzzer-chosen stage times and channel
// rates (saturating ones included): for an inter-cluster (l, d₂) suffix with
// every ascent height j, with the stage classes interPair assigns, and for an
// intra-cluster family of every route length.
func FuzzJourneyChains(f *testing.F) {
	// Stage times of a 32-flit message on the default links, at a light
	// load, at loads saturating inside the shared suffix and during the
	// ascent, and at one saturating on the node-end stage.
	f.Add(uint8(3), uint8(2), uint8(4), 1.6, 1.6, 1.6, 1.6, 1.6, 0.01, 0.02)
	f.Add(uint8(3), uint8(3), uint8(6), 1.6, 1.2, 2.0, 3.2, 1.6, 0.15, 0.2)
	f.Add(uint8(6), uint8(0), uint8(1), 1.6, 1.2, 2.0, 3.2, 1.6, 0.3, 0.01)
	f.Add(uint8(5), uint8(1), uint8(2), 1.6, 1.6, 1.6, 1.6, 1.6, 0.7, 0.1)
	f.Add(uint8(2), uint8(4), uint8(1), 0.8, 1.6, 3.2, 6.4, 12.8, 0.05, 0.3)
	f.Fuzz(func(t *testing.T, jn, ln, dn uint8, mtcn, mtcsUp, mtcsDown, mtcsConc, mtcsI2, etaE1, etaI2 float64) {
		jMax, l, d2 := 1+int(jn%7), 1+int(ln%6), 1+int(dn%8)
		ps := pairStages{
			up:   stage{mtcsUp, etaE1},
			conc: stage{mtcsConc, etaI2},
			icn2: stage{mtcsI2, etaI2},
			down: stage{mtcsDown, etaE1},
			mtcn: mtcn,
		}
		tail := ps.suffix(nil, l, d2)
		if len(tail) != l-1+d2 {
			t.Fatalf("suffix(l=%d, d2=%d) has %d stages, want %d", l, d2, len(tail), l-1+d2)
		}
		s0 := make([]float64, jMax)
		ok := suffixService(ps.mtcn, ps.down.eta, tail, ps.up, s0)
		checkFamily(t, "inter", s0, ok, len(tail), func(k int) (float64, bool) {
			// The stage classes of the merged journey with ascent height
			// j = k−l−d₂+1, stage 0 at the source.
			j := k - l - d2 + 1
			return chainServiceOracle(k, func(stage int) float64 {
				if stage >= j-1 && stage < j+d2-1 {
					return etaI2
				}
				return etaE1
			}, func(stage int) float64 {
				switch {
				case stage < j-1:
					return mtcsUp
				case stage == j-1 || stage == j+d2-2:
					return mtcsConc
				case stage < j+d2-1:
					return mtcsI2
				default:
					return mtcsDown
				}
			}, mtcn)
		})

		s0 = make([]float64, jMax+l+d2)
		ok = suffixService(mtcn, etaE1, nil, stage{mtcsUp, etaE1}, s0)
		checkFamily(t, "intra", s0, ok, 0, func(k int) (float64, bool) {
			return chainServiceOracle(k, func(int) float64 { return etaE1 },
				func(int) float64 { return mtcsUp }, mtcn)
		})
	})
}

func TestChannelBlockingClampAndLinearization(t *testing.T) {
	if p := ChannelBlockingProbability(0.5, 1); p != 0.5 {
		t.Errorf("P_B(0.5) = %v, want 0.5", p)
	}
	if p := ChannelBlockingProbability(3, 1); p != 1 {
		t.Errorf("P_B must clamp to 1, got %v", p)
	}
	if p := ChannelBlockingProbability(-1, 1); p != 0 {
		t.Errorf("P_B must clamp to 0, got %v", p)
	}
	// twoStateBusy is the exact busy probability ηS/(1+ηS) of the two-state
	// birth–death chain the paper linearizes.
	twoStateBusy := func(eta, s float64) float64 {
		if eta <= 0 || s <= 0 {
			return 0
		}
		return eta * s / (1 + eta*s)
	}
	// The paper's linearization upper-bounds the exact two-state busy
	// probability and converges to it at low utilization.
	f := func(eRaw, sRaw uint8) bool {
		eta := float64(eRaw) / 300
		s := float64(sRaw%20) / 10
		return ChannelBlockingProbability(eta, s) >= twoStateBusy(eta, s)-1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	if math.Abs(ChannelBlockingProbability(0.01, 1)-twoStateBusy(0.01, 1)) > 1e-4 {
		t.Error("linearization should match exact chain at low load")
	}
}
