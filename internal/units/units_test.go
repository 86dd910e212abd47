package units

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestDefaultMatchesPaperSection4(t *testing.T) {
	p := Default()
	if p.AlphaNet != 0.02 {
		t.Errorf("AlphaNet = %v, want 0.02", p.AlphaNet)
	}
	if p.AlphaSw != 0.01 {
		t.Errorf("AlphaSw = %v, want 0.01", p.AlphaSw)
	}
	if !almostEqual(p.BetaNet, 0.002, 1e-15) {
		t.Errorf("BetaNet = %v, want 1/500", p.BetaNet)
	}
	if p.FlitBytes != 256 || p.MessageFlits != 32 {
		t.Errorf("geometry = (%d, %d), want (256, 32)", p.FlitBytes, p.MessageFlits)
	}
	if err := p.Validate(); err != nil {
		t.Fatalf("Default().Validate() = %v", err)
	}
}

func TestTcnTcsPaperValues(t *testing.T) {
	// Hand-computed values for the paper's parameter combinations.
	cases := []struct {
		lm       int
		wantTcn  float64
		wantTcs  float64
		wantName string
	}{
		{256, 0.02 + 0.5*0.002*256, 0.01 + 0.002*256, "Lm=256"},
		{512, 0.02 + 0.5*0.002*512, 0.01 + 0.002*512, "Lm=512"},
	}
	for _, c := range cases {
		p := Default().WithMessage(32, c.lm)
		if !almostEqual(p.Tcn(), c.wantTcn, 1e-12) {
			t.Errorf("%s: Tcn = %v, want %v", c.wantName, p.Tcn(), c.wantTcn)
		}
		if !almostEqual(p.Tcs(), c.wantTcs, 1e-12) {
			t.Errorf("%s: Tcs = %v, want %v", c.wantName, p.Tcs(), c.wantTcs)
		}
	}
	// Concrete numbers, to catch sign/refactoring errors:
	p := Default()
	if !almostEqual(p.Tcn(), 0.276, 1e-12) {
		t.Errorf("Tcn(Lm=256) = %v, want 0.276", p.Tcn())
	}
	if !almostEqual(p.Tcs(), 0.522, 1e-12) {
		t.Errorf("Tcs(Lm=256) = %v, want 0.522", p.Tcs())
	}
}

func TestMessageAggregates(t *testing.T) {
	p := Default().WithMessage(64, 512)
	if !almostEqual(p.MTcs(), 64*p.Tcs(), 1e-12) {
		t.Errorf("MTcs = %v, want %v", p.MTcs(), 64*p.Tcs())
	}
	if !almostEqual(p.MTcn(), 64*p.Tcn(), 1e-12) {
		t.Errorf("MTcn = %v, want %v", p.MTcn(), 64*p.Tcn())
	}
}

func TestValidateRejectsNonPhysical(t *testing.T) {
	bad := []Params{
		{AlphaNet: -1, AlphaSw: 0, BetaNet: 1, FlitBytes: 1, MessageFlits: 1},
		{AlphaNet: 0, AlphaSw: -1, BetaNet: 1, FlitBytes: 1, MessageFlits: 1},
		{AlphaNet: 0, AlphaSw: 0, BetaNet: 0, FlitBytes: 1, MessageFlits: 1},
		{AlphaNet: 0, AlphaSw: 0, BetaNet: 1, FlitBytes: 0, MessageFlits: 1},
		{AlphaNet: 0, AlphaSw: 0, BetaNet: 1, FlitBytes: 1, MessageFlits: 0},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: Validate() = nil, want error", i)
		}
	}
}

func TestTcsAlwaysExceedsHalfTcnTransmission(t *testing.T) {
	// Property: for any positive parameters, a switch-switch hop transmits a
	// full flit while a node hop transmits half, so Tcs-AlphaSw == 2*(Tcn-AlphaNet).
	f := func(a, b uint8, lm uint8) bool {
		p := Params{
			AlphaNet:     float64(a) / 100,
			AlphaSw:      float64(b) / 100,
			BetaNet:      0.002,
			FlitBytes:    int(lm) + 1,
			MessageFlits: 32,
		}
		return almostEqual(p.Tcs()-p.AlphaSw, 2*(p.Tcn()-p.AlphaNet), 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestStringMentionsAllParameters(t *testing.T) {
	s := Default().String()
	for _, frag := range []string{"α_net", "α_sw", "β_net", "L_m", "M="} {
		if !strings.Contains(s, frag) {
			t.Errorf("String() = %q, missing %q", s, frag)
		}
	}
}
