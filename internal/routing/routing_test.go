package routing

import "testing"

func TestModeString(t *testing.T) {
	if Balanced.String() != "balanced" || RandomUp.String() != "random-up" || Mode(9).String() != "unknown" {
		t.Error("Mode.String misbehaves")
	}
}

func TestParseMode(t *testing.T) {
	cases := []struct {
		in      string
		want    Mode
		wantErr bool
	}{
		{"balanced", Balanced, false},
		{"random-up", RandomUp, false},
		{"", 0, true},
		{"random", 0, true},
		{"Balanced", 0, true},
		{"balanced ", 0, true},
		{"unknown", 0, true},
	}
	for _, c := range cases {
		got, err := ParseMode(c.in)
		if c.wantErr {
			if err == nil {
				t.Errorf("ParseMode(%q) accepted as %v", c.in, got)
			}
			continue
		}
		if err != nil {
			t.Fatalf("ParseMode(%q): %v", c.in, err)
		}
		if got != c.want {
			t.Errorf("ParseMode(%q) = %v, want %v", c.in, got, c.want)
		}
	}
	// Round trip: every valid mode survives String→Parse.
	for _, m := range []Mode{Balanced, RandomUp} {
		got, err := ParseMode(m.String())
		if err != nil || got != m {
			t.Errorf("ParseMode(%v.String()) = (%v, %v)", m, got, err)
		}
	}
}
