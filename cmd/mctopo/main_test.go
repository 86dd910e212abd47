package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestRun(t *testing.T) {
	cases := []struct {
		name    string
		args    []string
		want    []string // substrings the report must contain
		wantErr string   // substring of the expected error ("" = success)
	}{
		{
			name: "tree with check",
			args: []string{"-ports", "4", "-levels", "2", "-check"},
			want: []string{
				"nodes (Eq.1):    8",
				"P(j) (Eq.4)",
				"structural verification: OK",
				"all-pairs balanced routing load:",
			},
		},
		{
			name: "explicit fattree matches default report",
			args: []string{"-ports", "4", "-levels", "2", "-topo", "fattree"},
			want: []string{"nodes (Eq.1):    8", "d_avg (Eq.8)"},
		},
		{
			name: "jellyfish with check",
			args: []string{"-ports", "4", "-levels", "2", "-topo", "jellyfish", "-check"},
			want: []string{"jellyfish", "P(d):", "structural verification: OK"},
		},
		{
			name: "seeded jellyfish",
			args: []string{"-ports", "4", "-levels", "2", "-topo", "jellyfish.s9", "-check"},
			want: []string{"jellyfish", "structural verification: OK"},
		},
		{
			name: "standalone dragonfly with check",
			args: []string{"-topo", "dragonfly", "-count", "32", "-check"},
			want: []string{"dragonfly", "max route length:  5", "structural verification: OK"},
		},
		{
			name: "org default with check",
			args: []string{"-org", "org1", "-check"},
			want: []string{"N=1120", "ICN2 route-length distribution P(d): [d=2:0.0968 d=4:0.9032]", "structural verification: OK"},
		},
		{
			name: "org with swapped topologies and check",
			args: []string{"-org", "org1", "-topo", "jellyfish+dragonfly", "-check"},
			want: []string{"N=1120", "ICN2 route-length distribution P(d)", "structural verification: OK"},
		},
		{
			name: "org spec with inline topology suffixes",
			args: []string{"-org", "m=8@icn2topo=dragonfly:4x2@topo=jellyfish,4x3", "-check"},
			want: []string{"ICN2 route-length distribution P(d)", "structural verification: OK"},
		},
		{
			name:    "no selection",
			args:    nil,
			wantErr: "specify -ports and -levels, or -org",
		},
		{
			name:    "unknown topology",
			args:    []string{"-ports", "4", "-levels", "2", "-topo", "torus"},
			wantErr: "unknown topology",
		},
		{
			name:    "dragonfly needs a terminal count",
			args:    []string{"-ports", "4", "-levels", "2", "-topo", "dragonfly"},
			wantErr: "-count",
		},
		{
			name:    "dragonfly is not an intra-cluster topology",
			args:    []string{"-org", "org1", "-topo", "dragonfly"},
			wantErr: "not an intra-cluster topology",
		},
		{
			name:    "bad organization",
			args:    []string{"-org", "m=3:2x1"},
			wantErr: "must be even",
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var out bytes.Buffer
			err := run(c.args, &out)
			if c.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), c.wantErr) {
					t.Fatalf("run(%v) error = %v, want substring %q", c.args, err, c.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatalf("run(%v): %v\noutput:\n%s", c.args, err, out.String())
			}
			for _, frag := range c.want {
				if !strings.Contains(out.String(), frag) {
					t.Errorf("run(%v) output missing %q:\n%s", c.args, frag, out.String())
				}
			}
		})
	}
}
