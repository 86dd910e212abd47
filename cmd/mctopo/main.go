// Command mctopo inspects interconnect topologies and multi-cluster
// organizations: node/switch counts (Eqs. 1–2), the route-length
// distribution (Eq. 4 for trees), average distance (Eqs. 8–9), and
// structural verification — for the paper's m-port n-tree and for the
// pluggable topologies (jellyfish, dragonfly) behind the same interface.
//
// Usage:
//
//	mctopo -ports 8 -levels 3                    # one tree
//	mctopo -ports 8 -levels 3 -topo jellyfish    # equal-budget random regular
//	mctopo -topo dragonfly -count 32             # global Dragonfly for 32 clusters
//	mctopo -org org1                             # a whole organization
//	mctopo -org org1 -topo jellyfish+dragonfly   # ... with swapped topologies
//	mctopo -ports 4 -levels 5 -check             # exhaustive wiring verification
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"mcnet/internal/routing"
	"mcnet/internal/system"
	"mcnet/internal/topo"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "mctopo: %v\n", err)
		os.Exit(1)
	}
}

// run is the testable body of the command: it parses args, writes the report
// to out and returns any failure instead of exiting.
func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("mctopo", flag.ContinueOnError)
	fs.SetOutput(os.Stderr)
	var (
		ports    = fs.Int("ports", 0, "switch ports m (even)")
		levels   = fs.Int("levels", 0, "tree levels n")
		count    = fs.Int("count", 0, "terminal count for a standalone global interconnect (-topo dragonfly)")
		orgSpec  = fs.String("org", "", "organization to summarize instead of a single network")
		topoAxis = fs.String("topo", "", `topology: "<cluster>[+<global>]" with -org, a single kind otherwise`)
		check    = fs.Bool("check", false, "run exhaustive structural verification")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch {
	case *orgSpec != "":
		return runOrg(out, *orgSpec, *topoAxis, *check)
	case *ports > 0 && *levels > 0, *count > 0:
		return runNetwork(out, *ports, *levels, *count, *topoAxis, *check)
	default:
		return fmt.Errorf("specify -ports and -levels, or -org (see -h)")
	}
}

func runOrg(out io.Writer, orgSpec, topoAxis string, check bool) error {
	org, err := system.ParseOrganization(orgSpec)
	if err != nil {
		return err
	}
	if topoAxis != "" {
		if err := system.ApplyTopologyAxis(&org, topoAxis); err != nil {
			return err
		}
	}
	sys, err := system.New(org)
	if err != nil {
		return err
	}
	fmt.Fprint(out, sys.Summary())
	fmt.Fprintf(out, "\n  %3s %6s %8s %10s\n", "i", "N_i", "P_o(i)", "d_avg(i)")
	for i, c := range sys.Clusters {
		fmt.Fprintf(out, "  %3d %6d %8.4f %10.4f\n", i, c.Nodes, sys.POut(i), c.Net.AvgDistance())
	}
	fmt.Fprintf(out, "\n  ICN2 route-length distribution P(d): %v\n", formatDist("d", sys.ICN2RouteDist()))
	if check {
		for _, c := range sys.Clusters {
			if err := c.ECN1Net.CheckStructure(); err != nil {
				return fmt.Errorf("cluster %d ECN1: %v", c.Index, err)
			}
			if err := c.Net.CheckStructure(); err != nil {
				return fmt.Errorf("cluster %d ICN1 (%s): %v", c.Index, c.Net.Kind(), err)
			}
		}
		if err := sys.ICN2Net.CheckStructure(); err != nil {
			return fmt.Errorf("ICN2 (%s): %v", sys.ICN2Net.Kind(), err)
		}
		fmt.Fprintln(out, "  structural verification: OK")
	}
	return nil
}

func runNetwork(out io.Writer, ports, levels, count int, topoSpec string, check bool) error {
	spec, err := topo.ParseSpec(topoSpec)
	if err != nil {
		return err
	}
	if spec.Kind == topo.KindDragonfly {
		if count <= 0 {
			return fmt.Errorf("a standalone dragonfly is sized by -count (terminal ports), not -ports/-levels")
		}
		nt, err := topo.NewGlobal(spec, ports, count, routing.Balanced)
		if err != nil {
			return err
		}
		return printTopology(out, nt, check)
	}
	if ports <= 0 || levels <= 0 {
		return fmt.Errorf("topology %s needs -ports and -levels", spec)
	}
	if spec.IsZero() {
		// The fat-tree report, with the paper's closed forms and the
		// balanced-routing load census no generic plugin exposes.
		return runTree(out, ports, levels, check)
	}
	nt, err := topo.New(spec, ports, levels, routing.Balanced)
	if err != nil {
		return err
	}
	return printTopology(out, nt, check)
}

func runTree(out io.Writer, ports, levels int, check bool) error {
	t, err := topo.NewFatTree(ports, levels, routing.Balanced)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%v\n", t)
	fmt.Fprintf(out, "  nodes (Eq.1):    %d\n", t.Nodes())
	fmt.Fprintf(out, "  switches (Eq.2): %d (", t.Switches())
	for l := 1; l <= t.Levels(); l++ {
		if l > 1 {
			fmt.Fprint(out, " + ")
		}
		fmt.Fprintf(out, "%d@L%d", t.LevelSize(l), l)
	}
	fmt.Fprintln(out, ")")
	fmt.Fprintf(out, "  directed channels: %d\n", t.Channels())
	fmt.Fprintf(out, "  P(j) (Eq.4):     %v\n", formatDist("j", t.ProbJ()))
	fmt.Fprintf(out, "  d_avg (Eq.8):    %.6f   closed form (Eq.9): %.6f\n",
		t.AvgDistance(), t.AvgDistanceClosedForm())
	fmt.Fprintf(out, "  bisection width:  %d links (full bisection: N/2)\n", t.BisectionWidth())
	if check {
		if err := t.CheckStructure(); err != nil {
			return err
		}
		if err := t.VerifyFullBisection(); err != nil {
			return err
		}
		fmt.Fprintln(out, "  structural verification: OK")
		fmt.Fprintln(out, "  all-pairs balanced routing load:")
		for _, s := range t.SummarizeLoads(t.LoadMatrix()) {
			fmt.Fprintf(out, "    %v\n", s)
		}
	}
	return nil
}

// printTopology reports any topo.Topology through the plugin contract alone.
func printTopology(out io.Writer, nt topo.Topology, check bool) error {
	fmt.Fprintf(out, "%v\n", nt)
	fmt.Fprintf(out, "  nodes:             %d\n", nt.Nodes())
	fmt.Fprintf(out, "  switches:          %d\n", nt.Switches())
	fmt.Fprintf(out, "  directed channels: %d\n", nt.Channels())
	fmt.Fprintf(out, "  P(d):              %v\n", formatDist("d", nt.RouteDist()))
	fmt.Fprintf(out, "  d_avg:             %.6f\n", nt.AvgDistance())
	fmt.Fprintf(out, "  max route length:  %d\n", nt.MaxRouteLen())
	if check {
		if err := nt.CheckStructure(); err != nil {
			return err
		}
		fmt.Fprintln(out, "  structural verification: OK")
	}
	return nil
}

// formatDist renders the non-zero tail of a distribution, labeling each
// entry by its index (the zero-skip leaves tree NCA distributions, which are
// dense, rendered exactly as before the topology plugins existed).
func formatDist(label string, p []float64) string {
	out := "["
	first := true
	for d, v := range p {
		if d == 0 || v == 0 {
			continue
		}
		if !first {
			out += " "
		}
		first = false
		out += fmt.Sprintf("%s=%d:%.4f", label, d, v)
	}
	return out + "]"
}
