// Command promlint checks a Prometheus text exposition (format 0.0.4) read
// from stdin or from file arguments: every family must carry # HELP and
// # TYPE lines, names must match the Prometheus grammar, samples must group
// under their family, label pairs must be comma-separated with no name
// repeated, and histogram/summary series must use the canonical suffixes
// (every histogram bucket with its le label). It is the smoke-test half of
// the observability contract: the server promises a lint-clean scrape, and
// CI pipes /metrics through this command to hold it to that.
//
// Usage:
//
//	curl -s localhost:8080/metrics | promlint
//	promlint scrape1.txt scrape2.txt
//
// Exit status is 0 when every input is clean, 1 otherwise (with one line
// per violation on stderr).
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"mcnet/internal/obs"
)

// errBadFlags mirrors the mcsweep convention: flag errors are already
// printed by the FlagSet.
var errBadFlags = errors.New("invalid arguments")

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		if !errors.Is(err, errBadFlags) {
			fmt.Fprintf(os.Stderr, "promlint: %v\n", err)
		}
		os.Exit(1)
	}
}

// run is the whole command behind main, factored out for tests.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("promlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: promlint [file ...]  (no files: lint stdin)")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return errBadFlags
	}
	if fs.NArg() == 0 {
		doc, err := io.ReadAll(os.Stdin)
		if err != nil {
			return fmt.Errorf("reading stdin: %v", err)
		}
		if err := obs.LintExposition(doc); err != nil {
			return err
		}
		fmt.Fprintln(stdout, "stdin: clean")
		return nil
	}
	var failed bool
	for _, path := range fs.Args() {
		doc, err := os.ReadFile(path)
		if err != nil {
			fmt.Fprintf(stderr, "%s: %v\n", path, err)
			failed = true
			continue
		}
		if err := obs.LintExposition(doc); err != nil {
			fmt.Fprintf(stderr, "%s: %v\n", path, err)
			failed = true
			continue
		}
		fmt.Fprintf(stdout, "%s: clean\n", path)
	}
	if failed {
		return errors.New("lint failed")
	}
	return nil
}
