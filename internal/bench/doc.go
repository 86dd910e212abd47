// Package bench holds the cross-layer performance benchmarks of the
// simulation core: the discrete-event scheduler (internal/des), the wormhole
// flow-control engine (internal/wormhole), the whole-system simulator
// (internal/mcsim), the analytic model's evaluator (internal/analytic) and
// the end-to-end builtin figure sweep (internal/sweep).
//
// The benchmarks are the regression harness behind `make bench`, which runs
// them with -benchmem and -json and writes BENCH_<rev>.json at the repo root.
// Compare two revisions with `benchstat` or by diffing the ns/op and
// allocs/op fields of the two artifacts; the README's Performance section
// records the measured numbers for each optimization PR.
//
// The package contains no non-test code: it exists so the hot-path
// benchmarks live in one place, decoupled from the per-package unit tests,
// and so `go test -bench . ./internal/bench` exercises every layer at once.
package bench
