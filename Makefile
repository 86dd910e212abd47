GO ?= go
# Benchmark artifacts are labeled with the revision they measure; a dirty
# working tree gets a -dirty suffix so numbers are never attributed to a
# commit they don't correspond to.
REV := $(shell git rev-parse --short HEAD 2>/dev/null || echo dev)$(shell test -z "$$(git status --porcelain 2>/dev/null)" || echo -dirty)
# bench writes here; bench-gate overrides it so a CI run never clobbers (or
# accidentally becomes) the committed baseline.
BENCH_OUT ?= BENCH_$(REV).json
# Per-fuzzer exploration budget of the fuzz smoke.
FUZZTIME ?= 15s

.PHONY: all build test race vet vet-platforms fmt-check staticcheck lint fuzz bench bench-all bench-gate perfbench-check cover serve smoke paper paper-small ci clean

all: build test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# vet-platforms vets the tree as darwin and windows build it, so direct
# syscall use that compiles only on linux fails lint rather than a user's
# build.
vet-platforms:
	GOOS=darwin $(GO) vet ./...
	GOOS=windows $(GO) vet ./...

fmt-check:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then echo "gofmt -l flags:"; echo "$$out"; exit 1; fi

# staticcheck is optional locally (CI installs a pinned version; see
# .github/workflows/ci.yml). Skipping locally prints a notice so `make ci`
# stays honest about what it did not run.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (CI runs it)"; \
	fi

lint: fmt-check vet vet-platforms staticcheck

# The allocation gates run twenty more times in one process, so a gate that
# GC timing or other runtime noise can move fails on the change that makes
# it flaky rather than on a later one.
test: vet
	$(GO) test ./...
	$(GO) test -count=20 -run '^TestAllocs' ./internal/bench

race:
	$(GO) test -race ./...

# fuzz gives every fuzzer a short exploration budget beyond its committed
# corpus (go test accepts one -fuzz target per invocation).
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzExpand$$' -fuzztime $(FUZZTIME) ./internal/sweep
	$(GO) test -run '^$$' -fuzz '^FuzzParsePattern$$' -fuzztime $(FUZZTIME) ./internal/sweep
	$(GO) test -run '^$$' -fuzz '^FuzzResultCodec$$' -fuzztime $(FUZZTIME) ./internal/sweep
	$(GO) test -run '^$$' -fuzz '^FuzzParseWorkload$$' -fuzztime $(FUZZTIME) ./internal/workload
	$(GO) test -run '^$$' -fuzz '^FuzzParseOrganizationRoundTrip$$' -fuzztime $(FUZZTIME) ./internal/system
	$(GO) test -run '^$$' -fuzz '^FuzzParseLinkClass$$' -fuzztime $(FUZZTIME) ./internal/units
	$(GO) test -run '^$$' -fuzz '^FuzzParseTopology$$' -fuzztime $(FUZZTIME) ./internal/topo
	$(GO) test -run '^$$' -fuzz '^FuzzJellyfishDistances$$' -fuzztime $(FUZZTIME) ./internal/topo
	$(GO) test -run '^$$' -fuzz '^FuzzGridEquivalence$$' -fuzztime $(FUZZTIME) ./internal/analytic
	$(GO) test -run '^$$' -fuzz '^FuzzJourneyChains$$' -fuzztime $(FUZZTIME) ./internal/analytic
	$(GO) test -run '^$$' -fuzz '^FuzzSaturationSearch$$' -fuzztime $(FUZZTIME) ./internal/analytic
	$(GO) test -run '^$$' -fuzz '^FuzzSchedulerOrder$$' -fuzztime $(FUZZTIME) ./internal/des
	$(GO) test -run '^$$' -fuzz '^FuzzReleaseOrder$$' -fuzztime $(FUZZTIME) ./internal/wormhole
	$(GO) test -run '^$$' -fuzz '^FuzzAnalyzeRepeat$$' -fuzztime $(FUZZTIME) ./internal/serve

# bench runs the cross-layer hot-path benchmarks (internal/bench) and the
# topology build benchmark (internal/topo) five times each (benchdiff keeps
# the minimum ns/op over the repeats, so the gate never judges a single
# noisy sample) and writes the raw `go test -json` stream to
# $(BENCH_OUT), plus a condensed machine-readable summary (name → ns/op,
# B/op, allocs/op) next to it. The summary printer is cmd/benchdiff, which parses
# the same artifact the gate consumes (and is portable: no GNU grep/sed
# extensions).
bench:
	$(GO) test -run '^$$' -bench . -benchmem -count 5 -json ./internal/bench ./internal/topo > $(BENCH_OUT)
	@$(GO) run ./cmd/benchdiff -list $(BENCH_OUT)
	@$(GO) run ./cmd/benchdiff -summary $(BENCH_OUT) > $(BENCH_OUT:.json=.summary.json)
	@echo wrote $(BENCH_OUT) and $(BENCH_OUT:.json=.summary.json)
	@if ls BENCH_*.json >/dev/null 2>&1; then $(GO) run ./cmd/benchdiff -trajectory BENCH_*.json; fi

# bench-all additionally runs every per-package benchmark in the repo
# (slower; not part of the regression artifact).
bench-all:
	$(GO) test -bench=. -benchmem -run=^$$ ./...

# bench-gate is the CI benchmark regression gate: re-measure and compare
# against the committed BENCH_<rev>.json baseline, failing on >25% ns/op
# regression in any internal/bench or internal/topo benchmark. Refresh the baseline
# deliberately with: make bench && git rm BENCH_<old>.json && git add
# BENCH_<new>.json (see README).
bench-gate:
	@baseline="$$(git ls-files 'BENCH_*.json' | grep -v '\.summary\.json$$' || true)"; \
	if [ -z "$$baseline" ]; then echo "bench-gate: no committed BENCH_*.json baseline"; exit 1; fi; \
	if [ "$$(printf '%s\n' "$$baseline" | wc -l)" -ne 1 ]; then \
		echo "bench-gate: expected exactly one committed baseline, found:"; echo "$$baseline"; exit 1; fi; \
	$(MAKE) bench BENCH_OUT=BENCH_gate.json || exit 1; \
	status=0; $(GO) run ./cmd/benchdiff -threshold 1.25 "$$baseline" BENCH_gate.json || status=$$?; \
	rm -f BENCH_gate.json BENCH_gate.summary.json; exit $$status

# perfbench-check vets and tests the end-to-end benchmark (perfbench/). It is
# a separate Go module, so the root `go build ./...` never compiles it: a
# rename in a package it imports would otherwise break the benchmark with
# every other target green.
perfbench-check:
	cd perfbench && $(GO) vet . && $(GO) test .

cover:
	$(GO) test -coverprofile=cover.out ./...
	$(GO) tool cover -func=cover.out | tail -n 1

# serve runs the capacity-planning daemon locally (see cmd/mcserved -h for
# the knobs; ADDR overrides the listen address).
ADDR ?= 127.0.0.1:8080
serve:
	$(GO) run ./cmd/mcserved -addr $(ADDR)

# smoke boots mcserved on an ephemeral port, curls /healthz and /v1/analyze,
# checks every response carries an X-Request-ID correlation header, runs a
# real simulate job through the queue and scrapes its per-tier contention
# report from /v1/jobs/{id}/telemetry, runs a compare job and checks its
# result carries a numeric analysis, checks that /metrics counts the two
# analyze requests in the route's latency histogram, and pipes the scrape
# through cmd/promlint — a malformed exposition fails the build. CI runs
# this as the serve-smoke job; locally it needs curl on PATH.
smoke:
	@command -v curl >/dev/null 2>&1 || { echo "smoke: curl not installed; skipping (CI runs it)"; exit 0; }; \
	set -e; \
	tmp="$$(mktemp -d)"; \
	$(GO) build -o "$$tmp/mcserved" ./cmd/mcserved; \
	$(GO) build -o "$$tmp/promlint" ./cmd/promlint; \
	"$$tmp/mcserved" -addr 127.0.0.1:0 -log-format json >"$$tmp/out" 2>"$$tmp/log" & pid=$$!; \
	trap 'kill $$pid 2>/dev/null; rm -rf "$$tmp"' EXIT; \
	url=""; i=0; while [ $$i -lt 100 ]; do \
		url="$$(sed -n 's/^mcserved: listening on //p' "$$tmp/out")"; \
		[ -n "$$url" ] && break; \
		kill -0 $$pid 2>/dev/null || { echo "smoke: server exited early:"; cat "$$tmp/out" "$$tmp/log"; exit 1; }; \
		i=$$((i+1)); sleep 0.1; \
	done; \
	[ -n "$$url" ] || { echo "smoke: server never came up:"; cat "$$tmp/out" "$$tmp/log"; exit 1; }; \
	echo "smoke: $$url"; \
	curl -fsS -D "$$tmp/hdrs" "$$url/healthz"; \
	grep -qi '^x-request-id:' "$$tmp/hdrs" || { echo "smoke: response missing X-Request-ID header"; exit 1; }; \
	curl -fsS -X POST -d '{"org":"org1","lambda":0.0003}' "$$url/v1/analyze"; \
	curl -fsS -X POST -d '{"org":"org1","lambda":0.0003}' "$$url/v1/analyze"; \
	id="$$(curl -fsS -X POST -d '{"org":"org1","lambda":0.0003,"warmup":100,"measure":1000,"drain":100}' "$$url/v1/simulate" | sed -n 's/.*"id":"\([0-9a-f]*\)".*/\1/p')"; \
	[ -n "$$id" ] || { echo "smoke: simulate returned no job id"; exit 1; }; \
	i=0; while [ $$i -lt 100 ]; do \
		curl -fsS "$$url/v1/jobs/$$id" | grep -q '"status":"done"' && break; \
		i=$$((i+1)); sleep 0.1; \
	done; \
	[ $$i -lt 100 ] || { echo "smoke: simulate job never finished"; exit 1; }; \
	curl -fsS "$$url/v1/jobs/$$id/telemetry" | grep -q '"tiers"' || { echo "smoke: telemetry report missing tiers"; exit 1; }; \
	id="$$(curl -fsS -X POST -d '{"org":"org1","lambda":0.0003,"warmup":100,"measure":1000,"drain":100}' "$$url/v1/compare" | sed -n 's/.*"id":"\([0-9a-f]*\)".*/\1/p')"; \
	[ -n "$$id" ] || { echo "smoke: compare returned no job id"; exit 1; }; \
	i=0; while [ $$i -lt 100 ]; do \
		curl -fsS "$$url/v1/jobs/$$id" >"$$tmp/compare"; grep -q '"status":"done"' "$$tmp/compare" && break; \
		i=$$((i+1)); sleep 0.1; \
	done; \
	[ $$i -lt 100 ] || { echo "smoke: compare job never finished"; exit 1; }; \
	grep -q '"analysis":[0-9]' "$$tmp/compare" || { echo "smoke: compare result carries no numeric analysis:"; cat "$$tmp/compare"; exit 1; }; \
	curl -fsS "$$url/metrics" >"$$tmp/metrics"; \
	grep -qxF 'mcserved_request_duration_seconds_count{route="POST /v1/analyze"} 2' "$$tmp/metrics" || { echo "smoke: /metrics does not count the two analyze requests:"; grep -F 'route="POST /v1/analyze"' "$$tmp/metrics"; exit 1; }; \
	"$$tmp/promlint" <"$$tmp/metrics"; \
	echo "smoke: ok"

# paper runs the full reproduction pipeline: every manifest study at paper
# scale into paper_runs/<stamp>/ with schema-validated CSVs, agreement
# tables, charts, a perf-trajectory section over the committed BENCH
# artifacts and a machine-checked report.json verdict. Expect tens of
# minutes; paper-small is the CI-sized subset (quick scale, 5-point grids,
# <2 min). Both exit nonzero when the fidelity gate fails.
paper:
	$(GO) run ./cmd/mcrepro

paper-small:
	$(GO) run ./cmd/mcrepro -small

# ci mirrors .github/workflows/ci.yml so local runs reproduce the pipeline:
# lint job (fmt-check, vet on linux, darwin and windows, staticcheck), test job (build, test, race, fuzz),
# the bench-gate, perfbench-check, serve-smoke and repro-gate jobs.
ci: lint build test race fuzz bench-gate perfbench-check smoke paper-small

clean:
	$(GO) clean ./...
	rm -f cover.out BENCH_gate.json BENCH_gate.summary.json
	rm -rf paper_runs
