GO ?= go

.PHONY: all build test race check chaos audit flight recovery smoke examples bench bench-recovery run

all: check

build:
	$(GO) build ./...

# Tests run with -shuffle=on so order dependencies cannot hide.
test:
	$(GO) test -shuffle=on ./...

# The whole module runs under the race detector — no package allowlist. The
# serve plane (one-lock node caches, RCU dispatch, zero-alloc hit path) shares
# state across goroutines by design, and every package is expected to be
# race-clean.
race:
	$(GO) test -race -shuffle=on ./...

# chaos runs the deterministic fault-injection tournament (every fault kind
# against a live deployment, asserting zero lost transactions, zero stale
# pages, and zero residual freshness-SLO violations) followed by the 5:1
# overload scenario (hits always admitted, staleness bounded by budget,
# sheds bounded, full reconvergence).
chaos:
	$(GO) run ./cmd/simulate -chaos -seed 1

# audit runs the standalone consistency audit: traffic under propagation,
# convergence, then a shadow-render sweep of every page on every complex
# asserting zero incoherent pages and a complete, minimal ODG.
audit:
	$(GO) run ./cmd/simulate -audit -seed 1

# flight drives the anomaly flight recorder through one of each trigger
# (SLO violation, monitor crash, shed, incoherent page) and prints the
# dump inventory plus the canonical-bytes digest.
flight:
	$(GO) run ./cmd/simulate -flight -seed 1

# recovery runs the deterministic node-recovery scenario: kill a node,
# commit under it, readmit it through the warmup and slow-start ramp, then
# flap it three times and assert the quarantine grows — with zero
# post-rejoin misses, zero LSN-floor violations, and a coherent audit.
recovery:
	$(GO) run ./cmd/simulate -recovery -seed 1

# smoke runs the multi-process deployment end to end on loopback: the
# olympicsd binary re-executes itself as two serving-node processes (each a
# cache holding no database), the parent runs the master role's plant
# against them over TCP (page pushes, remote serves), commits a result, and
# asserts the updated page is a cache hit with fresh bytes on every node.
# It then expects 200 from the master's /stats, /debug/metrics,
# /debug/traces, /debug/serve and /debug/journal, and a non-empty
# /debug/traces summary that recorded the commit's propagation. It restarts
# node up1 empty on its old wire address, waits two probe intervals, and
# asserts that 20 page GETs through the master all show the commit and that
# dispatch_healthy_nodes reads 1: the restarted node is not readmitted. It
# then invalidates the result page on up0 over up0's own connection: 5
# serves through the master's dispatcher must each be a miss the master
# renders, showing the commit. Last, the master's /logreport must count
# exactly those 20 GETs: 20 entries, 0 errors, and the result page first in
# the top pages with 20 hits.
smoke:
	$(GO) run ./cmd/olympicsd -role smoke -nodes 2

# examples runs every program under examples/ once; a non-zero exit fails
# the step, so an example cannot rot unnoticed. Each finishes in under a
# second.
examples:
	@set -e; for d in examples/*/; do \
		echo "$(GO) run ./$${d%/}"; \
		$(GO) run ./$${d%/} > /dev/null; \
	done

# bench-recovery records the warm-vs-cold readmission comparison: MTTR and
# post-rejoin hit/miss counts for a warmup-gated rejoin against an
# empty-cache rejoin (the run fails unless warm beats cold).
bench-recovery:
	$(GO) run ./cmd/simulate -recovery-bench BENCH_recovery.json -seed 1

# golden runs one simulate scenario at seed 1 and compares its stdout with
# the committed report in cmd/simulate/testdata: a non-zero exit or any
# differing byte fails the step. After an intended change to a scenario's
# output, regenerate its report with
#   go run ./cmd/simulate -<mode> -seed 1 > cmd/simulate/testdata/<mode>.seed1.golden
define golden
	out=$$(mktemp) && trap 'rm -f "$$out"' EXIT && \
	$(GO) run ./cmd/simulate -$(1) -seed 1 > "$$out" && \
	diff -u cmd/simulate/testdata/$(1).seed1.golden "$$out"
endef

# check is the tier-1 gate: everything builds, both modules vet clean, every
# test passes (shuffled), the nested bench module's tests pass, the whole module
# is race-clean, every Go micro-benchmark runs once (so none can rot
# unnoticed; timings are not judged), the chaos tournament converges, the consistency audit
# proves the plant coherent, the recovery scenario readmits a failed node
# without serving stale pages, the flight recorder captures a dump for each
# of its triggers (each of those four reports byte-identical to its golden),
# the multi-process smoke proves the wire path against real child processes,
# and every example runs to a zero exit. It holds no throughput threshold: the
# benchmark ledger (make bench) judges performance against the parent
# commit on the same host.
check: build
	$(GO) vet ./...
	cd bench && $(GO) vet ./...
	$(GO) test -shuffle=on ./...
	cd bench && $(GO) test ./...
	$(GO) test -race -shuffle=on ./...
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...
	$(call golden,chaos)
	$(call golden,audit)
	$(call golden,recovery)
	$(call golden,flight)
	$(GO) run ./cmd/olympicsd -role smoke -nodes 2
	$(MAKE) --no-print-directory examples

# bench runs the benchmark ledger: the live plant under the workloads
# declared in BENCHMARK.json (see bench/README.md). The Go
# micro-benchmarks stay reachable as go test -bench . -benchmem -run '^$' ./...
bench:
	bash bench/run.sh

run:
	$(GO) run ./cmd/olympicsd -addr :8098 -tick 2s
