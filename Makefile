GO ?= go

.PHONY: all build test race check chaos audit flight recovery smoke bench bench-overload bench-propagation bench-recovery bench-serve bench-wire compare-serve run

all: check

build:
	$(GO) build ./...

# Tests run with -shuffle=on so order dependencies cannot hide.
test:
	$(GO) test -shuffle=on ./...

# The whole module runs under the race detector — no package allowlist. The
# serve plane (striped cache, RCU dispatch, zero-alloc hit path) is lock-free
# or fine-grained by design, and every package is expected to be race-clean.
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
# olympicsd binary re-executes itself as two serving-node processes, the
# parent runs the master plane against them over TCP (log shipping, page
# pushes, remote serves), commits a result, and asserts the updated page
# is a cache hit with fresh bytes on every node.
smoke:
	$(GO) run ./cmd/olympicsd -role smoke -nodes 2

# bench-overload records serve-path throughput, p50/p99 latency, and
# hit/stale/shed rates at 1x, 3x, and 5x of estimated render capacity.
bench-overload:
	$(GO) run ./cmd/simulate -overload-bench BENCH_overload.json -seed 1

# bench-propagation records the incremental-propagation comparison: a seeded
# Olympic update-burst sequence through the trigger -> engine -> cache path
# with memoized fragment assembly versus the full-re-render baseline,
# including the render-vs-reuse accounting (renders_total must equal the
# planner's changed-fragment count; the run fails otherwise).
bench-propagation:
	$(GO) run ./cmd/simulate -propagation-bench BENCH_propagation.json -seed 1

# bench-recovery records the warm-vs-cold readmission comparison: MTTR and
# post-rejoin hit/miss counts for a warmup-gated rejoin against an
# empty-cache rejoin (the run fails unless warm beats cold).
bench-recovery:
	$(GO) run ./cmd/simulate -recovery-bench BENCH_recovery.json -seed 1

# bench-serve records the serve-path saturation benchmark: the full
# dispatcher -> node -> httpserver -> cache path under a Zipf hit/miss/stale
# mix and a pure-hit workload, across GOMAXPROCS 1/2/4/8, for the striped/
# RCU/zero-alloc path against the pre-overhaul baseline in the same run.
bench-serve:
	$(GO) run ./cmd/simulate -serve-bench BENCH_serve.json -seed 1998

# compare-serve re-measures the serve benchmark and fails on a material
# regression against the committed BENCH_serve.json (any hit-path alloc
# increase; >15% drop in throughput or speedup-vs-baseline).
compare-serve:
	$(GO) run ./cmd/simulate -serve-bench /tmp/BENCH_serve.fresh.json -seed 1998
	$(GO) run ./cmd/analyze -compare BENCH_serve.json -fresh /tmp/BENCH_serve.fresh.json

# bench-wire records the framed TCP transport's loopback figures: page-push
# throughput through the pooled, pipelined client and the RPC latency
# p50/p99 (the run fails on any call error or reconnect — loopback must be
# clean).
bench-wire:
	$(GO) run ./cmd/simulate -wire-bench BENCH_wire.json -seed 1

# check is the tier-1 gate: everything builds, vets clean, every test
# passes (shuffled), the nested bench module's tests pass, the whole module
# is race-clean, the chaos tournament converges, the consistency audit
# proves the plant coherent, the recovery scenario readmits a failed node
# without serving stale pages, the multi-process smoke proves the wire path
# against real child processes, and the serve benchmark shows no
# regression against the committed baseline.
check: build
	$(GO) vet ./...
	$(GO) test -shuffle=on ./...
	cd bench && $(GO) test ./...
	$(GO) test -race -shuffle=on ./...
	$(GO) run ./cmd/simulate -chaos -seed 1
	$(GO) run ./cmd/simulate -audit -seed 1
	$(GO) run ./cmd/simulate -recovery -seed 1
	$(GO) run ./cmd/olympicsd -role smoke -nodes 2
	$(MAKE) compare-serve

bench:
	$(GO) test -bench=. -benchmem -run=^$$ ./...

run:
	$(GO) run ./cmd/olympicsd -addr :8098 -tick 2s
