# Local and CI entry points. CI (.github/workflows/ci.yml) invokes exactly
# these targets, so a green `make ci` locally predicts a green pipeline.

GO ?= go

# Packages fast enough for the -race pass: everything except the
# full-evaluation integration tests in internal/experiments (~15s without
# -race, several minutes with it). internal/tiered is deliberately in this
# set: its concurrent serve + migration-daemon stress tests are the whole
# point of running under the race detector.
FAST_PKGS = $$($(GO) list ./... | grep -v internal/experiments)

.PHONY: all build vet test race fuzz-smoke fidelity offline-artifacts bench bench-json bench-baseline clean fmt fmt-check tierd-smoke tierd-mt-smoke tierd-numa-smoke tierd-net-smoke tierd-obs-smoke tierd-crash-smoke ci

all: build test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Includes internal/tiered's TestFidelityAgainstSim over all twelve Table
# III workloads (~12s): the simulator-vs-engine divergence must match the
# committed testdata/fidelity.golden.
test:
	$(GO) test ./...

# The fidelity replay is skipped here: it serves from one goroutine with
# the scan ticker parked, so there is nothing for the detector to find, and
# 30M accesses take minutes under it. `make test` runs it.
race:
	$(GO) test -race -skip '^TestFidelityAgainstSim$$' $(FAST_PKGS)

# Ten seconds of the page table's fuzz target: put/get/delete streams over
# colliding keys, checked against a Go map after every step. `make test`
# already replays its seed corpus (the cases that break backward-shift
# deletion); this looks for new ones.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzTable$$' -fuzztime 10s ./internal/pagetable

# The simulator-vs-engine divergence table the fidelity test logs, as a
# file CI uploads next to the result artifacts.
fidelity:
	$(GO) test -count=1 -run '^TestFidelityAgainstSim$$' -v ./internal/tiered > fidelity.txt

# The offline artifacts are deterministic: the same seed must give
# byte-identical JSON at any parallelism. A serial and a parallel sweep are
# compared as a pipeline-level gate, and the grid artifact is kept so CI can
# publish it and result drift is diffable run over run.
offline-artifacts:
	$(GO) run ./cmd/hybridsim sweep -kind threshold -workload bodytrack -scale 0.005 -json -parallel 1 -out serial.json
	$(GO) run ./cmd/hybridsim sweep -kind threshold -workload bodytrack -scale 0.005 -json -parallel 0 -out parallel.json
	cmp serial.json parallel.json
	$(GO) run ./cmd/hybridsim figures -json -scale 0.005 -parallel 0 -out grid.json

# One-iteration benchmark smoke: catches benchmarks that no longer compile
# or crash without paying for stable measurements. internal/tiered and
# internal/server are excluded here because bench-json runs (and captures)
# exactly those suites — running them twice per CI pass buys nothing.
bench:
	$(GO) test -bench=. -benchtime=1x -run='^$$' $$($(GO) list ./... | grep -v internal/tiered | grep -v internal/server)

# Machine-readable benchmark artifact + perf gate: the serve-path suites
# as BENCH_tiered.json (hybridmem.bench/v1), published by CI so the perf
# trajectory is diffable run over run — and diffed against the committed
# BENCH_baseline.json: a result on a gated path (the lockfree table
# probe, the full engine serve path on the single-node topology, or the
# batched serve path at size=1 and size=64) more than 25% slower than
# baseline fails the build — and so does a gated name missing from the
# baseline, so the BenchmarkServeBatch rows cannot silently drop out of
# the gate. Override BENCHTIME for
# quicker (noisier) local runs; refresh the baseline deliberately with
# `make bench-baseline` when a change legitimately shifts the numbers.
# Each suite runs BENCHCOUNT times and benchjson gates on the per-name
# minimum — the noise-robust estimator — so one descheduled repetition
# cannot flip the gate.
BENCHTIME ?= 300000x
BENCHCOUNT ?= 3
# Checkpoint cuts fsync, so each iteration is milliseconds — the
# checkpoint suite runs far fewer iterations than the in-memory serve
# suites and gets its own benchtime knob. The delta rows are gated: a
# delta cut regressing toward full-cut cost is exactly the regression
# the delta log exists to prevent.
CKPT_BENCHTIME ?= 30x
BENCH_SUITES = BenchmarkShardedTable|BenchmarkTieredServe|BenchmarkServeParallel|BenchmarkServeBatch|BenchmarkServeRESP|BenchmarkServeProcess|BenchmarkRESPParse
BENCH_PKGS = ./internal/tiered ./internal/server
BENCH_GATE = ^BenchmarkServeParallel/impl=(lockfree|engine/nodes=1)/|^BenchmarkServeBatch/size=(1|64)$$|^BenchmarkCheckpointCut/mode=delta
bench-json:
	$(GO) test -bench='$(BENCH_SUITES)' -benchtime=$(BENCHTIME) -count=$(BENCHCOUNT) -run='^$$' $(BENCH_PKGS) > bench_tiered.txt
	$(GO) test -bench='^BenchmarkCheckpointCut$$' -benchtime=$(CKPT_BENCHTIME) -count=$(BENCHCOUNT) -run='^$$' ./internal/persist >> bench_tiered.txt
	$(GO) run ./cmd/benchjson -suite tiered -baseline BENCH_baseline.json -gate '$(BENCH_GATE)' -out BENCH_tiered.json < bench_tiered.txt
	@rm -f bench_tiered.txt

# Regenerate the committed perf baseline (run on the machine the gate will
# compare on; commit the result).
bench-baseline:
	$(GO) test -bench='$(BENCH_SUITES)' -benchtime=$(BENCHTIME) -count=$(BENCHCOUNT) -run='^$$' $(BENCH_PKGS) > bench_tiered.txt
	$(GO) test -bench='^BenchmarkCheckpointCut$$' -benchtime=$(CKPT_BENCHTIME) -count=$(BENCHCOUNT) -run='^$$' ./internal/persist >> bench_tiered.txt
	$(GO) run ./cmd/benchjson -suite tiered-baseline -out BENCH_baseline.json < bench_tiered.txt
	@rm -f bench_tiered.txt

# Online-engine smoke: warm the table, serve a short concurrent
# closed-loop run and emit the results artifact.
tierd-smoke:
	$(GO) run ./cmd/tierd -workload bodytrack -scale 0.05 -goroutines 4 -ops 300000 -json -out tierd.json

# Multi-tenant smoke: three isolated tenants with DRAM quotas served
# concurrently, per-tenant results emitted as an artifact.
tierd-mt-smoke:
	$(GO) run ./cmd/tierd -tenants 'bodytrack:40,canneal:30,ferret:30' -scale 0.02 -goroutines 4 -ops 200000 -json -out tierd-mt.json

# NUMA smoke: two emulated nodes with per-node DRAM/NVM pools, the
# artifact kept for CI to upload. What it must hold — one row per node,
# nonzero local AND remote migrations — is asserted by TestNUMASmoke in
# cmd/tierd, which `make test` runs.
tierd-numa-smoke:
	$(GO) run ./cmd/tierd -workload bodytrack -scale 0.02 -goroutines 4 -ops 200000 -numa nodes=2,remote-penalty=1.8 -json -out tierd-numa.json

# Network smoke across a real process boundary: build tierd once, start
# its RESP server in the background, drive pipelined load at it from the
# benchmark client over loopback, then SIGTERM the server and wait for
# the drain (a drain that is not clean exits nonzero). Both artifacts are
# kept for CI to upload; their contents (engine hits seen over the wire,
# batched dispatches, command counts, clean drain) are asserted by
# TestNetSmoke in cmd/tierd.
tierd-net-smoke:
	$(GO) build -o tierd-net-bin ./cmd/tierd
	@./tierd-net-bin -serve 127.0.0.1:16379 -workload bodytrack -scale 0.05 -json -out tierd-net-serve.json & \
	SRV=$$!; \
	./tierd-net-bin -connect 127.0.0.1:16379 -workload bodytrack -scale 0.05 \
		-connections 2 -pipeline 16 -ops 200000 -duration 30s -json -out tierd-net-client.json \
		|| { kill $$SRV 2>/dev/null; exit 1; }; \
	kill -TERM $$SRV && wait $$SRV
	@rm -f tierd-net-bin

# Crash-recovery smoke: the persistence tentpole's end-to-end gate, three
# phases. Phase 1: a tierd -serve with -persist cuts a full base then
# periodic delta cuts (-checkpoint-full-every 64 keeps the chain on
# deltas) while the client measures the cold-start recovery KPI (-kpi:
# time to 90% of the steady-state hit rate); after a quiet window the
# server is killed with SIGKILL between delta cuts — no drain, no final
# checkpoint, exactly the crash the chain's frame recovery exists for.
# Phase 2: a server restarted on the same directory must replay base +
# deltas (restore_chain_deltas >= 1), restore page-count-exactly
# (restore_pages == restore_chain_records - restore_skipped), warm up
# through the daemon storm (-warmup-dram-topk 0), and its client-measured
# warm KPI must beat the cold one; its quiet-window delta cuts must also
# be far smaller than the base (the O(dirty) claim, checked on bytes).
# Phase 3: another restart with age-tiered warm-up on
# (-warmup-dram-topk 1000000) places the hottest restored pages straight
# into DRAM (restore_warm_direct > 0), must still beat the cold start on
# the recovery KPI, and must restore MORE pages than phase 2: a
# storm-only restart targets NVM for everything, so when the checkpoint
# holds a full machine (NVM + DRAM residency) the NVM overflow is
# dropped on the floor (restore_skipped), while direct DRAM placement
# absorbs exactly that overflow — the deterministic, page-count-exact
# win of age-tiered warm-up. The storm-vs-topk gap is NOT asserted on
# cumulative KPI rates: at this scale the storm drains its whole queue
# in one 2ms scan tick, so over a 3s window the two warm restarts are
# statistically identical and either could win a cumulative-rate race.
tierd-crash-smoke:
	$(GO) build -o tierd-crash-bin ./cmd/tierd
	@rm -rf tierd-crash-persist; \
	./tierd-crash-bin -serve 127.0.0.1:16383 -workload bodytrack -scale 0.5 \
		-persist tierd-crash-persist -checkpoint-interval 250ms -checkpoint-full-every 64 \
		-json -out tierd-crash-serve1.json & \
	SRV=$$!; \
	./tierd-crash-bin -connect 127.0.0.1:16383 -workload bodytrack -scale 0.5 \
		-connections 2 -pipeline 8 -duration 3s -kpi -json -out tierd-crash-cold.json \
		|| { kill -9 $$SRV 2>/dev/null; exit 1; }; \
	sleep 1; \
	kill -9 $$SRV; wait $$SRV 2>/dev/null; \
	./tierd-crash-bin -serve 127.0.0.1:16383 -workload bodytrack -scale 0.5 \
		-persist tierd-crash-persist -checkpoint-interval 250ms -checkpoint-full-every 64 \
		-warmup-dram-topk 0 -json -out tierd-crash-serve2.json & \
	SRV=$$!; \
	./tierd-crash-bin -connect 127.0.0.1:16383 -workload bodytrack -scale 0.5 \
		-connections 2 -pipeline 8 -duration 3s -kpi -json -out tierd-crash-warm.json \
		|| { kill $$SRV 2>/dev/null; exit 1; }; \
	sleep 1; \
	kill -TERM $$SRV && wait $$SRV; \
	./tierd-crash-bin -serve 127.0.0.1:16383 -workload bodytrack -scale 0.5 \
		-persist tierd-crash-persist -checkpoint-interval 250ms -checkpoint-full-every 64 \
		-warmup-dram-topk 1000000 -json -out tierd-crash-serve3.json & \
	SRV=$$!; \
	./tierd-crash-bin -connect 127.0.0.1:16383 -workload bodytrack -scale 0.5 \
		-connections 2 -pipeline 8 -duration 3s -kpi -json -out tierd-crash-warm2.json \
		|| { kill $$SRV 2>/dev/null; exit 1; }; \
	kill -TERM $$SRV && wait $$SRV
	@python3 -c "\
	import json; \
	cold = json.load(open('tierd-crash-cold.json'))['results'][0]['values']; \
	warm = json.load(open('tierd-crash-warm.json'))['results'][0]['values']; \
	warm2 = json.load(open('tierd-crash-warm2.json'))['results'][0]['values']; \
	srv = json.load(open('tierd-crash-serve2.json'))['results'][0]['values']; \
	srv3 = json.load(open('tierd-crash-serve3.json'))['results'][0]['values']; \
	assert srv['cold_start'] == 0 and srv['restore_pages'] > 0, 'restart did not restore the checkpoint'; \
	assert srv['restore_chain_deltas'] >= 1, 'SIGKILL restart replayed no delta cuts'; \
	assert srv['restore_pages'] == srv['restore_chain_records'] - srv['restore_skipped'], \
		'restore not page-count-exact: %d restored vs %d chain - %d skipped' \
		% (srv['restore_pages'], srv['restore_chain_records'], srv['restore_skipped']); \
	assert srv['restore_warm'] > 0, 'restore queued no warm-up candidates'; \
	assert srv['checkpoint_delta_cuts'] > 0, 'server cut no deltas'; \
	assert srv['checkpoint_last_delta_bytes'] * 5 < srv['checkpoint_base_bytes'], \
		'quiet-window delta not small: %d bytes vs %d base' \
		% (srv['checkpoint_last_delta_bytes'], srv['checkpoint_base_bytes']); \
	assert srv['invariants_clean'] == 1, 'invariants violated after recovery'; \
	assert srv['clean_drain'] == 1, 'post-recovery drain was not clean'; \
	assert srv['final_checkpoint'] == 1, 'final checkpoint failed'; \
	assert srv3['cold_start'] == 0 and srv3['restore_warm_direct'] > 0, \
		'top-K restart placed no pages directly in DRAM'; \
	assert srv3['restore_pages'] == srv3['restore_chain_records'] - srv3['restore_skipped'], \
		'phase-3 restore not page-count-exact'; \
	assert srv3['restore_skipped'] < srv['restore_skipped'] and srv3['restore_pages'] > srv['restore_pages'], \
		'top-K placement did not absorb the storm-only restore overflow: %d skipped vs %d' \
		% (srv3['restore_skipped'], srv['restore_skipped']); \
	assert srv3['invariants_clean'] == 1, 'invariants violated after top-K recovery'; \
	assert cold['kpi_samples'] > 0 and warm['kpi_samples'] > 0 and warm2['kpi_samples'] > 0, 'KPI sampler produced no samples'; \
	assert warm['kpi_t90_ms'] < cold['kpi_t90_ms'], \
		'warm restart not faster to 90%% steady hit rate: warm %.1fms vs cold %.1fms' % (warm['kpi_t90_ms'], cold['kpi_t90_ms']); \
	assert warm2['kpi_t90_ms'] < cold['kpi_t90_ms'], \
		'top-K warm restart not faster to 90%% steady hit rate: topk %.1fms vs cold %.1fms' % (warm2['kpi_t90_ms'], cold['kpi_t90_ms']); \
	print('tierd-crash-smoke: ok (restored %d pages over %d deltas, %d warm; topk restored %d with %d direct, %d fewer drops; t90 warm %.1fms / topk %.1fms < cold %.1fms)' \
		% (srv['restore_pages'], srv['restore_chain_deltas'], srv['restore_warm'], \
		srv3['restore_pages'], srv3['restore_warm_direct'], srv['restore_skipped'] - srv3['restore_skipped'], \
		warm['kpi_t90_ms'], warm2['kpi_t90_ms'], cold['kpi_t90_ms']))"
	@rm -f tierd-crash-bin; rm -rf tierd-crash-persist

# Observability smoke: a background tierd -serve with the admin plane on,
# pipelined RESP load driven at it in two passes with different hot sets
# (the second workload heats pages the first left in NVM, so the daemon
# promotes, not just demand-faults). The trace ring is sized above the
# run's total migration count (-trace-ring 65536): promotions are rare
# next to demotion/eviction churn and would be overwritten out of a
# default-size ring. scripts/obs_smoke.py then scrapes
# /healthz, /readyz (invariants included), /metrics and /events and
# asserts the scrape is well-formed with live per-tenant AND per-node
# series, and that the migration trace artifact holds both promotion and
# demotion events with tenant+node attribution. The scrape and the event
# artifact are kept (tierd-obs-metrics.txt, tierd-obs-events.json) and
# uploaded by CI.
tierd-obs-smoke:
	$(GO) build -o tierd-obs-bin ./cmd/tierd
	@./tierd-obs-bin -serve 127.0.0.1:16381 -admin 127.0.0.1:16061 \
		-tenants 'bodytrack:50,canneal:30' -numa nodes=2 -scale 0.05 \
		-trace-ring 65536 -json -out tierd-obs-serve.json & \
	SRV=$$!; \
	./tierd-obs-bin -connect 127.0.0.1:16381 -workload bodytrack -scale 0.05 \
		-connections 2 -pipeline 16 -ops 200000 -duration 30s -json -out tierd-obs-client.json \
		|| { kill $$SRV 2>/dev/null; exit 1; }; \
	./tierd-obs-bin -connect 127.0.0.1:16381 -workload canneal -scale 0.05 \
		-connections 2 -pipeline 16 -ops 200000 -duration 30s -json -out tierd-obs-client2.json \
		|| { kill $$SRV 2>/dev/null; exit 1; }; \
	python3 scripts/obs_smoke.py http://127.0.0.1:16061 tierd-obs \
		|| { kill $$SRV 2>/dev/null; exit 1; }; \
	kill -TERM $$SRV && wait $$SRV
	@rm -f tierd-obs-bin

# Remove the generated run artifacts (smoke JSON/metrics dumps, bench
# output, smoke binaries) that otherwise linger at the repo root. The
# committed BENCH_baseline.json is not touched.
clean:
	rm -f tierd.json tierd-mt.json tierd-numa.json \
		tierd-net-serve.json tierd-net-client.json tierd-net-bin \
		tierd-obs-serve.json tierd-obs-client.json tierd-obs-client2.json \
		tierd-obs-metrics.txt tierd-obs-events.json tierd-obs-bin \
		tierd-crash-serve1.json tierd-crash-serve2.json tierd-crash-serve3.json \
		tierd-crash-cold.json tierd-crash-warm.json tierd-crash-warm2.json tierd-crash-bin \
		BENCH_tiered.json bench_tiered.txt fidelity.txt \
		serial.json parallel.json grid.json
	rm -rf tierd-crash-persist

fmt:
	gofmt -w .

fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

ci: fmt-check build vet test race fuzz-smoke fidelity offline-artifacts bench bench-json tierd-smoke tierd-mt-smoke tierd-numa-smoke tierd-net-smoke tierd-crash-smoke tierd-obs-smoke
