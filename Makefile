# Tier-1 gate: `make ci` is what every change must keep green (see
# ROADMAP.md). Individual targets are provided for quick local loops.

GO ?= go
GOFMT ?= gofmt

.PHONY: ci fmt build vet test race portable fuzz-smoke bench bench-smoke bench-json bench-ab bench-guard serve-smoke trace-smoke store-smoke cluster-smoke perfbench-test

ci: fmt vet build test race portable fuzz-smoke bench-smoke serve-smoke trace-smoke store-smoke cluster-smoke perfbench-test

build:
	$(GO) build ./...

# Formatting gate: fail when gofmt would rewrite any file.
fmt:
	@out=$$($(GOFMT) -l .); \
	if [ -n "$$out" ]; then echo "gofmt: unformatted files:" >&2; echo "$$out" >&2; exit 1; fi

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# The benchmark harness is its own Go module (perfbench/go.mod), so the
# root ./... never builds it; vet and test it here so a change to the
# service API or to span names cannot silently break the benchmark.
perfbench-test:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# The parallel runner, the multi-core machine, the queue/core building
# blocks they drive concurrently, the job server's cache/dedup/
# admission paths, the functional simulator's compiled/interpreted
# pair, and the result store's single-writer/multi-reader locking; run
# them under the race detector.
race:
	$(GO) test -race ./internal/experiments ./internal/machine ./internal/queue ./internal/cpu ./internal/simserver ./internal/fnsim ./internal/resultstore ./internal/cluster

# Host independence: a measurement's bytes must not depend on the
# machine that simulated it. The packages that execute the ISA run
# their tests with a 32-bit int (386 runs natively on amd64), and the
# arm64 assembly of the workload references and the simulator packages
# must hold no fused multiply-add: the simulated mul.d and add.d each
# round, so a fused reference could disagree with them.
PORTABLE_TEST_PKGS = ./internal/isa ./internal/mem ./internal/fnsim ./internal/cpu
FMA_SCAN_PKGS = ./internal/workloads ./internal/isa ./internal/mem ./internal/fnsim \
	./internal/cpu ./internal/queue ./internal/bpred ./internal/cfg ./internal/asm \
	./internal/slicer ./internal/profile ./internal/machine ./internal/stats ./internal/experiments
portable:
	GOARCH=386 $(GO) vet ./...
	GOARCH=386 $(GO) test $(PORTABLE_TEST_PKGS)
	@out=$$(GOARCH=arm64 $(GO) build -gcflags=-S $(FMA_SCAN_PKGS) 2>&1) || { echo "$$out" >&2; exit 1; }; \
	fused=$$(echo "$$out" | grep -E '[[:space:]]F(N?MADD|N?MSUB)[SD]?[[:space:]]'); \
	if [ -n "$$fused" ]; then echo "portable: fused multiply-add in arm64 code:" >&2; echo "$$fused" >&2; exit 1; \
	else echo "portable: no fused multiply-add in arm64 code"; fi

# Short native-fuzz passes: arbitrary assembler source must never
# panic, the compiled fnsim fast path must stay bit-identical to the
# interpreter on arbitrary programs, every generated program must run
# identically on the reference, the co-simulated streams and all four
# machines, result-store recovery from byte flips and truncation must
# yield a valid prefix or refuse, never a wrong record, the job-response parser must accept only bodies
# that re-encode byte-identically, the fixed-shape job-request reader
# must agree with encoding/json on every body it accepts, and the
# traceparent parser must accept only well-formed headers that rebuild
# from their parts.
# Deeper runs: drop -fuzztime.
fuzz-smoke:
	$(GO) test -run xxx -fuzz FuzzAssemble -fuzztime 3s ./internal/asm
	$(GO) test -run xxx -fuzz FuzzCompiledVsInterpreted -fuzztime 3s ./internal/fnsim
	$(GO) test -run xxx -fuzz FuzzDifferentialPrograms -fuzztime 3s ./internal/machine
	$(GO) test -run xxx -fuzz FuzzRecover -fuzztime 3s ./internal/resultstore
	$(GO) test -run xxx -fuzz FuzzJobEnvelope -fuzztime 3s ./internal/simserver
	$(GO) test -run xxx -fuzz FuzzJobRequest -fuzztime 3s ./internal/simserver
	$(GO) test -run xxx -fuzz FuzzTraceparent -fuzztime 3s ./internal/tracing

# One pass over every table/figure benchmark (reports simMIPS).
bench:
	$(GO) test -run xxx -bench . -benchtime 1x .

# A single-iteration benchmark pass as a CI smoke: catches harness
# regressions (a benchmark that panics or wedges) without paying for a
# full measurement run.
bench-smoke:
	$(GO) test -run xxx -bench . -benchtime 1x -timeout 10m .

# End-to-end durability smoke: populate a result store through a live
# hidisc-serve, kill -9 it mid-batch, reopen the directory and require
# every acknowledged record byte-identical, then restart on the same
# address with a deliberately torn tail and prove the batch completes
# from the store (hit and recovered-record counters as the receipt).
store-smoke:
	$(GO) test -run TestStoreSurvivesKill9 -v ./cmd/hidisc-serve

# End-to-end service smoke: start hidisc-serve on an ephemeral port,
# run one job through the HTTP client, confirm the repeat is a cache
# hit, SIGTERM, and require a clean drain (exit 0).
serve-smoke:
	$(GO) run ./cmd/hidisc-serve -smoke

# End-to-end telemetry smoke: run one workload with the machine trace
# and interval timeline enabled, then validate the artifacts — the
# trace must be loadable Chrome trace-event JSON and the timeline must
# honour the sampler's row contract (boundary rows, ceil(cycles/
# interval) count). Then the distributed half: a three-worker fleet
# runs the fig8 matrix with tracing on, the coordinator assembles one
# merged Perfetto file, and tracecheck -merged validates the span
# forest plus the spliced machine timelines.
trace-smoke:
	rm -rf .smoke && mkdir -p .smoke
	$(GO) run ./cmd/hidisc-sim -workload Pointer -scale test -arch hidisc \
		-trace .smoke/trace.json -timeline .smoke/timeline.ndjson > /dev/null
	$(GO) run ./cmd/hidisc-tracecheck -trace .smoke/trace.json -timeline .smoke/timeline.ndjson
	rm -rf .smoke
	$(GO) test -count=1 -run TestFleetTraceMerged -v ./cmd/hidisc-coord

# End-to-end cluster smoke under the race detector: a coordinator and a
# three-worker fleet run a fig8-derived batch, one worker is killed -9
# mid-batch (its jobs must requeue onto the survivors and the batch
# complete byte-identical to a single node), then a two-worker fleet is
# drained with SIGTERM and every process must exit 0 with the
# departures recorded as graceful.
cluster-smoke:
	$(GO) test -race -count=1 -run 'TestClusterSurvivesKill9|TestClusterFleetDrain' -v ./cmd/hidisc-coord

# Regenerate the committed per-run timing baseline. The Figure 8 matrix
# runs sequentially at paper scale, repeated 3 times interleaved; each
# entry commits its minimum wall time (the least-noisy estimator on a
# shared host). Diff BENCH_fig8.json to see a change's performance
# effect; reps and host info are recorded in the file.
bench-json:
	$(GO) run ./cmd/hidisc-bench -bench-json BENCH_fig8.json

# Honest A/B: build this tree's hidisc-bench and the one at OLD=<ref>,
# interleave them min-of-3, and print the per-binary totals and delta.
# Usage: make bench-ab OLD=HEAD~1
bench-ab:
	@test -n "$(OLD)" || { echo "usage: make bench-ab OLD=<git-ref>" >&2; exit 1; }
	./scripts/bench_ab.sh "$(OLD)"

# Guard the committed baseline's semantics: a fresh sequential run must
# simulate exactly the same total cycle count as BENCH_fig8.json on
# disk (wall time may drift with the host; cycles may not), and every
# zero-allocation steady-state pin must still hold — a hot-loop
# allocation is a performance regression even when cycles agree. The
# compile stages are pinned too: the cache profile must run exactly the
# reference's instructions, and the reaching-definitions chains and
# both separated bundles of all nine workloads must match their golden
# digests. The closed-form timing checks run before the cycle total, so a
# drift names the latency formula that broke, not only the total.
bench-guard:
	$(GO) test -run 'Alloc' ./internal/cpu ./internal/queue ./internal/mem ./internal/profile
	$(GO) test -run 'TestClosedFormTiming' ./internal/cpu
	$(GO) test -run 'TestProfileMatchesReference|TestCompileGolden' ./internal/profile ./internal/slicer
	$(GO) run ./cmd/hidisc-bench -bench-json .bench-guard.json -bench-reps 1
	@want=$$(sed -n 's/.*"totalSimCycles": \([0-9]*\).*/\1/p' BENCH_fig8.json); \
	got=$$(sed -n 's/.*"totalSimCycles": \([0-9]*\).*/\1/p' .bench-guard.json); \
	rm -f .bench-guard.json; \
	if [ "$$want" != "$$got" ]; then \
		echo "bench-guard: totalSimCycles drifted: baseline $$want, got $$got" >&2; exit 1; \
	else \
		echo "bench-guard: totalSimCycles $$got matches baseline"; \
	fi
