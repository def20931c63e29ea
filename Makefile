GO ?= go

.PHONY: all build vet fmt-check test test-race test-chaos test-lifecycle test-loss test-fuzz staticcheck bench bench-smoke bench-auth bench-detect bench-fine bench-render bench-service bench-online bench-lifecycle bench-loadgen bench-loss cover docs-check clean

all: vet build test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Format gate (CI runs the same check): fails listing every Go file that
# differs from gofmt output.
fmt-check:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt -l lists unformatted files:"; echo "$$unformatted"; exit 1; \
	fi

test:
	$(GO) test ./...

# Full suite under the race detector: enforces that concurrent service
# sessions are data-race-free and bit-identical to serial runs.
test-race:
	$(GO) test -race ./...

# Chaos suite under the race detector: concurrent fault storms (slot
# starvation, mid-scan cancellation, worker panics, slow-scan stalls) must
# resolve every request to a typed error or a bit-identical result and
# leave the service serviceable (ARCHITECTURE.md "Failure semantics").
# The batch Close/cancel/panic tests run with it: batch sessions share the
# streaming Session lifecycle these failure paths run through.
test-chaos:
	$(GO) test -race -count=3 -run 'TestChaos|TestServiceClose|TestServiceCancel|TestServicePanic|TestServicePreCanceled' ./internal/service/ ./internal/faultinject/

# Session-lifecycle suite under the race detector: watchdog reaping
# (stalled/expired sessions resolve typed, slots come back after abandoned-
# session storms), arrival-model determinism (jittered live-microphone
# feeds decide bit-identically to batch), and client retry/backoff.
test-lifecycle:
	$(GO) test -race -run 'TestLifecycle|TestChaosLifecycle|TestArrival|TestSessionArrival|TestRetry|TestServiceLifecycle' ./internal/service/ ./internal/arrival/ .

# Lossy-transport suite under the race detector: framed ingestion must be
# bit-identical to batch on a clean wire, deterministic (decide-or-typed-
# refusal) under seeded loss at any GOMAXPROCS, and the loss-storm chaos
# test must leak no slots (ARCHITECTURE.md "Lossy transport").
test-loss:
	$(GO) test -race -run 'TestSessionIngest|TestSessionFramed|TestSessionGapRepair|TestChaosLossStorm' ./internal/service/
	$(GO) test -race ./internal/frame/ ./internal/arrival/

# Fuzz smoke against the three wire-facing decoders — the Step-II
# descriptor (sigref trust boundary), the lossy-transport frame codec, and
# the Step-V location-difference report: ten seconds of coverage-guided
# mutation each on top of the seed corpora, which also run as plain tests
# in every `make test`.
test-fuzz:
	$(GO) test -run '^$$' -fuzz FuzzUnmarshalSignal -fuzztime 10s ./internal/sigref/
	$(GO) test -run '^$$' -fuzz FuzzFrameDecode -fuzztime 10s ./internal/frame/
	$(GO) test -run '^$$' -fuzz FuzzDecodeLocDiff -fuzztime 10s ./internal/core/

# Pinned staticcheck alongside go vet (CI installs the pin; locally the
# target is a no-op with a hint when the binary is absent, because the
# build environment may have no network).
STATICCHECK_VERSION ?= 2025.1
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; run: go install honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION)"; \
	fi

# Full benchmark suite with allocation stats (slow: runs every paper figure).
bench:
	$(GO) test -run '^$$' -bench . -benchmem ./...

# One-iteration smoke run of every benchmark: catches benchmarks that crash
# or regress catastrophically without paying the full measurement cost (CI).
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# The authentication hot path against the recorded seed baseline
# (BENCH_seed.json / PERFORMANCE.md).
bench-auth:
	$(GO) test -run '^$$' -bench 'BenchmarkAuthentication' -benchmem -benchtime 10x .

# The batched multi-session service against the serial loop
# (BENCH_service.json / PERFORMANCE.md).
bench-service:
	$(GO) test -run '^$$' -bench 'BenchmarkService' -benchmem -benchtime 5x .

# The band-limited streaming scan engine: detection end-to-end (default
# config + sliding-vs-exact at a sub-break-even coarse step) and the dsp
# micro-benches behind the break-even constants (BENCH_stream.json /
# PERFORMANCE.md).
bench-detect:
	$(GO) test -run '^$$' -bench 'BenchmarkDetectAll' -benchmem -benchtime 5x ./internal/detect/
	$(GO) test -run '^$$' -bench 'PowerSpectrumInto|PowerSpectrumBandInto|SlidingBandDFT' -benchmem ./internal/dsp/

# The streaming fine scan and zero-copy PCM ingestion: streamed
# (sliding-DFT fine hops + exact-at-peak re-check, the default-config
# production path) vs forced all-exact fine scan, plus the int16 ingestion
# path (BENCH_finescan.json / PERFORMANCE.md).
bench-fine:
	$(GO) test -run '^$$' -bench 'BenchmarkDetectAllFine|BenchmarkDetectAllPCM' -benchmem -count=3 -benchtime 5x ./internal/detect/

# The online streaming session: decision latency from the last needed
# sample's arrival, streaming replay of the full recording, and the batch
# path on the same request (BENCH_online.json / PERFORMANCE.md).
bench-online:
	$(GO) test -run '^$$' -bench 'BenchmarkOnline' -benchmem -count=3 -benchtime 10x .

# Lifecycle-watchdog overhead: the batch hot path and the streaming replay
# with generous idle/lifetime bounds armed (watchdog goroutine live) vs the
# PR-7 no-watchdog paths — must stay within noise (BENCH_lifecycle.json /
# PERFORMANCE.md).
bench-lifecycle:
	$(GO) test -run '^$$' -bench 'BenchmarkAuthentication$$|BenchmarkOnline' -benchmem -count=3 -benchtime 10x .

# The multi-core load-harness scaling grid: piano-loadgen drives closed-loop
# saturation workloads across GOMAXPROCS × concurrency × {batch, stream} and
# records BENCH_loadgen.json (analysis in PERFORMANCE.md). The committed file
# is the older 1-core record, which still has the since-removed shard column.
bench-loadgen:
	$(GO) run ./cmd/piano-loadgen -grid -json BENCH_loadgen.json

# Framing overhead on clean transport: the framed decision-latency path vs
# the plain Feed path — the delta must stay under 2% (BENCH_loss.json /
# PERFORMANCE.md "PR 10").
bench-loss:
	$(GO) test -run '^$$' -bench 'BenchmarkOnline(Framed)?/decision-latency' -benchmem -count=3 -benchtime 20x .

# The acoustic renderer: per-tap (RenderNaive oracle) vs composite-kernel
# mixing, interleaved A/B at several tap counts (BENCH_render.json /
# PERFORMANCE.md).
bench-render:
	$(GO) test -run '^$$' -bench 'BenchmarkRenderMix|BenchmarkRender$$|BenchmarkRenderNaive' -benchmem -count=3 -benchtime 20x ./internal/world/

# Documentation gate: vet + the stdlib-only lint in tools/docscheck
# (package comments everywhere, doc.go + exported-comment rules for library
# packages, README/ARCHITECTURE presence, and the dead-export rule: every
# exported identifier of an internal/ package needs a non-test user).
# CI runs this on every push.
docs-check:
	$(GO) vet ./...
	$(GO) run ./tools/docscheck

cover:
	$(GO) test -cover ./...

clean:
	$(GO) clean ./...
