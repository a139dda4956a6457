GO ?= go

.PHONY: build test vet lint race bench bench-ml bench-nearestlink bench-smoke fuzz-smoke bench-serve verify verify-chaos verify-telemetry verify-serve verify-resume verify-repro verify-obs ci clean

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# vet is the stock static-analysis pass; its stricter analyzers that matter
# here (-copylocks, -loopclosure) are on by default in go vet.
vet:
	$(GO) vet ./...

# lint runs patchdb's custom analyzer suite (see internal/analysis and
# cmd/patchdb-lint): determinism (no wall clocks / global rand — direct or
# transitive via call-graph facts — and no ordered map iteration in the
# deterministic build packages), ctxloop (worker loops honor ctx
# cancellation), errcanon (errors.Is + %w for canonical errors),
# telemetrysafe (nil-guarded *telemetry.Hub field access), atomicwrite
# (artifact files written via internal/atomicio, never direct os writes),
# logcanon (structured logging in server/pipeline packages), lockdiscipline
# (no mutex copies, Lock pairs with Unlock on all paths, no lock held across
# a blocking channel op), goroleak (goroutines tie their exit to a
# context/WaitGroup/channel), and closeleak (files, response bodies, and
# snapshot handles closed on every path). Packages are analyzed concurrently
# and results cached under .lintcache/ — a warm run re-checks nothing (use
# -no-cache or `rm -rf .lintcache` to force). Suppress an intentional
# finding with `//lint:ignore <check> <reason>`.
lint:
	$(GO) run ./cmd/patchdb-lint ./...

# Race instrumentation slows the model-training tests ~10x, so the tier
# needs more than go test's default 10m package timeout.
race:
	$(GO) test -race -timeout 45m ./...

bench:
	$(GO) test -run XXX -bench 'BenchmarkExtractStage|BenchmarkBuild' -benchtime 3x .

# bench-ml times the two model kernels behind the paper-table reproduction:
# one SMO fit on a full 800-row working set and one RNN fit (with ns/step),
# each with allocations per fit. Informational only; nothing gates on it.
bench-ml:
	$(GO) test -run XXX -bench 'BenchmarkSMOFit|BenchmarkRNNFit' -benchtime 3x -benchmem ./internal/ml/linear/ ./internal/ml/neural/

# bench-nearestlink sweeps the nearest-link engine up to 2k seeds x 200k
# wild commits and writes BENCH_nearestlink.json (ns/op, distance evals,
# pruned fraction, rescans, reference speedup) — the perf trajectory for the
# hottest kernel in the repo.
bench-nearestlink:
	$(GO) run ./cmd/patchdb-bench -only NEARESTLINK

# bench-smoke is the CI-gate form of the engine sweep: one tiny shape
# (50 seeds x 2000 wild commits, 60 dims) across worker counts, every link of
# every run compared bit-for-bit against the reference implementation plus a
# brute-force spot-check of all seeds. Seconds of wall-clock, no artifact
# write — it gates correctness, not throughput.
bench-smoke:
	$(GO) run ./cmd/patchdb-bench -only NEARESTLINK -smoke

# fuzz-smoke runs every Fuzz* target (patch, C token and AST parsers, the
# dataset loader, the checkpoint manifest loader, the /v1/patches query path)
# for 3s each, one `go test -fuzz` run per target — short enough to gate
# every merge, long enough to catch a decoder that panics on malformed input.
fuzz-smoke:
	GO=$(GO) sh scripts/fuzz-smoke.sh

# bench-serve drives the patchdb-serve query API over real loopback HTTP at
# 1/4/16 store shards, cold vs. warm snapshot, and writes BENCH_serve.json
# (p50/p99 latency, QPS) — the perf trajectory for the serving layer.
bench-serve:
	$(GO) run ./cmd/patchdb-bench -only SERVE

# verify-chaos runs the fault-injection suite under the race detector: the
# injected fault classes, the retry/breaker machinery, and the end-to-end
# chaos tests of the crawler and builder.
verify-chaos:
	$(GO) test -race -count=1 ./internal/faults/ ./internal/retry/
	$(GO) test -race -count=1 -run 'Chaos|Fault|PatchTooLarge|Serve' ./internal/nvd/ .

# verify-telemetry runs the observability suites under the race detector:
# the metrics registry / tracer / exporters and the stage-metrics adapter.
verify-telemetry:
	$(GO) test -race -count=1 ./internal/telemetry/ ./internal/pipeline/

# verify-serve runs the serving-layer suite under the race detector: the
# snapshot-swap isolation test (readers during reload see old-or-new, never
# a mix), shard invariance, cursor pagination, and the HTTP handlers.
verify-serve:
	$(GO) test -race -count=1 ./internal/store/ ./internal/experiments/servebench/

# verify-resume runs the crash-safety suite under the race detector: the
# checkpoint journal and atomic-write primitives, the crawled-patch
# round-trip, and the kill-and-resume chaos harness (every stage boundary x
# worker counts 1/2/8, both fault placements, cross-worker resume — resumed
# output must be bit-identical to an uninterrupted build).
verify-resume:
	$(GO) test -race -count=1 ./internal/atomicio/ ./internal/checkpoint/ ./internal/experiments/resumebench/

# verify-repro runs the worker-invariance tests under the race detector:
# Tables III, IV and VI, whose independent model fits run concurrently, must
# render byte-identically at GOMAXPROCS 1 and 4, and a build with
# oversampling, whose extraction, search and synthesis run on the worker
# pool, must produce the same dataset at 1, 3 and GOMAXPROCS workers.
verify-repro:
	$(GO) test -race -count=1 -run TestReproductionWorkerInvariant ./internal/experiments/
	$(GO) test -race -count=1 -run TestBuildDeterministicAcrossWorkers .

# verify-obs runs the observability-correlation suite under the race
# detector: structured-logging determinism, SLO burn-rate verdicts (window
# edges, zero traffic, worker invariance), exposition goldens with
# exemplars, Chrome trace export, and the end-to-end request-ID correlation
# test (one slow request -> header + log + span + exemplar, one trace ID).
verify-obs:
	$(GO) test -race -count=1 -run 'Log|SLO|Exemplar|Exposition|OpenMetrics|Prom|RequestID|Correlation|ChromeTrace|Debug|Healthz|Slow' ./internal/telemetry/ ./internal/store/

# verify is the full pre-merge tier: verify = vet + lint + chaos +
# telemetry + obs + serve + resume + race — stock and custom static
# analysis, the fault-injection, telemetry, observability-correlation,
# serving, and crash-safety suites, and the race-enabled test suite (which
# subsumes the plain test run).
verify: vet lint verify-chaos verify-telemetry verify-obs verify-serve verify-resume race

# ci is the fast merge gate mirrored by .github/workflows/ci.yml and
# scripts/ci.sh: build, both static-analysis tiers, the plain test run, the
# race-enabled observability-correlation, crash-safety and reproduction
# worker-invariance suites, the fully-verified engine smoke sweep, and the
# fuzz smoke run.
ci: build vet lint test verify-obs verify-resume verify-repro bench-smoke fuzz-smoke

clean:
	$(GO) clean ./...
