GO ?= go

.PHONY: all build vet test test-pooldebug perfbench-test race bench-smoke bench-gemm bench-secular bench-steady bench-batch bench-values bench-audit chaos chaos-sdc stress stress-cluster ci clean

all: build

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# The scratch pool's ownership-map build: foreign or double Put panics at
# the violation site instead of being clamp-and-counted.
test-pooldebug:
	$(GO) test -tags pooldebug ./internal/pool/

# The benchmark harness is a nested module (replace tridiag => ../), so the
# root `go test ./...` never reaches its tests.
perfbench-test:
	cd perfbench && $(GO) test ./...

race:
	$(GO) test -race ./...

# A short benchmark pass that exercises the scheduler and the hot kernels
# without running the full experiment suite.
bench-smoke:
	$(GO) test -run '^$$' -bench 'SolveDCTaskFlow2000|SortEigen|Steqr400' -benchtime 1x .
	$(GO) test -run '^$$' -bench . -benchtime 1x ./internal/quark/

# The GEMM kernel benchmarks: the square reference shape, the compressed
# UpdateVect shapes, and the per-merge packed-operand reuse pattern. The
# square shape and the packed panels run once per micro-kernel the host
# supports (avx512, avx2, generic).
bench-gemm:
	$(GO) test -run '^$$' -bench 'Gemm|Dgemm256' -benchtime 1x .

# The secular-phase kernel benchmarks: the SIMD dispatch micro-kernels plus
# the scalar-vs-SIMD Dlaed4/LocalW/ComputeVect comparison of dcbench secular.
bench-secular:
	$(GO) test -run '^$$' -bench 'SecularSums|ShiftedSumRatios|RatioSumSq' -benchtime 10x ./internal/simd/
	$(GO) run ./cmd/dcbench -quick secular

# Steady-state regression detector: N in-process solves per worker count
# with a reused workspace (the pattern that once degraded 2.5×), medians of
# the last half vs the first quarter plus GC stats, written to
# BENCH_taskflow.json.
bench-steady:
	$(GO) run ./cmd/dcbench perf -steady 12 -json

# Batched small-solve throughput: a sequential Solve loop vs one SolveBatch
# DAG vs a coalescing server flood over the same matrices, with every batch
# member validated against the residual/orthogonality bars. Merged into
# BENCH_taskflow.json under the "batch" key. The batch/server speedups scale
# with core count (a single-core CI box only shows the runtime-amortization
# fraction of the win).
bench-batch:
	$(GO) run ./cmd/dcbench batch -quick -json

# Eigenvalue-only fast lane vs the full task-flow solve: wall-time medians
# and peak pooled workspace per (n, workers), merged into BENCH_taskflow.json
# under "values_only"; the batch suite rerun through the lane lands under
# "batch_values_only". The workspace ratio is the headline — carrier rows
# replace the O(n²) eigenvector state.
bench-values:
	$(GO) run ./cmd/dcbench perf -values-only -quick -json
	$(GO) run ./cmd/dcbench batch -values-only -quick -json

# Silent-error defense overhead: the shipping default (ABFT + result audit)
# vs the audit-disabled and fully bare builds on the n=2000 task-flow point,
# medians of paired per-rep ratios, merged into BENCH_taskflow.json under
# "audit". The acceptance bar is audit overhead ≤ 5% at every worker count.
bench-audit:
	$(GO) run ./cmd/dcbench audit -json

# Fault-injection suite: panic/error/delay probes in every task class across
# randomized solves, repeated under the race detector; the tests themselves
# assert zero goroutine leaks and that every fault ends in a verified result
# (fallback on) or a clean root-cause error (fallback off).
chaos:
	$(GO) test -race -count=3 -run 'Chaos' ./eigen/
	$(GO) test -race -count=3 ./internal/faultinject/
	$(GO) test -race -count=3 -run 'Cancelled|Cancellation|Deadline|TaskFailure' ./internal/quark/

# Silent-data-corruption gate: randomized bit flips injected into packed GEMM
# operands, merge outputs, and served results across every lane (direct solve,
# values-only, batch, server) under the race detector. Asserts every injected
# corruption is either detected-and-healed or surfaces as a classified error —
# zero silent wrong-answer escapes — plus the ABFT checksum/invariant unit
# tests and the pathological no-false-positive audit suite.
chaos-sdc:
	$(GO) test -race -count=1 -timeout 10m -run 'TestChaosSDCGate|TestAuditPathologicalNoFalsePositives|TestAuditResultDetectsCorruption' ./eigen/
	$(GO) test -race -count=1 -run 'TestPackAChecked|TestVerifyCatches' ./internal/blas/
	$(GO) test -race -count=1 -run 'TestCheckInterlacing|TestCheckTrace|TestDlaed4Interlacing' ./internal/lapack/
	$(GO) test -race -count=1 -run 'TestTridiagResidual|TestDotPairAbs|TestSum' ./internal/simd/
	$(GO) test -race -count=1 -run 'TestSpectrumChecksum|TestCoordinatorChecksumMismatchFailsOver' ./eigen/cluster/

# Serving-layer acceptance gate: 64 concurrent mixed-size solves against a
# memory-budgeted eigen.Server under wildcard chaos probes and the race
# detector, plus the watchdog/cancellation goroutine-leak regression tests.
# Asserts every job ends in a classified disposition, reservations never
# exceed the budget, the pool accountant returns to baseline, and no
# goroutines leak.
stress:
	$(GO) test -race -count=1 -timeout 5m -run 'TestServerStress|LeaksNoGoroutines' ./eigen/

# Cluster-tier acceptance gate: the partition chaos suite under the race
# detector — 3 httptest workers behind a real coordinator serving 220 mixed
# jobs while one worker is partitioned away mid-load and revived, plus the
# all-workers-down degraded-local test. Asserts zero lost jobs, the full
# breaker open/half-open/close cycle, and no goroutine leaks.
stress-cluster:
	$(GO) test -race -count=1 -timeout 5m -run 'TestCluster' ./eigen/cluster/

ci: vet build test test-pooldebug perfbench-test race bench-smoke bench-gemm bench-secular bench-steady bench-batch bench-values bench-audit chaos chaos-sdc stress stress-cluster
