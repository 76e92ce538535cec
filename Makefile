GO ?= go

.PHONY: build test lint vet race fuzz bench-smoke examples ci serve-smoke

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# Formatting, then repo-invariant static analysis (six analyzers;
# `sbgt-lint -list` describes them). gofmt -l must print nothing. -audit
# also fails on stale //lint:allow waivers. Exits non-zero on any
# diagnostic.
lint:
	@test -z "$$(gofmt -l .)" || { echo "gofmt -l . lists:"; gofmt -l .; exit 1; }
	$(GO) run ./cmd/sbgt-lint -audit ./...

# Race-detector pass over the packages that own goroutines, plus the
# backend conformance suite (which drives the cluster backend end to end
# over loopback TCP) and the serve layer (concurrent requests record into
# one tracer and hand their span to the session). Short mode keeps the
# statistical loops out.
race:
	$(GO) test -race -short ./internal/engine ./internal/lattice ./internal/cluster ./internal/posterior ./internal/core ./internal/obs ./internal/serve

# Short fuzz smoke over the numeric-kernel, lint-input and trust-boundary
# (checkpoint header and tail, executor dispatch and wire frame, HTTP API)
# invariants.
fuzz:
	$(GO) test ./internal/prob -run FuzzLogSumExp -fuzz FuzzLogSumExp -fuzztime 10s
	$(GO) test ./internal/bitvec -run FuzzBitVecRoundTrip -fuzz FuzzBitVecRoundTrip -fuzztime 10s
	$(GO) test ./internal/obs -run FuzzTraceContextRoundTrip -fuzz FuzzTraceContextRoundTrip -fuzztime 10s
	$(GO) test ./internal/analysis -run xxx -fuzz FuzzAllowParser -fuzztime 10s
	$(GO) test ./internal/core -run xxx -fuzz FuzzSessionCheckpointLoad -fuzztime 10s
	$(GO) test ./internal/core -run xxx -fuzz FuzzCheckpointTail -fuzztime 10s
	$(GO) test ./internal/core -run xxx -fuzz FuzzCheckpointHeader -fuzztime 10s
	$(GO) test ./internal/cluster -run xxx -fuzz FuzzExecutorDispatch -fuzztime 10s
	$(GO) test ./internal/cluster -run xxx -fuzz FuzzFrame -fuzztime 10s
	$(GO) test ./internal/serve -run xxx -fuzz FuzzServerAPI -fuzztime 10s

# One iteration of the stage-kernel, kernel-ablation, conditioning,
# collapse copy-width, serial-crossover, cluster-conditioning, cluster-round,
# look-ahead, span-record, dense-open and checkpoint benchmarks, so they
# cannot rot. The wave-gather arms run
# again at -cpu 1,2: one worker takes every wave inline, two fan the long
# ones out.
bench-smoke:
	$(GO) test ./internal/lattice -run '^$$' -bench 'BenchmarkStageKernels|BenchmarkNegMassesTiling|BenchmarkFusion|BenchmarkConditionInPlace|BenchmarkCollapseCopyWidth' -benchtime 1x
	$(GO) test ./internal/lattice -run '^$$' -bench 'BenchmarkStageKernels/gather_' -benchtime 1x -cpu 1,2
	$(GO) test ./internal/engine -run '^$$' -bench BenchmarkSerialCrossover -benchtime 1x -cpu 1,2
	$(GO) test ./internal/cluster -run '^$$' -bench 'BenchmarkClusterCondition|BenchmarkClusterRound' -benchtime 1x -benchmem
	$(GO) test ./internal/halving -run '^$$' -bench BenchmarkLookahead -benchtime 1x
	$(GO) test ./internal/obs -run '^$$' -bench 'BenchmarkSpan|BenchmarkRegistryLookup' -benchtime 1x -benchmem
	$(GO) test ./internal/posterior -run '^$$' -bench 'BenchmarkInstrumentedCondition|BenchmarkOpenDense' -benchtime 1x -benchmem
	$(GO) test ./internal/core -run '^$$' -bench BenchmarkCheckpoint -benchtime 1x -benchmem

# Run every example program to completion (a few seconds in all): `go
# build ./...` compiles them, only this executes them.
examples:
	@for d in examples/*/; do echo "== $$d"; $(GO) run ./$$d >/dev/null || exit 1; done

# End-to-end smoke of the surveillance service: boot sbgt-serve, drive
# cohorts to classification over HTTP, scrape /metrics, SIGTERM-drain,
# and require a clean exit with the open cohort checkpointed.
serve-smoke:
	./scripts/serve_smoke.sh

# The full gate, the same steps as .github/workflows/ci.yml. race, fuzz
# and bench-smoke above are the one copy of their lists; both call them.
ci:
	./scripts/ci.sh
