GO ?= go

.PHONY: build test lint vet race fuzz ci bench-baseline bench-check serve-smoke

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# Repo-invariant static analysis (nine analyzers; `sbgt-lint -list`
# describes them). -audit also fails on stale //lint:allow waivers, and
# the second pass fails on stale entries in lint-baseline.json. Exits
# non-zero on any fresh diagnostic.
lint:
	$(GO) run ./cmd/sbgt-lint -audit ./...
	$(GO) run ./cmd/sbgt-lint -baseline-check ./...

# Race-detector pass over the packages that own goroutines, plus the
# backend conformance suite (which drives the cluster backend end to end
# over loopback TCP). Short mode keeps the statistical loops out.
race:
	$(GO) test -race -short ./internal/engine ./internal/cluster ./internal/bench ./internal/posterior ./internal/core ./internal/obs ./internal/obs/profiler

# Short fuzz smoke over the numeric-kernel and lint-input invariants.
fuzz:
	$(GO) test ./internal/prob -run FuzzLogSumExp -fuzz FuzzLogSumExp -fuzztime 10s
	$(GO) test ./internal/bitvec -run FuzzBitVecRoundTrip -fuzz FuzzBitVecRoundTrip -fuzztime 10s
	$(GO) test ./internal/analysis -run xxx -fuzz FuzzAllowParser -fuzztime 10s
	$(GO) test ./internal/analysis -run xxx -fuzz FuzzBaselineReader -fuzztime 10s
	$(GO) test ./internal/core -run xxx -fuzz FuzzSessionCheckpointLoad -fuzztime 10s

# Perf-regression harness (the BENCH trajectory). BENCH_EXPS picks the
# experiments, BENCH_RATIO the slowdown bound sbgt-benchdiff applies,
# BENCH_FILE the committed baseline being tracked (BENCH_4.json is the
# current head of the trajectory, adding the S1P continuous-profiler
# overhead experiment; BENCH_3.json and earlier are the points it is
# diffed against in EXPERIMENTS.md).
BENCH_EXPS ?= T1,F6,S1,S1R,S1P
BENCH_RATIO ?= 1.5
BENCH_FILE ?= BENCH_4.json

# Record the committed baseline: run the bench experiments quick and
# write $(BENCH_FILE) (wall times + registry snapshot + git SHA).
bench-baseline:
	$(GO) run ./cmd/sbgt-bench -exp $(BENCH_EXPS) -quick -baseline $(BENCH_FILE)

# Compare a fresh run against the committed baseline; exits non-zero on
# regression beyond the thresholds.
bench-check:
	$(GO) run ./cmd/sbgt-bench -exp $(BENCH_EXPS) -quick -baseline BENCH_new.json >/dev/null
	$(GO) run ./cmd/sbgt-benchdiff -ratio $(BENCH_RATIO) $(BENCH_FILE) BENCH_new.json

# End-to-end smoke of the surveillance service: boot sbgt-serve, drive
# cohorts to classification over HTTP, scrape /metrics, SIGTERM-drain,
# and require a clean exit with the open cohort checkpointed.
serve-smoke:
	./scripts/serve_smoke.sh

# The full gate, identical to .github/workflows/ci.yml.
ci:
	./scripts/ci.sh
