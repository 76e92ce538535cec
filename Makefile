GO ?= go

.PHONY: build test lint vet race fuzz examples ci serve-smoke

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
# (executor wire, HTTP API) invariants.
fuzz:
	$(GO) test ./internal/prob -run FuzzLogSumExp -fuzz FuzzLogSumExp -fuzztime 10s
	$(GO) test ./internal/bitvec -run FuzzBitVecRoundTrip -fuzz FuzzBitVecRoundTrip -fuzztime 10s
	$(GO) test ./internal/obs -run FuzzTraceContextRoundTrip -fuzz FuzzTraceContextRoundTrip -fuzztime 10s
	$(GO) test ./internal/analysis -run xxx -fuzz FuzzAllowParser -fuzztime 10s
	$(GO) test ./internal/core -run xxx -fuzz FuzzSessionCheckpointLoad -fuzztime 10s
	$(GO) test ./internal/cluster -run xxx -fuzz FuzzExecutorDispatch -fuzztime 10s
	$(GO) test ./internal/serve -run xxx -fuzz FuzzServerAPI -fuzztime 10s

# Run every example program to completion (a few seconds in all): `go
# build ./...` compiles them, only this executes them.
examples:
	@for d in examples/*/; do echo "== $$d"; $(GO) run ./$$d >/dev/null || exit 1; done

# End-to-end smoke of the surveillance service: boot sbgt-serve, drive
# cohorts to classification over HTTP, scrape /metrics, SIGTERM-drain,
# and require a clean exit with the open cohort checkpointed.
serve-smoke:
	./scripts/serve_smoke.sh

# The full gate, identical to .github/workflows/ci.yml.
ci:
	./scripts/ci.sh
