#!/usr/bin/env sh
# Full CI gate: build, gofmt, vet, a big-endian cross-compile,
# repo-invariant lint, tests, the example programs, race tests, fuzz smoke,
# serve smoke.
# Mirrors .github/workflows/ci.yml so the same gate runs locally via
# `make ci`; the benchmark, race and fuzz lists live once, in the Makefile.
# Fails on the first broken step.
set -eu

cd "$(dirname "$0")/.."

echo '== go build =='
go build ./...

echo '== gofmt =='
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "gofmt -l . lists:" >&2
	echo "$unformatted" >&2
	exit 1
fi

echo '== go vet =='
go vet ./...

echo '== big-endian cross-compile (make big-endian: GOARCH=s390x) =='
make -s big-endian

echo '== sbgt-lint (waiver audit) =='
go run ./cmd/sbgt-lint -audit ./...

echo '== go test =='
go test ./...

echo '== examples (every program under examples/ runs to exit 0) =='
make -s examples

echo '== one-iteration benchmarks (make bench-smoke) =='
make -s bench-smoke

echo '== go test -race (make race: concurrency substrate + backend conformance + obs + serve) =='
make -s race

echo '== fuzz smoke (make fuzz: 10s each) =='
make -s fuzz

echo '== serve smoke (boot sbgt-serve, drive over HTTP, drain on SIGTERM) =='
./scripts/serve_smoke.sh

echo 'CI gate passed.'
