#!/usr/bin/env sh
# Full CI gate: build, gofmt, vet, repo-invariant lint, tests, the example
# programs, race tests, fuzz smoke, serve smoke.
# Mirrors .github/workflows/ci.yml so the same gate runs locally via
# `make ci`. Fails on the first broken step.
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

echo '== sbgt-lint (waiver audit) =='
go run ./cmd/sbgt-lint -audit ./...

echo '== go test =='
go test ./...

echo '== examples (every program under examples/ runs to exit 0) =='
make -s examples

echo '== stage-kernel, kernel-ablation, serial-crossover, cluster-conditioning and span-record benchmarks (one iteration each, so they cannot rot) =='
go test ./internal/lattice -run '^$' -bench 'BenchmarkStageKernels|BenchmarkNegMassCrossover|BenchmarkNegMassesTiling|BenchmarkFusion' -benchtime 1x
go test ./internal/engine -run '^$' -bench BenchmarkSerialCrossover -benchtime 1x -cpu 1,2
go test ./internal/cluster -run '^$' -bench BenchmarkClusterCondition -benchtime 1x
go test ./internal/obs -run '^$' -bench BenchmarkSpan -benchtime 1x

echo '== go test -race (concurrency substrate + backend conformance + obs + serve) =='
go test -race -short ./internal/engine ./internal/lattice ./internal/cluster ./internal/posterior ./internal/core ./internal/obs ./internal/serve

echo '== fuzz smoke (10s each) =='
go test ./internal/prob -run FuzzLogSumExp -fuzz FuzzLogSumExp -fuzztime 10s
go test ./internal/bitvec -run FuzzBitVecRoundTrip -fuzz FuzzBitVecRoundTrip -fuzztime 10s
go test ./internal/obs -run FuzzTraceContextRoundTrip -fuzz FuzzTraceContextRoundTrip -fuzztime 10s
go test ./internal/analysis -run xxx -fuzz FuzzAllowParser -fuzztime 10s
go test ./internal/core -run xxx -fuzz FuzzSessionCheckpointLoad -fuzztime 10s
go test ./internal/cluster -run xxx -fuzz FuzzExecutorDispatch -fuzztime 10s
go test ./internal/serve -run xxx -fuzz FuzzServerAPI -fuzztime 10s

echo '== serve smoke (boot sbgt-serve, drive over HTTP, drain on SIGTERM) =='
./scripts/serve_smoke.sh

echo 'CI gate passed.'
