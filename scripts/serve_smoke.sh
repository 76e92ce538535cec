#!/usr/bin/env sh
# End-to-end smoke of cmd/sbgt-serve: boot the server on an ephemeral
# port, drive a small cohort population to classification over HTTP with
# the built-in load client (which reconciles every classification against
# drawn truth and the server's test counters against the client's sent
# count), walk the API once with curl, scrape the metrics endpoint, run
# the hunt (impossible SLO -> anomaly ID in the log -> its dump on
# /debug/flight names the layers, by self time, the window's time went
# to -> sbgt-top prints the same split and the slowest request's tree),
# then SIGTERM the process and require a clean drain: exit status 0 and
# the still-open cohort checkpointed to disk.
#
# Set SMOKE_OUT to a directory to keep the captured artifacts (logs,
# metrics, span window, flight dump, sbgt-top frame) after the run — CI
# uploads them.
set -eu

cd "$(dirname "$0")/.."

dir=$(mktemp -d)
pid=
finish() {
  status=$?
  [ -n "$pid" ] && kill "$pid" 2>/dev/null
  if [ -n "${SMOKE_OUT:-}" ]; then
    mkdir -p "$SMOKE_OUT"
    cp "$dir"/*.log "$dir"/*.json "$dir"/*.txt "$SMOKE_OUT"/ 2>/dev/null || true
  fi
  rm -rf "$dir"
  exit $status
}
trap finish EXIT INT TERM

echo '== build =='
go build -o "$dir/sbgt-serve" ./cmd/sbgt-serve

echo '== start (impossible p99 objective to induce one anomaly; 4 resident slots, so the drive churns checkpoints) =='
"$dir/sbgt-serve" -addr 127.0.0.1:0 -addr-file "$dir/addr.txt" -ckpt-dir "$dir/ckpt" \
  -slo-p99 1ns -slo-interval 1s -max-resident 4 \
  >"$dir/serve.log" 2>&1 &
pid=$!
i=0
while [ ! -s "$dir/addr.txt" ]; do
  i=$((i + 1))
  [ "$i" -le 100 ] || { echo 'server never wrote its address'; cat "$dir/serve.log"; exit 1; }
  kill -0 "$pid" 2>/dev/null || { echo 'server died on startup'; cat "$dir/serve.log"; exit 1; }
  sleep 0.1
done
base="http://$(cat "$dir/addr.txt")"
echo "listening at $base"

echo '== load drive (25 cohorts to classification, reconciled) =='
"$dir/sbgt-serve" -loadtest -target "$base" -cohorts 25 -subjects 6 -load-workers 8 \
  | tee "$dir/load.json"
grep -q '"misclassified": 0' "$dir/load.json"

echo '== curl walk (create a cohort, leave its proposal open) =='
id=$(curl -sSf -X POST "$base/v1/cohorts" \
  -d '{"tenant":"smoke","risks":[0.02,0.02,0.1,0.02]}' \
  | sed -n 's/.*"id":"\([^"]*\)".*/\1/p')
[ -n "$id" ] || { echo 'create returned no id'; exit 1; }
curl -sSf "$base/v1/cohorts/$id/pools" | grep -q '"pools"'
curl -sSf "$base/v1/cohorts/$id" | grep -q '"tenant":"smoke"'

echo '== observability =='
curl -sSf "$base/readyz" | grep -q ok
curl -sSf "$base/metrics" >"$dir/metrics.txt"
for series in sbgt_serve_requests_total sbgt_serve_request_seconds sbgt_serve_cohorts_resident; do
  grep -q "^$series" "$dir/metrics.txt" || { echo "missing metric $series"; exit 1; }
done

echo '== span window (http spans with trace IDs and tenants after the load drive) =='
curl -sSf "$base/spans" >"$dir/spans.json"
jq -e '[.spans[] | select(.name == "http" and (.trace_id // 0) != 0 and any(.attrs[]?; .key == "tenant"))] | length > 0' \
  "$dir/spans.json" >/dev/null || { echo 'no http span with a trace_id and a tenant attr on /spans'; exit 1; }

echo '== the hunt (SLO breach -> anomaly ID -> the dump names its layers) =='
# The evaluator's first window opens when the server starts, so the load
# drive above breaches the impossible p99 objective at the next tick: the
# flight recorder freezes the tail of the span ring and logs its ID. Wait
# for that line, then resolve the ID on /debug/flight to a dump whose
# window is totalled as self time per span name.
i=0
anom_id=
while [ -z "$anom_id" ]; do
  i=$((i + 1))
  [ "$i" -le 150 ] || { echo 'no anomaly dump was logged'; cat "$dir/serve.log"; exit 1; }
  anom_id=$(sed -n 's/.*anomaly auto-dump captured.* anomaly=\([a-z0-9]*\).*/\1/p' "$dir/serve.log" | head -n 1)
  [ -n "$anom_id" ] || sleep 0.2
done
echo "anomaly $anom_id"
grep -q "anomaly=$anom_id .*layers=\"[a-z_]*=" "$dir/serve.log" || { echo 'dump log line does not name its layers'; cat "$dir/serve.log"; exit 1; }
curl -sSf "$base/debug/flight" >"$dir/flight.json"
jq -e --arg id "$anom_id" \
  '.anomalies[] | select(.id == $id) | (.layers | length > 0) and (.layers | map(.name) | index("http") != null)' \
  "$dir/flight.json" >/dev/null || { echo "anomaly $anom_id has no dump with a layer split in /debug/flight"; exit 1; }
jq -r --arg id "$anom_id" '.anomalies[] | select(.id == $id) | .layers[] | "\(.name) n=\(.count) total_ns=\(.total_ns) max_ns=\(.max_ns)"' "$dir/flight.json"

echo '== sbgt-top (one frame against the live server) =='
go run ./cmd/sbgt-top -target "$base" -once >"$dir/top.txt"
grep -q 'requests' "$dir/top.txt" || { echo 'sbgt-top rendered nothing'; cat "$dir/top.txt"; exit 1; }
grep -q 'flight:' "$dir/top.txt" || { echo 'sbgt-top missing flight section'; cat "$dir/top.txt"; exit 1; }
grep -q '^  layer http ' "$dir/top.txt" || { echo 'sbgt-top missing the anomaly layer split'; cat "$dir/top.txt"; exit 1; }
grep -q '^slowest request: trace=' "$dir/top.txt" || { echo 'sbgt-top missing the slowest request tree'; cat "$dir/top.txt"; exit 1; }

echo '== drain on SIGTERM =='
kill -TERM "$pid"
wait "$pid" || { echo 'server exited non-zero'; cat "$dir/serve.log"; exit 1; }
pid=
grep -q 'drain complete' "$dir/serve.log"
[ -f "$dir/ckpt/$id.ckpt" ] || { echo "no checkpoint for open cohort $id"; ls "$dir/ckpt" || true; exit 1; }

echo 'serve smoke passed.'
