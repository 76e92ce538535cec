#!/usr/bin/env sh
# End-to-end smoke of cmd/sbgt-serve: boot the server on an ephemeral
# port, drive 25 cohorts to classification over HTTP with curl and jq (then
# reconcile every classification against the cohort's fixed truth and the
# server's test count against the results the script sent), walk the API
# once with curl, scrape the metrics endpoint, run
# the hunt (impossible SLO -> anomaly ID in the log -> its dump on
# /debug/flight names the layers, by self time, the window's time went
# to -> sbgt-top prints the same split and the slowest request's tree),
# then SIGTERM the process and require a clean drain: exit status 0 and
# the still-open cohort checkpointed to a pair of slot files, one of which
# loads. Finally boot a second
# server on the same checkpoint directory and require it to serve that
# cohort's open proposal byte for byte, then drain cleanly too.
#
# Set SMOKE_OUT to a directory to keep the captured artifacts (logs, the
# drive's per-cohort summary, metrics, span window, flight dump, sbgt-top
# frame) after the run — CI
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
go build -o "$dir/sbgt" ./cmd/sbgt

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

echo '== drive (25 cohorts to classification, one stage of each open cohort a pass, reconciled) =='
# Cohort k belongs to tenant t(k mod 4), answers under the ideal
# (noiseless) response, and its infected subjects are the set bits of
# (k mod 8) << (k mod 4): zero to three of its six. Every cohort is
# created before any is driven, so under 4 resident slots most requests
# restore their cohort from its checkpoint and evict another.
cohorts=25
mkdir "$dir/drive"
k=0
while [ "$k" -lt "$cohorts" ]; do
  c="$dir/drive/$k"
  mkdir "$c"
  mask=$(( (k % 8) << (k % 4) ))
  truth=
  s=0
  while [ "$s" -lt 6 ]; do
    [ $(( (mask >> s) & 1 )) -eq 0 ] || truth="$truth${truth:+,}$s"
    s=$((s + 1))
  done
  echo "[$truth]" >"$c/truth"
  echo 0 >"$c/sent"
  curl -sSf -X POST "$base/v1/cohorts" \
    -d "{\"tenant\":\"t$((k % 4))\",\"risks\":[0.08,0.08,0.08,0.08,0.08,0.08],\"response\":{\"kind\":\"ideal\"}}" \
    | jq -er .id >"$c/id"
  k=$((k + 1))
done
pass=0
open=$cohorts
while [ "$open" -gt 0 ]; do
  pass=$((pass + 1))
  [ "$pass" -le 50 ] || { echo "$open cohorts still open after 50 passes"; exit 1; }
  open=0
  for c in "$dir"/drive/*; do
    if [ -e "$c/done" ]; then continue; fi
    id=$(cat "$c/id")
    curl -sSf "$base/v1/cohorts/$id/pools" >"$c/pools.json"
    if jq -e .done "$c/pools.json" >/dev/null; then
      touch "$c/done"
      continue
    fi
    jq --argjson inf "$(cat "$c/truth")" \
      '{results: [.pools[] | {stage, index, positive: any(.subjects[]; . as $s | any($inf[]; . == $s))}]}' \
      "$c/pools.json" >"$c/results.json"
    echo $(( $(cat "$c/sent") + $(jq '.results | length' "$c/results.json") )) >"$c/sent"
    curl -sSf -X POST "$base/v1/cohorts/$id/results" -d @"$c/results.json" >/dev/null
    open=$((open + 1))
  done
done
# Reconcile: every cohort done, the server's test count equal to the
# results sent (none lost, none absorbed twice), every call equal to truth.
for c in "$dir"/drive/*; do
  id=$(cat "$c/id")
  curl -sSf "$base/v1/cohorts/$id" >"$c/status.json"
  jq -c --argjson sent "$(cat "$c/sent")" --argjson inf "$(cat "$c/truth")" \
    '{id, tenant, done, tests, sent: $sent, truth: $inf, calls: [.classifications[] | .status]}' \
    "$c/status.json" >>"$dir/drive.txt"
  jq -e --argjson sent "$(cat "$c/sent")" --argjson inf "$(cat "$c/truth")" \
    '.done and .tests == $sent and (.classifications | length) == 6
     and all(.classifications[]; .status == (if (.subject as $s | any($inf[]; . == $s)) then "positive" else "negative" end))' \
    "$c/status.json" >/dev/null || { echo "cohort $id does not reconcile (sent $(cat "$c/sent"), truth $(cat "$c/truth")):"; cat "$c/status.json"; exit 1; }
done
echo "drive: $cohorts cohorts reconciled after $pass passes"

echo '== curl walk (create a cohort, leave its proposal open) =='
id=$(curl -sSf -X POST "$base/v1/cohorts" \
  -d '{"tenant":"smoke","risks":[0.02,0.02,0.1,0.02]}' \
  | sed -n 's/.*"id":"\([^"]*\)".*/\1/p')
[ -n "$id" ] || { echo 'create returned no id'; exit 1; }
curl -sSf "$base/v1/cohorts/$id/pools" >"$dir/pools.json"
grep -q '"pools"' "$dir/pools.json"
curl -sSf "$base/v1/cohorts/$id" | grep -q '"tenant":"smoke"'

echo '== observability =='
curl -sSf "$base/readyz" | grep -q ok
curl -sSf "$base/metrics" >"$dir/metrics.txt"
for series in sbgt_serve_requests_total sbgt_serve_request_seconds sbgt_serve_cohorts_resident; do
  grep -q "^$series" "$dir/metrics.txt" || { echo "missing metric $series"; exit 1; }
done

echo '== span window (http spans with trace IDs and tenants after the drive) =='
curl -sSf "$base/spans" >"$dir/spans.json"
jq -e '[.spans[] | select(.name == "http" and (.trace_id // 0) != 0 and any(.attrs[]?; .key == "tenant"))] | length > 0' \
  "$dir/spans.json" >/dev/null || { echo 'no http span with a trace_id and a tenant attr on /spans'; exit 1; }

echo '== the hunt (SLO breach -> anomaly ID -> the dump names its layers) =='
# The evaluator's first window opens when the server starts, so the
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
# The open cohort's checkpoint is a pair of slot files, $id.ckpt.0 and
# $id.ckpt.1; one of them must load (sbgt -resume reads the pair and runs
# the campaign on, writing nothing).
"$dir/sbgt" -resume "$dir/ckpt/$id.ckpt" -n 4 -quiet >"$dir/resume.txt" 2>&1 \
  && grep -q "^resumed from $dir/ckpt/$id.ckpt: stage " "$dir/resume.txt" \
  || { echo "no slot of open cohort $id's checkpoint pair loads"; cat "$dir/resume.txt"; ls "$dir/ckpt" || true; exit 1; }

echo '== restart on the same checkpoint directory (the open proposal survives) =='
rm -f "$dir/addr.txt"
"$dir/sbgt-serve" -addr 127.0.0.1:0 -addr-file "$dir/addr.txt" -ckpt-dir "$dir/ckpt" \
  >"$dir/restart.log" 2>&1 &
pid=$!
i=0
while [ ! -s "$dir/addr.txt" ]; do
  i=$((i + 1))
  [ "$i" -le 100 ] || { echo 'restarted server never wrote its address'; cat "$dir/restart.log"; exit 1; }
  kill -0 "$pid" 2>/dev/null || { echo 'restarted server died on startup'; cat "$dir/restart.log"; exit 1; }
  sleep 0.1
done
base="http://$(cat "$dir/addr.txt")"
curl -sSf "$base/v1/cohorts/$id/pools" >"$dir/pools_restarted.json"
cmp -s "$dir/pools.json" "$dir/pools_restarted.json" || {
  echo "restarted server serves a different proposal for $id:"
  cat "$dir/pools.json" "$dir/pools_restarted.json"
  exit 1
}
kill -TERM "$pid"
wait "$pid" || { echo 'restarted server exited non-zero'; cat "$dir/restart.log"; exit 1; }
pid=

echo 'serve smoke passed.'
