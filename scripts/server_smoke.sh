#!/usr/bin/env bash
# Overload smoke test for the serving stack: odbgcd (built with -race) is
# driven by an odbgload chaos burst at several times its admission capacity,
# /metrics must show load shedding, and a SIGINT mid-load must drain the
# server cleanly — exit 0, drain summary printed, manifest flushed.
#
# Usage: scripts/server_smoke.sh [workdir]   (defaults to a fresh mktemp -d)
set -euo pipefail

cd "$(dirname "$0")/.."
work=${1:-$(mktemp -d)}
mkdir -p "$work"
echo "server-smoke: working under $work"

go build -race -o "$work/odbgcd" ./cmd/odbgcd
go build -race -o "$work/odbgload" ./cmd/odbgload
# Built now, not `go run` mid-load: a link on a box the flood keeps busy
# takes seconds, and between the first collection and the drain the shed
# spans must not have pushed the lone GC span out of the 512-span retained
# ring (at ~300 sheds a second that is under two seconds).
go build -o "$work/obsdump" ./cmd/obsdump

addr=127.0.0.1:9471
http=127.0.0.1:9472

# A deliberately small server: queue of 4 with 5ms service time caps
# admission near 200 req/s, so an 800 req/s burst is ~4x capacity.
"$work/odbgcd" -addr "$addr" -http "$http" \
  -policy saga -frac 0.10 -initial-interval 20 -estimator fgs-hb -fallback-estimator cgs-cb \
  -queue-depth 4 -service-delay 5ms -max-sessions 32 \
  -page-size 1024 -pages-per-partition 4 -buffer-pages 8 \
  -data-dir "$work/data" -fsync group \
  -manifest "$work/run.manifest.json" -events "$work/events.jsonl" \
  -traces "$work/traces.jsonl" -trace-buffer 512 \
  >"$work/daemon.out" 2>&1 &
daemon=$!

for _ in $(seq 1 100); do
  curl -fsS "http://$http/healthz" >/dev/null 2>&1 && break
  if ! kill -0 "$daemon" 2>/dev/null; then
    echo "server-smoke: daemon died on startup" >&2
    cat "$work/daemon.out" >&2
    exit 1
  fi
  sleep 0.2
done
curl -fsS "http://$http/healthz"
echo "server-smoke: daemon healthy on $addr"

"$work/odbgload" -addr "$addr" -rate 800 -duration 10s -workers 8 \
  -net-profile net-chaos -seed 7 >"$work/load.json" 2>"$work/load.err" &
load=$!

# Mid-burst: the server must be shedding, with sessions active.
sleep 2
curl -fsS "http://$http/metrics" -o "$work/metrics.txt"
grep -m 20 '^odbgc_server_' "$work/metrics.txt"
grep -Eq '^odbgc_server_shed_total [1-9]' "$work/metrics.txt"
grep -Eq '^odbgc_server_sessions_active [1-9]' "$work/metrics.txt"
grep -Eq '^odbgc_server_requests_total [1-9]' "$work/metrics.txt"
echo "server-smoke: shedding confirmed under 4x overload"

# The per-stage latency histograms are exposed, with span-ID exemplars.
grep -q '^odbgc_server_stage_queue_wait_ms_bucket' "$work/metrics.txt"
grep -q '^odbgc_server_stage_service_ms_bucket' "$work/metrics.txt"
grep -q 'span_id="' "$work/metrics.txt"
echo "server-smoke: per-stage histograms and exemplars on /metrics"

# Scrape the flight recorder live, mid-overload: retained spans must
# include shed requests with stage timings, and the dump must hold up
# under the span checker (dangling parents are expected mid-load).
curl -fsS "http://$http/debug/traces" -o "$work/traces_live.jsonl"
test -s "$work/traces_live.jsonl"
grep -q '"outcome":"shed"' "$work/traces_live.jsonl"
grep -q '"stages"' "$work/traces_live.jsonl"
"$work/obsdump" -check "$work/traces_live.jsonl"
echo "server-smoke: live /debug/traces scrape holds shed spans"

# Wait for the first online collection before draining, so the trace
# dump is guaranteed to carry a GC pause span. The first collection
# lands a few hundred admitted requests in; the load runs long enough
# that this resolves well before the burst ends.
for _ in $(seq 1 35); do
  curl -fsS "http://$http/metrics" -o "$work/metrics_gc.txt" || true
  grep -Eq '^odbgc_gc_collections_total [1-9]' "$work/metrics_gc.txt" && break
  sleep 0.2
done
grep -Eq '^odbgc_gc_collections_total [1-9]' "$work/metrics_gc.txt" || {
  echo "server-smoke: no online collection before the drain point" >&2
  exit 1
}

# SIGINT mid-load: stage-1 drain. The daemon must exit 0 on its own (a
# data race would fail the -race build with a nonzero exit).
kill -INT "$daemon"
if ! wait "$daemon"; then
  echo "server-smoke: daemon exited nonzero after SIGINT" >&2
  cat "$work/daemon.out" >&2
  exit 1
fi
grep -q '^drained:' "$work/daemon.out"
echo "server-smoke: daemon drained cleanly mid-load"

wait "$load" || {
  echo "server-smoke: load generator failed" >&2
  cat "$work/load.err" >&2
  exit 1
}

# The manifest, event log, and trace dump were flushed on the drain path.
test -s "$work/run.manifest.json"
test -s "$work/events.jsonl"
"$work/obsdump" -check "$work/events.jsonl"
grep -q '"summary_sha256"' "$work/run.manifest.json" || grep -q '"sha256"' "$work/run.manifest.json"
test -s "$work/traces.jsonl"
grep -q '"outcome":"shed"' "$work/traces.jsonl"
"$work/obsdump" -check "$work/traces.jsonl"
if ! "$work/obsdump" -check "$work/traces.jsonl" | grep -q ' 0 dangling parents'; then
  echo "server-smoke: post-drain trace dump has dangling GC parents" >&2
  exit 1
fi
grep -q '"kind":"gc"' "$work/traces.jsonl" || {
  echo "server-smoke: no GC pause spans in the trace dump" >&2
  exit 1
}
grep -Eq '"parent":[1-9][0-9]*,"kind":"gc"' "$work/traces.jsonl" || {
  echo "server-smoke: GC spans present but none attributed to a request" >&2
  exit 1
}
echo "server-smoke: GC pause spans attributed to overlapping requests"
echo "server-smoke: drain-path trace dump validates (obsdump -check)"

# Restart phase: the drained daemon checkpointed its durable store; a
# fresh boot on the same data dir must recover the surviving objects and
# replay nothing (the final checkpoint made the WAL empty).
grep -q '^durable:' "$work/daemon.out"
"$work/odbgcd" -data-dir "$work/data" -recover >"$work/recover.out"
grep -Eq '^recovered [1-9][0-9]* objects' "$work/recover.out"
grep -q ' 0 batches / 0 records replayed' "$work/recover.out"
echo "server-smoke: post-drain restart recovers the heap replay-free"

echo "server-smoke: load report:"
cat "$work/load.json"
echo "server-smoke: daemon summary:"
cat "$work/daemon.out"
