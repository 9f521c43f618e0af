#!/usr/bin/env bash
# Crash drill for the durable storage backend, in two acts:
#
#  1. Deterministic crash-point sweep (unit level, under -race): kill the
#     store at every journaled filesystem operation — and every torn
#     variant of every WAL write — and prove recovery loses no committed
#     batch, resurrects no reclaimed object, and is byte-deterministic.
#  2. Live SIGKILL drill: odbgcd (built -race) with -data-dir is killed
#     with SIGKILL mid-overload; offline recovery (-recover) must be
#     deterministic and nonempty; the daemon restarts on the same data
#     dir, exposes recovery counters on /metrics, serves fresh load
#     error-free, and drains cleanly with a final checkpoint.
#
# Usage: scripts/crash_drill.sh [workdir]   (defaults to a fresh mktemp -d)
set -euo pipefail

cd "$(dirname "$0")/.."
work=${1:-$(mktemp -d)}
mkdir -p "$work"
echo "crash-drill: working under $work"

echo "crash-drill: act 1 — deterministic crash-point sweep under -race"
go test -race -count=1 -v -run 'TestCrashPointSweep|TestRecordIsDeterministic' \
  ./internal/storage/disk/crashtest/ | grep -E 'swept|--- (PASS|FAIL)|^(ok|FAIL)'

go build -race -o "$work/odbgcd" ./cmd/odbgcd
go build -race -o "$work/odbgload" ./cmd/odbgload

addr=127.0.0.1:9481
http=127.0.0.1:9482
data="$work/data"
daemon=

start_daemon() {
  "$work/odbgcd" -addr "$addr" -http "$http" \
    -data-dir "$data" -fsync group -checkpoint-every 256 \
    -policy saga -frac 0.10 -initial-interval 20 \
    -queue-depth 64 -max-sessions 32 \
    >"$1" 2>&1 &
  daemon=$!
  for _ in $(seq 1 100); do
    curl -fsS "http://$http/healthz" >/dev/null 2>&1 && break
    if ! kill -0 "$daemon" 2>/dev/null; then
      echo "crash-drill: daemon died on startup" >&2
      cat "$1" >&2
      exit 1
    fi
    sleep 0.2
  done
}

echo "crash-drill: act 2 — SIGKILL mid-load, recover offline, restart"
start_daemon "$work/daemon1.out"
"$work/odbgload" -addr "$addr" -rate 600 -duration 10s -workers 8 -seed 7 \
  >"$work/load1.json" 2>"$work/load1.err" &
load=$!
sleep 3
kill -9 "$daemon"
wait "$daemon" 2>/dev/null || true
# The generator sees connection resets after the kill; that is the point.
wait "$load" 2>/dev/null || true
echo "crash-drill: daemon SIGKILLed mid-load"

# Offline recovery: deterministic (two runs, identical digest) and
# nonempty (the load generator committed real objects before the kill).
"$work/odbgcd" -data-dir "$data" -recover >"$work/recover1.out"
"$work/odbgcd" -data-dir "$data" -recover >"$work/recover2.out"
grep '^recovered ' "$work/recover1.out"
grep '^state digest:' "$work/recover1.out"
cmp <(grep '^state digest:' "$work/recover1.out") \
    <(grep '^state digest:' "$work/recover2.out")
grep -Eq '^recovered [1-9][0-9]* objects' "$work/recover1.out"
echo "crash-drill: offline recovery deterministic and nonempty"

start_daemon "$work/daemon2.out"
grep -Eq '^recovered [1-9][0-9]* objects' "$work/daemon2.out"
curl -fsS "http://$http/metrics" -o "$work/metrics.txt"
grep -Eq '^odbgc_server_recovery_objects [1-9]' "$work/metrics.txt"
grep -q '^odbgc_server_recovery_open_ms ' "$work/metrics.txt"
grep -q '^odbgc_server_recovery_rebuild_ms ' "$work/metrics.txt"
grep -q '^odbgc_server_recovery_records_replayed ' "$work/metrics.txt"
grep -q '^odbgc_server_recovery_batches_replayed ' "$work/metrics.txt"
echo "crash-drill: restart recovered the kill site; counters on /metrics"

# The restarted server must serve real load on the recovered heap.
"$work/odbgload" -addr "$addr" -rate 300 -duration 3s -workers 4 -seed 9 \
  >"$work/load2.json" 2>"$work/load2.err"
grep -q '"errors": 0' "$work/load2.json"
echo "crash-drill: post-recovery load served error-free"

kill -INT "$daemon"
if ! wait "$daemon"; then
  echo "crash-drill: daemon exited nonzero after SIGINT" >&2
  cat "$work/daemon2.out" >&2
  exit 1
fi
grep -q '^drained:' "$work/daemon2.out"
grep -q '^durable:' "$work/daemon2.out"
echo "crash-drill: restarted daemon drained cleanly with a final checkpoint"

echo "crash-drill: daemon summary:"
cat "$work/daemon2.out"
