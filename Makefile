# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: all build loc loc-check test test-short test-race race vet lint lint-fix-report fuzz bench-e2e profile experiments results-check examples server-smoke crash-drill clean

all: build vet lint test

build:
	$(GO) build ./...

# Non-test Go lines per package directory and in total: the unit ROADMAP
# states the repository's size and its "smaller repo" exit criteria in.
# Analyzer fixtures under testdata/ are test input, not program. The benchmark
# harness under bench/ is its own module and measures the program without
# being part of it: its lines are printed apart and are not in the total.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*' ! -path './.bench_build/*' -print0 \
		| xargs -0 wc -l \
		| awk '$$2 != "total" { d = $$2; sub(/\/[^\/]*$$/, "", d); if (d ~ /^\.\/bench(\/|$$)/) b += $$1; else { n[d] += $$1; t += $$1 } } \
			END { for (d in n) printf "%7d %s\n", n[d], d | "sort -k2"; close("sort -k2"); \
				printf "%7d ./bench (the benchmark harness: its own module, not in the total)\n%7d total\n", b, t }'

# The total above against the ceiling committed in lint/loc_ceiling. A change
# that grows the program past it raises the number in the same diff, where a
# reviewer sees it; one that shrinks the program lowers it to the new total.
loc-check:
	@total=$$($(MAKE) -s loc | awk 'END { print $$1 }'); ceiling=$$(cat lint/loc_ceiling); \
	if [ "$$total" -gt "$$ceiling" ]; then \
		echo "loc-check: $$total non-test lines, over the ceiling of $$ceiling in lint/loc_ceiling"; exit 1; \
	fi; \
	echo "loc-check: $$total non-test lines, ceiling $$ceiling"

vet:
	$(GO) vet ./...

# Repository invariants, nine analyzers: determinism (direct and through the
# call graph), panic-free libraries, snapshot completeness, context
# threading, error discipline, cancelable goroutines, no defer in a loop
# (loopdefer), and lock discipline (lockcheck) — see README "Code invariants"
# and internal/analysis. Allocations on the benchmarked paths are held by the
# testing.AllocsPerRun pins beside each layer, which `make test` runs.
# `go run ./cmd/odbglint -only lockcheck ./...` reruns one of them.
lint:
	$(GO) vet ./...
	$(GO) run ./cmd/odbglint ./...

# Every open finding as a file:line path, one per line, for editors and
# scripted triage. Exits zero even with findings; `make lint` is the gate.
lint-fix-report:
	@$(GO) run ./cmd/odbglint ./... | sed 's/: .*//' | sort -u || true

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

test-race:
	$(GO) test -race ./...

# Quicker race pass over just the concurrent packages: the label intern
# table, the batch runner, the serving stack, the live observers and the
# durable store. The crash-point sweep under -race (disk/crashtest) is
# crash-drill's.
race:
	$(GO) test -race ./internal/trace/ ./internal/sim/ ./internal/server/ ./internal/obs/... ./internal/storage/disk/

# Short fuzz passes over the trace decoder, the WAL scanner, the image
# loader, the state digest's stream (decoded back to the state it hashes),
# the typed frame codec (differentially against encoding/json), the
# buffer pool (differentially against the container/list + map pool it
# replaced) and the JSONL event log (what it reads re-emits to a fixed point).
fuzz:
	$(GO) test -fuzz FuzzReader -fuzztime 15s ./internal/trace/
	$(GO) test -fuzz FuzzRoundTrip -fuzztime 15s ./internal/trace/
	$(GO) test -fuzz FuzzScanWAL -fuzztime 15s ./internal/storage/disk/
	$(GO) test -fuzz FuzzLoadImage -fuzztime 15s ./internal/storage/disk/
	$(GO) test -fuzz FuzzDigestStream -fuzztime 15s ./internal/storage/disk/
	$(GO) test -fuzz FuzzFrameCodec -fuzztime 15s ./internal/server/
	$(GO) test -fuzz FuzzBufferPool -fuzztime 15s ./internal/storage/
	$(GO) test -fuzz FuzzEventLog -fuzztime 15s ./internal/obs/

# Measuring has one path. A performance claim is made on the repository
# benchmark (bench-e2e below: alternated parent/change pairs, spreads, counts
# that must repeat exactly); where the time goes is read from a profile of a
# layer benchmark (profile below; they live in internal/*/bench_test.go, the
# root package's reproduce the paper's tables and figures at reduced scale);
# allocation counts are pinned by testing.AllocsPerRun beside each layer. CI
# runs every benchmark in the module once, so none can stop building or
# running unnoticed.

# The repository benchmark (BENCHMARK.json, bench/README.md) on WORKLOADS (by
# default the two replay workloads): one untraced run (end-to-end metrics) and
# one traced run (per-layer metrics and the counts that must repeat exactly)
# of each into E2E_OUT, then -compare against the same runs saved from the
# parent commit:
#   in a checkout of the parent:  make bench-e2e E2E_OUT=/tmp/parent.jsonl
#   in the change:                make bench-e2e PARENT=/tmp/parent.jsonl
# A change to the durable backend passes WORKLOADS="restart serve-durable" on
# both sides, a change to the serving path (wire, session, admission, engine)
# WORKLOADS="serve-mem serve-durable", a change to object memory (objstore's
# slabs and free lists) WORKLOADS="replay-oo7 replay-gcheavy serve-mem restart".
# A claim needs ten alternated pairs (bench/README.md); this is the quick look.
E2E_OUT ?= bench/out/e2e.jsonl
PARENT ?=
WORKLOADS ?= replay-oo7 replay-gcheavy
bench-e2e:
	rm -f $(E2E_OUT)
	for w in $(WORKLOADS); do for t in 0 1; do \
		bash bench/run.sh --workload $$w --seed 1 --seconds 15 --trace $$t --out $(E2E_OUT) || exit 1; \
	done; done
ifneq ($(PARENT),)
	bash bench/run.sh -compare $(PARENT) $(E2E_OUT)
endif

# CPU profile of one layer benchmark, hottest frames by cumulative time on
# stdout. The default is replay-gcheavy's repetition in process, so the
# profile is that workload's (BENCH=ReplaySAIO10 is replay-oo7's); the test
# binary and the profile stay outside the checkout:
#   make profile PKG=./internal/sim BENCH=ReplayFixed50
#   make profile PKG=./internal/storage BENCH='BufferPoolPin/deep' BENCHTIME=2000000x
PKG ?= ./internal/sim
BENCH ?= ReplayFixed50
BENCHTIME ?= 5s
PROFILE_DIR ?= /tmp/odbgc-profile
profile:
	mkdir -p $(PROFILE_DIR)
	$(GO) test -run '^$$' -bench '$(BENCH)' -benchtime $(BENCHTIME) -o $(PROFILE_DIR)/bench.test -cpuprofile $(PROFILE_DIR)/cpu.prof $(PKG)
	$(GO) tool pprof -top -cum -nodecount 60 $(PROFILE_DIR)/bench.test $(PROFILE_DIR)/cpu.prof

# Full paper regeneration: every table and figure, 10 seeded runs per data
# point, CSV series under results/.
experiments:
	$(GO) run ./cmd/experiments -csvdir results

# The committed results/ come from the current code: regenerate every table,
# figure, ablation and extension study at full scale into a scratch directory
# (about 15 s) and demand the same files, byte for byte. A change that means to
# move a figure reruns `make experiments` and commits the CSVs it moved.
results-check:
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; mkdir "$$tmp/csv"; \
	$(GO) run ./cmd/experiments -csvdir "$$tmp/csv" >"$$tmp/out" || { cat "$$tmp/out"; exit 1; }; \
	ls results | grep '\.csv$$' >"$$tmp/committed"; ls "$$tmp/csv" >"$$tmp/generated"; \
	diff "$$tmp/committed" "$$tmp/generated" || { echo "results-check: results/ (<) and a fresh run (>) do not hold the same files"; exit 1; }; \
	for f in $$(cat "$$tmp/committed"); do cmp "results/$$f" "$$tmp/csv/$$f"; done; \
	echo "results-check: the $$(wc -l <"$$tmp/committed" | tr -d ' ') CSVs under results/ are byte-identical to a fresh run"

# Overload smoke: odbgcd (built -race) under a 4x chaos burst from
# odbgload must shed on /metrics and drain cleanly on SIGINT mid-load
# (see README "Serving mode").
server-smoke:
	./scripts/server_smoke.sh

# Durability drill: the deterministic crash-point sweep under -race, then a
# live SIGKILL of odbgcd mid-overload with offline recovery verification,
# restart on the same data dir, /metrics recovery counters, and a clean
# drain (see README "Durability & crash recovery").
crash-drill:
	./scripts/crash_drill.sh

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/custompolicy
	$(GO) run ./examples/connectivity
	$(GO) run ./examples/opportunistic
	$(GO) run ./examples/customworkload
	$(GO) run ./examples/phasemonitor

# What building, benchmarking and profiling leave behind (.gitignore names the
# same paths). results/ is committed and stays.
clean:
	rm -rf .bench_build bench/out bench/bench $(PROFILE_DIR)
