# Standard gates for the repo. `make check` is what CI (and a careful
# human) should run before merging: static analysis, a full build, the
# race-enabled test suite, and a short fuzz smoke over the two fuzz
# targets that guard config parsing and the fluid server loop.

GO ?= go
GOFMT ?= gofmt
FUZZTIME ?= 10s
BENCHTIME ?= 1s
BENCHCOUNT ?= 3

.PHONY: all vet build test fuzz-smoke serve-smoke crash-smoke repl-smoke check bench bench-ab benchcheck perfcheck deltacheck shardcheck clustercheck clean

all: check

# The nested bench module (bench/gpsdbench) compiles against the root
# module's server, wal and replication packages; the root ./... never
# reaches it, so vet it — which builds it and its tests — explicitly.
# Every Go file outside the benchmark's build directory must be
# gofmt-clean.
vet:
	@unformatted=$$(find . -path ./.bench_build -prune -o -name '*.go' -print | xargs $(GOFMT) -l); \
	if [ -n "$$unformatted" ]; then echo "gofmt -l lists:"; echo "$$unformatted"; exit 1; fi
	$(GO) vet -tests ./...
	$(GO) -C bench vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test -race ./...

# Each fuzz target runs for $(FUZZTIME); go requires one package per
# -fuzz invocation.
fuzz-smoke:
	$(GO) test -fuzz FuzzStep -fuzztime $(FUZZTIME) -run '^$$' ./internal/fluid
	$(GO) test -fuzz FuzzNew -fuzztime $(FUZZTIME) -run '^$$' ./internal/netsim
	$(GO) test -fuzz FuzzAdmitDecode -fuzztime $(FUZZTIME) -run '^$$' ./internal/server
	$(GO) test -fuzz FuzzWALDecode -fuzztime $(FUZZTIME) -run '^$$' ./internal/wal
	$(GO) test -fuzz FuzzShipFrameDecode -fuzztime $(FUZZTIME) -run '^$$' ./internal/replication
	$(GO) test -fuzz FuzzDeltaAnalyzer -fuzztime $(FUZZTIME) -run '^$$' ./internal/gpsmath

# serve-smoke boots a real gpsd on an ephemeral port, runs a short
# gpsdload churn burst against it, and asserts zero 5xx before draining
# the daemon with SIGTERM (see scripts/serve_smoke.sh).
serve-smoke:
	GO="$(GO)" sh scripts/serve_smoke.sh

# crash-smoke SIGKILLs a WAL-backed gpsd mid-churn (once externally,
# once at an armed torn-append crashpoint), recovers, and requires the
# restarted daemon to match a fresh offline analysis of the log bit for
# bit; interior log corruption must be refused, not truncated
# (see scripts/crash_smoke.sh).
crash-smoke:
	GO="$(GO)" sh scripts/crash_smoke.sh

# repl-smoke boots a primary and a warm standby (-follow), churns the
# primary, SIGKILLs it, promotes the standby, and requires the promoted
# daemon to match a fresh offline analysis of the mirrored log bit for
# bit; the Merkle audit trail must prove a shipped decision's inclusion
# and reject a CRC-repaired byte flip (see scripts/repl_smoke.sh).
repl-smoke:
	GO="$(GO)" sh scripts/repl_smoke.sh

# clustercheck boots the paper's §6.3 tree as three WAL-backed hop
# daemons plus a gpsd -topology coordinator and proves the cluster
# acceptance claims: coordinator bounds bit-identical to offline CRST
# analysis, fail-closed rollback when a hop dies mid-prepare (armed
# cluster.prepare crashpoint), TTL expiry of the in-doubt prepare on
# recovery, per-stripe audit proofs, a SIGKILLed coordinator restarting
# from its route journal (-coord-wal-dir) bit-identical to walcheck's
# offline fold, and orphan reclamation of a lost commit ack (see
# scripts/cluster_smoke.sh).
clustercheck:
	GO="$(GO)" sh scripts/cluster_smoke.sh

check: vet build test fuzz-smoke serve-smoke crash-smoke repl-smoke perfcheck deltacheck shardcheck clustercheck benchcheck

# bench runs the full benchmark harness with memory stats and snapshots
# the parsed results to BENCH_<UTC datetime>.json (format documented in
# EXPERIMENTS.md; the timestamp makes lexicographic order chronological
# so repeated runs on one day never overwrite an earlier snapshot).
# Each benchmark is sampled $(BENCHCOUNT) times and benchjson keeps the
# fastest sample — background load only inflates ns/op, so min-of-N is
# the noise floor that keeps snapshots comparable on a shared machine.
# Non-benchmark output passes through to the terminal. The full suite
# outlasts go test's default 10-minute timeout on a 2-CPU host, hence
# the explicit one.
BENCHSTAMP := $(shell date -u +%Y-%m-%dT%H%M%SZ)
bench:
	$(GO) test -run '^$$' -bench . -benchmem -benchtime $(BENCHTIME) -count $(BENCHCOUNT) -timeout 60m . \
		| $(GO) run ./tools/benchjson > BENCH_$(BENCHSTAMP).json
	@echo "wrote BENCH_$(BENCHSTAMP).json"

# bench-ab writes a same-host snapshot pair for `make benchcheck`: the
# suite (or the benchmarks matching BENCH) at revision BASE and at the
# working tree, run alternately N times, keeping each side's fastest
# sample, base snapshot first (see scripts/bench_ab.sh).
#
#   make bench-ab BASE=HEAD~1 [N=5] [BENCH='EpochBatch|EpochDelta']
N ?= 5
BENCH ?= .
bench-ab:
	GO="$(GO)" BASE="$(BASE)" N="$(N)" BENCH="$(BENCH)" BENCHTIME="$(BENCHTIME)" sh scripts/bench_ab.sh

# benchcheck compares the two newest committed snapshots and fails on a
# >15% ns/op regression of the named hot-path benchmarks. Snapshot-to-
# snapshot, so CI stays deterministic: run `make bench` locally, commit
# the new snapshot, and the gate validates it.
benchcheck:
	$(GO) run ./tools/benchcmp

# deltacheck is the incremental-analysis differential gate, uncached
# and race-enabled: the gpsmath DeltaAnalyzer must stay bit-identical
# to fresh AnalyzeServer under seeded churn and seeded batches
# (FuzzDeltaAnalyzer's seed corpus included), the Lemma 6 floor's
# pruned best-of-routes min must stay bit-identical to the unpruned
# oracle (and keep firing at gpsd's populations), and the daemon's
# refresh-built epochs — one refresh per batch, whatever its size —
# must match the direct (ClassifyUnderRate / AdmissionDecision)
# recomputations, with a refused publish visible. Superseded epochs are
# recycled only once no reader pins them: pinned and escaped epochs must
# never change while the writer refills their successors' arrays, and a
# steady publish allocates no per-session array. Both paths settle the
# decomposed rates with one exact Σr <= r test: a 25,000-session daemon
# must keep publishing and boot from its own WAL, and the feasibility
# matrix holds the rates to a math/big sum over 315 gpsd-shaped
# populations. The matrix runs on one goroutine, so it runs without
# -race, which finds nothing there and multiplies its ~12 s eightfold.
deltacheck:
	GOFLAGS=-count=1 $(GO) test -race -run 'TestDeltaAnalyzer|TestDeltaChurnLong|TestDeltaBatch|TestDeltaEpoch|TestTypeFold|TestPerOpDelta|TestSelfCheck|TestIndexBatches|TestFailedPublish|FuzzDeltaAnalyzer|TestFloor|TestLemma6Floor|TestBoundsFor|TestEpochReclaim|TestRestartBootsOversumPopulation|TestLivePublishOversumPopulation' ./internal/gpsmath ./internal/server
	GOFLAGS=-count=1 $(GO) test -run 'TestFeasibilityMatrix|TestExcessMatchesExactSum' ./internal/gpsmath

# shardcheck is the sharded-writer differential gate, uncached and
# race-enabled: the capacity ledger's budget invariant, concurrent
# churn against the sharded facade (every published epoch
# self-consistent, ledger within budget), the striped WAL lifecycle,
# striped replication, the shard key contract, and the SetRate
# bit-identity the ledger refill path leans on, and epoch reclamation
# on every shard writer under pinned readers.
shardcheck:
	GOFLAGS=-count=1 $(GO) test -race ./internal/ledger
	GOFLAGS=-count=1 $(GO) test -race -run 'TestSharded|TestStriped|TestReadStripes|TestShardOf|TestDeltaSetRate' ./internal/server ./internal/wal ./internal/replication ./internal/gpsmath

# perfcheck is the fast correctness gate for the event-driven fluid
# engine: the differential tests replay random workloads against the
# brute-force reference under the race detector, uncached.
perfcheck:
	GOFLAGS=-count=1 $(GO) test -run TestDifferential -race ./internal/fluid/...

clean:
	$(GO) clean ./...
