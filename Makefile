# Developer entry points. CI (.github/workflows/ci.yml) runs the go
# commands of build, test and race (race over the full tree) itself and
# calls `make vet`, `make fuzz-smoke` and benchmark/run.sh from here; crash
# and replication are the local fast loops over subsets of CI's race job.

GO ?= go

.PHONY: all build test vet race crash replication fuzz-smoke bench check

all: check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Formatting and stock go vet — one target, so "it vets" always means
# both. The gofmt step lists every file it rejects before failing.
vet:
	@unformatted="$$(gofmt -l .)"; echo "$$unformatted"; test -z "$$unformatted"
	$(GO) vet ./...

# The concurrency suites under the race detector (the mixed read/write
# stress tests in internal/core, internal/engine, and the public shard
# layer only mean something with -race on). CI runs the full tree; this
# is the fast local loop.
race:
	$(GO) test -race ./internal/core/ ./internal/engine/ ./internal/server/ ./internal/wal/ ./internal/recovery/ ./internal/tuner/
	$(GO) test -race -run 'TestShardedMixedStress|TestBuildBesideShardedAdds|TestManualRetune|TestAutoTune' .

# The durability stack: WAL torn-tail/bit-flip sweeps, chained-checkpoint
# recovery, the crash-injection harness, the MANIFEST layout and version
# gate, and the replication watermark — all under -race.
crash:
	$(GO) test -race ./internal/wal/ ./internal/recovery/
	$(GO) test -race -run 'Durable|CrashInjection|Sharded|Manifest|Watermark' .

# The replication suite under the race detector: wire-codec corruption
# sweeps, live follower mirroring (incl. stream cuts at swept byte
# offsets and a local-WAL truncation sweep at EVERY offset), rotation
# lockstep, retune-triggered resyncs, the hedged router, and the
# two-process SIGKILL crash/resume harness — each ending in a Save-byte
# equality check against the primary.
replication:
	$(GO) test -race ./internal/replica/

# A bounded run of every fuzz target; regressions in the corpus fail fast.
FUZZTIME ?= 20s
fuzz-smoke:
	$(GO) test ./internal/set/ -run '^$$' -fuzz FuzzIntersection -fuzztime $(FUZZTIME)
	$(GO) test ./internal/storage/ -run '^$$' -fuzz FuzzSetEncoding -fuzztime $(FUZZTIME)
	$(GO) test ./internal/filter/ -run '^$$' -fuzz FuzzGatherKey -fuzztime $(FUZZTIME)
	$(GO) test ./internal/hashtable/ -run '^$$' -fuzz FuzzTableOps -fuzztime $(FUZZTIME)
	$(GO) test ./internal/core/ -run '^$$' -fuzz FuzzSortMatches -fuzztime $(FUZZTIME)
	$(GO) test ./internal/core/ -run '^$$' -fuzz FuzzQueryRange -fuzztime $(FUZZTIME)
	$(GO) test ./internal/core/ -run '^$$' -fuzz FuzzBuildRoundTrip -fuzztime $(FUZZTIME)
	$(GO) test ./internal/wal/ -run '^$$' -fuzz FuzzReplay -fuzztime $(FUZZTIME)
	$(GO) test ./internal/replica/ -run '^$$' -fuzz FuzzWireDecode -fuzztime $(FUZZTIME)
	$(GO) test . -run '^$$' -fuzz FuzzLoad -fuzztime $(FUZZTIME)
	$(GO) test . -run '^$$' -fuzz FuzzBuildRoundTrip -fuzztime $(FUZZTIME)

# The repository's one benchmark (BENCHMARK.json; benchmark/README.md has
# the workloads and metric tables): every workload once at seed 1.
bench:
	$(GO) run ./benchmark -seed 1

check: build vet test
