GO ?= go

.PHONY: all build test vet lint race chaos verify bench

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# The invariant checkers alone (internal/analysis, DESIGN.md §10): one
# module-wide annotation index, compiler escape ground truth for
# allocprove and the //rbpc:allow staleness audit. `make test` runs the
# same test.
lint:
	$(GO) test -count=1 -run '^TestModuleClean$$' ./internal/analysis/

race:
	$(GO) test -race ./internal/graph/... ./internal/spath/... ./internal/eval/... \
		./internal/engine/... ./internal/rbpc/... ./internal/mpls/... \
		./internal/shard/... ./internal/shardrpc/... ./internal/probe/...
	$(GO) test -race -count=20 -run 'TestBurstsAreAtomic' ./internal/engine/ ./internal/shard/ ./internal/shardrpc/

# The long fault-injection conformance suite (DESIGN.md §11): seeded chaos
# schedules against the online engine under -race, with the theorem oracles
# armed. Plain `go test ./internal/chaos` runs the bounded smoke variant.
chaos:
	$(GO) test -race -tags chaos -count=1 ./internal/chaos/

# The full pre-commit gate: gofmt + git-grep gates + build + vet + tests
# (the invariant checkers included) + race detector + chaos.
verify:
	sh scripts/verify.sh

# Layer micro-benchmarks: the SSSP kernel (ns/edge, allocs/op), an epoch
# tree with 1-3 links down derived from the pristine tree against computed
# from scratch (<= 2 allocs asserted on the derived arm), one source's
# 63-destination fan-out solved by per-pair Dijkstras, by one batched
# Dijkstra and by the writer's pull (core.Pull), the snapshot
# read path (Snapshot.Route over the nil overlay, an overlay hit and miss,
# and the hybrid local rows for an affected and an unaffected pair; 0
# allocs asserted), a query worker's
# cost per answer of a submitted burst, a local-scheme transition with
# three links down, a phase-two transition of the writer in the benchmark
# of record's shape (three-link episodes, plan cache of three: ns and
# allocs per plan-cache miss and per hit), building an engine (every
# source and half of them) and a snapshot decoder over the benchmark of
# record's provision (ns, B and allocs: the canonical table is most of
# it), and the sharded read
# path: a query's whole cost through the in-process coordinator at 2 and at
# 8 shards (every shard scans the shared burst; 0 allocs asserted), the
# frame checksum in GB/s, and building a base set's
# indexes (the benchmark of record's set, and a subpath closure whose pairs
# hold several paths; B and allocs per set), and provisioning the benchmark
# of record's whole deployment (rbpc.NewSystem: ns, B and allocs). CI runs
# them once each (BENCHTIME=1x) so they cannot rot.
BENCHTIME ?= 1s
bench:
	$(GO) test -run '^$$' -bench 'BenchmarkSSSPKernel|BenchmarkOracleTree' -benchmem -benchtime $(BENCHTIME) ./internal/spath/
	$(GO) test -run '^$$' -bench BenchmarkSparseFanout -benchmem -benchtime $(BENCHTIME) ./internal/core/
	$(GO) test -run '^$$' -bench 'BenchmarkSnapshotRoute|BenchmarkServeBatch|BenchmarkLocalPlanBuild|BenchmarkEpochBuild|BenchmarkEngineNew|BenchmarkSnapDecoder' -benchmem -benchtime $(BENCHTIME) ./internal/engine/
	$(GO) test -run '^$$' -bench BenchmarkSubmitBatch -benchmem -benchtime $(BENCHTIME) ./internal/shard/
	$(GO) test -run '^$$' -bench BenchmarkFrameChecksum -benchmem -benchtime $(BENCHTIME) ./internal/shardrpc/
	$(GO) test -run '^$$' -bench BenchmarkExplicitBuild -benchmem -benchtime $(BENCHTIME) ./internal/paths/
	$(GO) test -run '^$$' -bench BenchmarkNewSystem -benchmem -benchtime $(BENCHTIME) ./internal/rbpc/
