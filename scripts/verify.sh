#!/bin/sh
# verify.sh — the full local gate: formatting, build, vet, tests (the
# invariant checkers of internal/analysis run inside `go test ./...` as
# TestModuleClean; the frozen bench/ module is tested too — it is its own
# module, so root `go test ./...` does not reach it and an API break
# would otherwise show only when the benchmark pipeline runs), and the
# race detector over the packages with real concurrency (the SSSP solver
# pool, the CSR lazy build, the oracle's CLOCK cache, the eval fan-outs,
# the online engine: epoch snapshots under churn, COW network clones and
# the sharded metrics; and the shard coordinator, the socket transport
# and the prober).
#
# Usage: scripts/verify.sh   (or: make verify)
set -eu

cd "$(dirname "$0")/.."

echo "==> gofmt -l"
unformatted=$(gofmt -l ./*.go ./cmd ./internal ./examples ./bench)
if [ -n "$unformatted" ]; then
	echo "gofmt: the following files need formatting:" >&2
	echo "$unformatted" >&2
	exit 1
fi

# The engine has one serving-row representation, and a plan is held in it
# from the solver to the snapshot (DESIGN.md §9, §12). These are the names
# of the deleted dense rows, of the deleted bridge from a map-shaped plan
# into rows, of the deleted mirror of the rows into the network's FEC tables
# (with hybrid's second network and the fault that could desynchronise
# them), of the deleted searches over views no kernel compiles, and of the
# path-valued wire component and the on-demand LSP count that went when a
# component became its base-set index (DESIGN.md §9), of the ILM patch diff
# and its writer state that went when an epoch's patch rows became an overlay
# over the one network (DESIGN.md §15), of the switchover timers, of the
# solver's cost-index arm, which nothing served from, of the bounded
# ellipse search with its live candidate columns, destination trees and
# pooled solvers, which went when the writer's solve became a pull
# (core.Pull, DESIGN.md §13), and of the offline System's second
# restoration implementation — its per-pair updates, ILM patches, failover
# plans, content resolver and on-demand signalling, its hybrid on a second
# flood model, and the scenario, trace and table-audit packages around it
# (DESIGN.md §9); whole-word, so test names that contain them do not trip
# the gate.
echo "==> retired identifiers stay retired"
if git grep -nwE 'DeltaRows|assembleDense|emptyOver|mergePlanRow|buildOverlayRows|assembleOverlay|syncFEC|setFEC|localNet|FaultSkipFECRewrite|bidiGeneric|dijkstraGeneric|bfsGeneric|wirePath|decodePath|OnDemandLSPs|PatchSet|ilmPatches|syncPatches|scheduleConvergence|stopTimers|SetCostIndex|SetLiveIndex|LiveColumns|LiveFromSource|FromBounded|FromBoundedEllipse|revBound|refilter|ensureSolvers|NewCostIndex|UpdatePair|UpdateAllSources|LocalPatch|UndoLocalPatches|PrecomputeFailoverPlans|FailLinkPrecomputed|NewHybrid|HybridDeployment|NewLinkState|RunScenario|VerifyTables|TraceRoute|Resolver' -- '*.go'; then
	echo "verify: a retired identifier reappeared (see above)" >&2
	exit 1
fi

# Restoration has one implementation, the engine's (DESIGN.md §9): the
# System provisions and exports, and solves nothing. A solver call in a
# non-test file under internal/rbpc is the second implementation coming
# back; comments may name the solvers.
echo "==> internal/rbpc solves no restoration"
if git grep -nE 'core\.(DecomposeSparse|NewSparseSolver|NewPull|Pull)\b' -- 'internal/rbpc/*.go' |
	awk -F: '$1 !~ /_test\.go$/ && $3 !~ /^[[:space:]]*\/\// { print; bad = 1 } END { exit !bad }'; then
	echo "verify: a restoration solve under internal/rbpc; restore through the engine (see above)" >&2
	exit 1
fi

# A source's row in the snapshot is its FEC table and Snapshot.Send is the
# one ingress (DESIGN.md §12): the serving stack neither writes nor reads a
# network's FEC tables, which stay the provisioner's (rbpc.System).
echo "==> the serving stack touches no FEC table"
if git grep -nE 'SetFEC\(|ClearFEC\(|FECEntryFor\(|SendIP\(' -- \
	'internal/engine/*.go' 'internal/shard/*.go' 'internal/shardrpc/*.go' 'internal/probe/*.go' 'internal/chaos/*.go' |
	awk -F: '$1 !~ /_test\.go$/ { print; bad = 1 } END { exit !bad }'; then
	echo "verify: a FEC-table call under the serving stack; go through Snapshot.Send (see above)" >&2
	exit 1
fi

# An epoch forwards over the engine's one network under its own failure view
# and its own patch rows (mpls.ILMOverlay; DESIGN.md §9, §15): the serving
# stack writes no ILM row and no link state and signals no LSP, and the
# engine clones a network once — New's — never per transition. -W prints
# the enclosing function as a
# "file=N=" line ahead of each "file:N:" match.
echo "==> the serving stack writes no network"
if git grep -nE 'ReplaceILM\(|FailEdge\(|RepairEdge\(|EstablishLSP' -- \
	'internal/engine/*.go' 'internal/shard/*.go' 'internal/shardrpc/*.go' 'internal/probe/*.go' 'internal/chaos/*.go' |
	awk -F: '$1 !~ /_test\.go$/ { print; bad = 1 } END { exit !bad }'; then
	echo "verify: a network write under the serving stack; patch rows go in the epoch's mpls.ILMOverlay, link state in its view (see above)" >&2
	exit 1
fi
if git grep -nW -iE 'net\.Clone\(\)' -- 'internal/engine/*.go' ':!internal/engine/*_test.go' |
	awk '/=[0-9]+=/ { fn = $0 }
		/:[0-9]+:.*[Nn]et\.Clone\(\)/ && fn !~ /=func New\(/ { print fn; print; bad = 1 }
		END { exit !bad }'; then
	echo "verify: a network cloned under internal/engine outside New (see above)" >&2
	exit 1
fi

# A provisioned LSP is its index (DESIGN.md §9): the solver hands a
# component's base-set position on, the engine, the cold tier and the
# decoder read the provision's LSP table at it, and nothing under the
# serving stack keys an LSP by path content or makes up an LSP value for a
# path it could not find. The failed-set key (the declaration of
# Snapshot.Key; the engine reads the field) and NewColdTier's map
# parameter, which it lays out by position once, are not what these match.
echo "==> the serving stack resolves LSPs by index"
if git grep -nE 'map\[string\]\*mpls\.LSP|\.Key\(\)' -- 'internal/engine/*.go' |
	awk -F: '$1 !~ /_test\.go$/ { print; bad = 1 } END { exit !bad }'; then
	echo "verify: a string-keyed LSP lookup under internal/engine; read the table by index (see above)" >&2
	exit 1
fi
if git grep -nE '&mpls\.LSP\{' -- 'internal/shard/*.go' 'internal/shardrpc/*.go' |
	awk -F: '$1 !~ /_test\.go$/ { print; bad = 1 } END { exit !bad }'; then
	echo "verify: a made-up LSP under internal/shard or internal/shardrpc (see above)" >&2
	exit 1
fi

# The writer classifies and merges by walking sorted rows against
# writer-owned scratch (DESIGN.md §12); a map built per transition — pairs
# to recompute, destinations by source, the edges just down — is the form
# that walk replaced. downCount, the membership counts, is the one map the
# pipeline reads, and it lives on the engine.
echo "==> incrementalPlan and publish build no map per transition"
if git grep -nW 'make(map\[' -- 'internal/engine/*.go' ':!internal/engine/*_test.go' |
	awk '/=[0-9]+=/ { fn = $0 }
		/:[0-9]+:.*make\(map\[/ && fn ~ /\) (incrementalPlan|publish)\(/ { print fn; print; bad = 1 }
		END { exit !bad }'; then
	echo "verify: a per-transition map in incrementalPlan/publish (see above)" >&2
	exit 1
fi

# The frame layer has one payload checksum, CRC-32C (shardrpc.checksum);
# this is the byte-at-a-time FNV-1a loop it replaced.
if git grep -nw 'fnv1a' -- '*.go'; then
	echo "verify: the retired byte-loop frame checksum reappeared (see above)" >&2
	exit 1
fi

# The repository has one benchmark system, bench/ (BENCHMARK.json), and
# rbpc-serve serves one window on one backend. These are the flags, files
# and targets of the deleted second system.
if git grep -nE 'BENCH_engine|bench-dir|compare-fail-pct|engine-shard|shard-sweep|serve-bench|bench_smoke' -- \
	'*.go' Makefile scripts .github ':!scripts/verify.sh'; then
	echo "verify: a retired benchmark flag, file or target reappeared (see above)" >&2
	exit 1
fi

# The writer solves by pull (core.Pull: a restoration read off the source's
# distance row and the arcs into its destination); the base-path Dijkstra
# (core.SparseSolver) is the reference it is checked against, and under
# internal/engine the from-scratch reference plan (computePlan,
# Config.FullRebuild) is the only place allowed to build one. A solver
# constructed on the writer's path is the slow arm this gate exists to keep
# out. -W prints the enclosing function as a "file=N=" line ahead of each
# "file:N:" match.
echo "==> internal/engine builds sparse solvers in computePlan only"
if git grep -nW 'core\.NewSparseSolver(' -- 'internal/engine/*.go' ':!internal/engine/*_test.go' |
	awk '/=[0-9]+=/ { fn = $0 }
		/:[0-9]+:.*NewSparseSolver\(/ && fn !~ /\) computePlan\(/ { print fn; print; bad = 1 }
		END { exit !bad }'; then
	echo "verify: core.NewSparseSolver called outside computePlan (see above)" >&2
	exit 1
fi

# An epoch's distance oracle repairs the pristine oracle's trees instead of
# searching the failed view (spath.Oracle.Derive, DESIGN.md §8). New builds
# the pristine oracle; epochOracle is the one place an epoch's oracle comes
# from, and the one place allowed to fall back to from-scratch trees (the
# FullRebuild reference arm, a decoder's detached replica). A from-scratch
# oracle or tree built per transition anywhere else is the slow arm again.
echo "==> internal/engine builds oracles in New and epochOracle only"
if git grep -nW -E 'spath\.(NewOracle|Compute)\(' -- 'internal/engine/*.go' ':!internal/engine/*_test.go' |
	awk '/=[0-9]+=/ { fn = $0 }
		/:[0-9]+:.*spath\.(NewOracle|Compute)\(/ && fn !~ /=func (New|epochOracle)\(/ { print fn; print; bad = 1 }
		END { exit !bad }'; then
	echo "verify: spath.NewOracle/spath.Compute called outside New/epochOracle (see above)" >&2
	exit 1
fi

# The shard layer keeps what it serves (DESIGN.md §14): a source's shard is
# its ID mod N (shard.NewOwners), and a cold pair is pulled like a hot one.
# These are the names of the deleted consistent-hash ring with its
# parameters, of the deleted promoted-answer cache's knob and counter, and
# of the warm-solver rebind the cold tier used to carry between epochs;
# scoped to the packages they lived in and served, since the root package's
# NewRing builds a ring topology.
echo "==> the ring, the promoted-answer cache and the solver rebind stay retired"
if git grep -nwE 'NewRing|DefaultVNodes|DefaultRingSeed|RingSeed|VNodes|splitmix64|PromoteAfter|PromotedHits|Rebind' -- \
	'internal/shard/*.go' 'internal/shardrpc/*.go' 'internal/core/*.go' 'internal/engine/*.go' 'internal/chaos/*.go' 'cmd/rbpc-serve/*.go'; then
	echo "verify: a retired shard-layer identifier reappeared (see above)" >&2
	exit 1
fi

# The cold tier answers by pull (core.Pull over the source's distance row,
# rooted in the worker's own SSSP scratch), exactly as the writer does; the
# base-path Dijkstra it used to run per query, and the rebind that carried
# that solver across epochs, are the slow arm this gate keeps out of the
# shard layer.
echo "==> internal/shard, internal/shardrpc build no base-path Dijkstra"
if git grep -nE 'core\.NewSparseSolver\(|core\.SparseSolver|\.Rebind\(' -- 'internal/shard/*.go' 'internal/shardrpc/*.go' |
	awk -F: '$1 !~ /_test\.go$/ { print; bad = 1 } END { exit !bad }'; then
	echo "verify: a base-path Dijkstra under internal/shard or internal/shardrpc; pull (core.Pull) instead (see above)" >&2
	exit 1
fi

# Every atomic in the tree is a typed sync/atomic value (atomic.Int64,
# atomic.Bool, atomic.Pointer[T]), whose method set is the only access it
# has, so no word is read atomically in one place and plainly in another
# (DESIGN.md §10). A sync/atomic function called on a raw word is how that
# mix starts; bench/ is covered, the analyzer fixtures are not.
echo "==> no sync/atomic function on a raw word"
if git grep -nE 'atomic\.(Add|Load|Store|Swap|CompareAndSwap)(Int32|Int64|Uint32|Uint64|Uintptr|Pointer)\(' -- \
	'*.go' ':!*_test.go' ':!internal/analysis/testdata'; then
	echo "verify: a sync/atomic function on a raw word; use a typed atomic (atomic.Int64, atomic.Pointer[T], ...) (see above)" >&2
	exit 1
fi

echo "==> go build ./..."
go build ./...

echo "==> go vet ./..."
go vet ./...

echo "==> govulncheck (soft-fail if not installed)"
if command -v govulncheck >/dev/null 2>&1; then
	govulncheck ./... || echo "govulncheck reported findings (non-blocking)" >&2
else
	echo "govulncheck not installed; skipping"
fi

echo "==> go test ./..."
go test ./...

# rbpc-sim and the examples start engine goroutines; running them catches
# a panic or a hang that building them would not.
echo "==> rbpc-sim and the examples run"
go run ./cmd/rbpc-sim >/dev/null
for ex in examples/*/; do
	go run "./$ex" >/dev/null
done

echo "==> bench module: go vet + go test (compiles against this checkout)"
(cd bench && go vet ./... && go test ./...)

echo "==> go test -race (concurrent packages)"
go test -race ./internal/graph/... ./internal/spath/... ./internal/eval/... \
	./internal/engine/... ./internal/rbpc/... ./internal/mpls/... \
	./internal/shard/... ./internal/shardrpc/... ./internal/probe/...

echo "==> chaos conformance suite (long, -race, tagged)"
go test -race -tags chaos -count=1 ./internal/chaos/

echo "verify: OK"
