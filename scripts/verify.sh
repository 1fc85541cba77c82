#!/bin/sh
# verify.sh — the full local gate: formatting, build, vet, tests (the
# invariant checkers of internal/analysis run inside `go test ./...` as
# TestModuleClean; the frozen bench/ module is tested too — it is its own
# module, so root `go test ./...` does not reach it and an API break
# would otherwise show only when the benchmark pipeline runs), and the
# race detector over the packages with real concurrency (the SSSP solver
# pool, the CSR lazy build, the oracle's CLOCK cache, the eval fan-outs,
# the online engine: epoch snapshots under churn and the sharded metrics; and the shard coordinator, the socket transport
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

# Retired identifiers. A name is kept here only where bringing its
# mechanism back would compile and pass every test and every other gate
# below unnoticed; a name whose return trips a test or another gate needs no
# grep, and went. Whole-word, so test names that contain them do not trip
# the gate.
echo "==> retired identifiers stay retired"
retired() { # $1: the names, $2: the rule they guard
	if git grep -nwE "$1" -- '*.go'; then
		echo "verify: a retired identifier reappeared (see above): $2" >&2
		exit 1
	fi
}
# One serving-row representation (DESIGN.md §9): a dense matrix behind a
# knob answers exactly what canonical + overlay does.
retired 'DeltaRows|assembleDense' "one serving-row representation"
# One search kernel (DESIGN.md §8): every view compiles (graph.CompileView),
# and a generic fallback arm would find the same paths more slowly.
retired 'bidiGeneric|dijkstraGeneric|bfsGeneric' "one search kernel"
# One liveness count per base path (paths.LiveIndex): the filtered candidate
# columns it used to maintain change no answer.
retired 'refilter|LiveFromSource' "one liveness count per base path"
# One edge index, the base set's own, and one membership (DESIGN.md §12): a
# pair's primary is its base path and it is affected while that path's
# liveness count is non-zero. A second pair-keyed index, or the primaries
# map beside the mask, would serve the same pairs.
retired 'PairIndex|BuildPairIndex|PrimaryIndex|Primaries' "one edge index and one membership"
# A provisioned LSP is its index (DESIGN.md §9): a content-keyed registry
# under the shard layer, which the engine-only gate below does not scan,
# would resolve the same LSPs.
retired 'Resolver' "a provisioned LSP is its index"
# One restoration implementation and one hybrid timeline, the engine's
# (DESIGN.md §9): the deleted offline hybrid, its flood model and the
# scenario, table-audit and trace packages around it would come back with
# their own tests.
retired 'NewHybrid|HybridDeployment|NewLinkState|RunScenario|VerifyTables|TraceRoute' "one restoration implementation"
# One frame checksum, CRC-32C (shardrpc.checksum): the byte-at-a-time FNV-1a
# loop it replaced checks frames just as well, only slower.
retired 'fnv1a' "one frame checksum"
# A route is its LSPs, stored once (DESIGN.md §9): the canonical matrix is
# one slot per served pair into one route per served primary, and the stack
# a source pushes is derived from the LSPs where a packet is sent. A
# matrix of route pointers built beside a matrix of primaries, and a
# network clone's copy-on-write flags (Clone is a plain copy, and no
# serving path clones), would answer the same and pass every test.
retired 'canonicalRows|sharedILM|sharedFEC|sharedLSPs' "a route is its LSPs, stored once"
# A burst is one transition and an epoch is what its failed-set makes it
# (DESIGN.md §9): a coalescing window behind a knob that defaults to zero
# would pass every test. (Tree adoption needs no name here: its trees,
# rooted by an earlier transition, fail TestTransitionRootsTreesAtSourcesOnly.)
retired 'CoalesceWindow' "a burst is one transition"
# One name per local scheme, engine.SchemeLocal and engine.SchemeBypass: a
# second enum for the ILM-patch flavor would select the same rows.
retired 'LocalScheme|EndRoute|EdgeBypass' "one name per local scheme"
# The network a provision exports serves the graph it was built over: a
# growth hook with no caller would pass every test.
retired 'SyncNewEdges' "no growth hook on the network"
# The wire carries epochs, not queries (DESIGN.md §14): the coordinator
# answers every query, burst and probe from its replica through an
# engine.Pool. The query, answer and drain frames, the per-worker query
# connections and in-flight budget, and the client and worker code around
# them would answer the same pairs the same way, only over a socket.
retired 'ftQuery|ftAnswer|ftQueryBatch|ftAnswerBatch|ftDrain|ftDrainAck|roleQuery|queryConns|maxInflight|callBatch|sendBatch|settleBatch|scanUnroutable|remoteQuery|queryConn|snapFor|queryMetrics|batchBuf|serveQuery|answerQuery|fillOwnedBatch|queryBatchSize|answerBatchSize|appendAnswer|decodeAnswer' "the wire carries epochs, not queries"
# The coordinator reads, shards only write (DESIGN.md §14): one query pool
# over every shard's snapshot answers a burst, scanned once. A pool a shard,
# each serving its owned part out of the shared burst, would answer the same
# pairs the same way, only with every burst scanned once a shard.
retired 'SubmitOwned|serveOwned|slotSet' "one query pool per deployment"
# One admission rule (DESIGN.md §14): the cold tier admits or sheds a burst's
# cold part whole, from a pool and a queue bound that are constants. Its
# retired knobs — the rbpc-serve flags, and a field that makes ColdConfig
# settable again — would pass every test at their defaults. The flags are
# matched outside tests, whose rows check that rbpc-serve refuses them.
if git grep -nwE 'cold-workers|cold-queue' -- '*.go' ':!*_test.go'; then
	echo "verify: a retired cold-tier flag reappeared (see above): one admission rule" >&2
	exit 1
fi
if ! grep -qx 'type ColdConfig struct{}' internal/shard/cold.go; then
	echo "verify: shard.ColdConfig is not the empty struct: the cold tier has no knob (one admission rule)" >&2
	exit 1
fi

# The same rule for the two shapes the canonical table replaced: a label
# stack stored in engine.Route beside the LSPs it is derived from (the
# struct is read between its "type Route struct {" line and the closing
# brace), and a matrix of route pointers in non-test internal/engine.
echo "==> engine.Route holds no label stack; no route-pointer matrix"
if awk '/^type Route struct \{/ { inside = 1; next }
	inside && /^\}/ { inside = 0 }
	inside && /^[[:space:]]*([[:alnum:]_]+,[[:space:]]*)*Stack[[:space:],]/ { print FILENAME ":" FNR ": " $0; bad = 1 }
	END { exit !bad }' internal/engine/*.go; then
	echo "verify: a Stack field in engine.Route (see above): the stack is derived from the LSPs where a packet is sent" >&2
	exit 1
fi
if git grep -nF '[][]*Route' -- 'internal/engine/*.go' ':!internal/engine/*_test.go'; then
	echo "verify: a matrix of route pointers under internal/engine (see above): the canonical table is slots into one route per served primary" >&2
	exit 1
fi

# DESIGN.md §4's per-experiment index is how a reader finds the code that
# regenerates a result; a test or benchmark it names that no function of
# the module is sends the reader nowhere. (A name followed by "*" names the
# function and its sub-benchmarks.)
echo "==> every test and benchmark DESIGN.md §4 names exists"
missing=0
for name in $(awk '/^## 4\./ { f = 1; next } /^## / { f = 0 } f' DESIGN.md | grep -oE '(Test|Benchmark)[[:alnum:]_]+' | sort -u); do
	if ! git grep -qE "^func $name\(" -- '*.go'; then
		echo "verify: DESIGN.md §4 names $name, which is no function of the module" >&2
		missing=1
	fi
done
if [ "$missing" -ne 0 ]; then
	exit 1
fi

# A worker is ready when its socket is (DESIGN.md §14): the Fleet listens on
# every worker's socket before it forks and hands the listener down as an
# inherited descriptor, so the coordinator's first dial succeeds and its
# attach waits exactly as long as the worker provisions. A socket path in
# the worker spec, or a worker that listens for itself, would bring back the
# dial that fails while the worker provisions and the retry pause after it;
# both pass every test but the timed one, which a slow host may not
# trip. The spec key is matched outside tests, whose rows check that
# ParseWorkerOpts refuses it.
echo "==> a worker serves the listener its fleet hands it"
if git grep -nE 'socket=|case "socket"' -- '*.go' ':!*_test.go'; then
	echo "verify: the retired socket= worker-spec key reappeared (see above): a worker serves its inherited listener" >&2
	exit 1
fi
if awk '/^type WorkerOpts struct \{/ { inside = 1; next }
	inside && /^\}/ { inside = 0 }
	inside && $1 == "Socket" { print FILENAME ":" FNR ": " $0; bad = 1 }
	END { exit !bad }' internal/shardrpc/*.go; then
	echo "verify: a Socket field in shardrpc.WorkerOpts (see above): a worker serves its inherited listener" >&2
	exit 1
fi
if git grep -nW -E 'net\.Listen(Unix)?\(' -- internal/shardrpc/workermain.go |
	awk '/=[0-9]+=/ { fn = $0 }
		/:[0-9]+:.*net\.Listen(Unix)?\(/ && fn !~ /=func (NewFleet\(|\(f \*Fleet\) )/ { print fn; print; bad = 1 }
		END { exit !bad }'; then
	echo "verify: a Unix listener opened outside Fleet in workermain.go (see above): a worker serves its inherited listener" >&2
	exit 1
fi

# One index per question about a base set (DESIGN.md §13): paths.Explicit
# keeps its pair map, beside the pair chains, the link lists (by EdgeID)
# and the ArcIndex. A second map answering what one of those answers — by
# source, by node, by path key, or the link lists keyed by a map again —
# would pass every test. The struct is read between its
# "type Explicit struct {" line and the closing brace.
echo "==> paths.Explicit keeps byPair as its only map"
if awk '/^type Explicit struct \{/ { inside = 1; next }
	inside && /^\}/ { inside = 0 }
	inside && /map\[/ && $1 != "byPair" { print FILENAME ":" FNR ": " $0; bad = 1 }
	END { exit !bad }' internal/paths/*.go; then
	echo "verify: a map field in paths.Explicit other than byPair (see above): one index per question" >&2
	exit 1
fi

# One byte order on the wire, encoding/binary's (DESIGN.md §14): the
# shift-and-mask little-endian toolkits it replaced — putU32/getU64 and
# appendU32 in internal/shardrpc, wireU32 and wireCursor's reads in
# internal/engine — wrote the same bytes, so one coming back would pass
# every test. A byte cut out of a word by a shift, or a word assembled from
# shifted bytes, is the shape they all share.
echo "==> no hand-rolled byte order"
if git grep -nE 'byte\([[:alnum:]_]+ ?>> ?(8|16|24|32|40|48|56)\)|\]\) ?<< ?(8|16|24|32|40|48|56)' -- '*.go'; then
	echo "verify: a hand-rolled byte-order encode or decode (see above); use encoding/binary's LittleEndian" >&2
	exit 1
fi

# The same rule for the retired corpus key: ReadCase still accepts it from
# older files and ignores it, and a writer that emitted it again would
# round-trip unnoticed.
echo "==> coalesce-us is read, never written"
if git grep -n 'coalesce-us' -- '*.go' ':!*_test.go' | grep -v 'case "coalesce-us":'; then
	echo "verify: the retired coalesce-us key is written again (see above): a burst is one transition" >&2
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

# An epoch forwards over the engine's one network, the provision's, under its
# own failure view and its own patch rows (mpls.ILMOverlay; DESIGN.md §9,
# §15): the serving stack writes no ILM row and no link state and signals no
# LSP, and the engine clones no network — nothing writes the one it reads.
echo "==> the serving stack writes no network"
if git grep -nE 'ReplaceILM\(|FailEdge\(|RepairEdge\(|EstablishLSP' -- \
	'internal/engine/*.go' 'internal/shard/*.go' 'internal/shardrpc/*.go' 'internal/probe/*.go' 'internal/chaos/*.go' |
	awk -F: '$1 !~ /_test\.go$/ { print; bad = 1 } END { exit !bad }'; then
	echo "verify: a network write under the serving stack; patch rows go in the epoch's mpls.ILMOverlay, link state in its view (see above)" >&2
	exit 1
fi
if git grep -nE '[Nn]et\.Clone\(\)' -- 'internal/engine/*.go' ':!internal/engine/*_test.go'; then
	echo "verify: a network cloned under internal/engine; read the provision's (see above)" >&2
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
# that walk replaced. Membership is no map either: a pair is affected while
# its primary's liveness count (paths.LiveIndex) is non-zero, and the
# primary is read off the base set by index, so nothing in the engine or
# the shard layer keys state by pair.
echo "==> incrementalPlan and publish build no map per transition; no pair-keyed map"
if git grep -nW 'make(map\[' -- 'internal/engine/*.go' ':!internal/engine/*_test.go' |
	awk '/=[0-9]+=/ { fn = $0 }
		/:[0-9]+:.*make\(map\[/ && fn ~ /\) (incrementalPlan|publish)\(/ { print fn; print; bad = 1 }
		END { exit !bad }'; then
	echo "verify: a per-transition map in incrementalPlan/publish (see above)" >&2
	exit 1
fi
if git grep -nE 'map\[rbpc\.Pair\]' -- 'internal/engine/*.go' 'internal/shard/*.go' |
	awk -F: '$1 !~ /_test\.go$/ { print; bad = 1 } END { exit !bad }'; then
	echo "verify: a pair-keyed map under internal/engine or internal/shard; read membership off the liveness counts (see above)" >&2
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
# parameters and of the deleted promoted-answer cache's knob and counter,
# either of which would serve the same answers; scoped to the packages they
# lived in and served, since the root package's NewRing builds a ring
# topology. (The warm-solver rebind needs no name: the Dijkstra gate below
# refuses its call.)
echo "==> the ring and the promoted-answer cache stay retired"
if git grep -nwE 'NewRing|DefaultVNodes|DefaultRingSeed|RingSeed|VNodes|splitmix64|PromoteAfter|PromotedHits' -- \
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

# A burst is one transition on a lone engine, on every shard and on every
# wire replica; a split burst is a timing window, so the tests run 20 times.
echo "==> bursts are atomic (-race, 20 runs)"
go test -race -count=20 -run 'TestBurstsAreAtomic' ./internal/engine/ ./internal/shard/ ./internal/shardrpc/

# The cold tier admits a burst's cold part as one unit and its Drain is a
# barrier; an admission or a drain that lost a unit is a timing window too.
echo "==> the cold tier takes bursts whole and drains exactly (-race, 20 runs)"
go test -race -count=20 -run 'TestColdBurstIsOneUnit|TestColdShedsABurstWhole|TestColdDrainIsExact' ./internal/shard/

# A forked fleet attaches as soon as its workers can answer, a respawned
# worker reattaches on the listener it inherits, and a contract mismatch or a
# hung worker fails inside the dial budget; the coordinator answers from its
# replicas — a burst exactly once, each pair off its own owner's snapshot,
# also when its owner dies before the Drain, with the counters of in-process
# serving, and with the worker's own data plane gone. The socket transport's
# timing windows and the one pool's shared bursts are exercised five times
# under the race detector.
echo "==> fleet attach, the socket transport and replica serving (-race, 5 runs)"
go test -race -count=5 -run 'TestFleetAttachesWithoutASleep' ./cmd/rbpc-serve/
go test -race -count=5 -run 'TestProc|TestSharedBatchExactlyOnce|TestQueriesCountedOnceInBothModes|TestSendWithoutDataPlane|TestSubmitBatchAllocs|TestPoolReadsEachOwnersSnapshot|TestAffectedPairsMatchEngine' ./internal/shardrpc/
go test -race -count=5 -run 'TestSharedBatchExactlyOnce|TestSubmitBatchAllocs|TestPoolReadsEachOwnersSnapshot|TestAffectedPairsMatchEngine' ./internal/shard/
go test -race -count=5 -run 'TestReplicaSendMatchesEngine' ./internal/engine/

# Provisioning fans out over GOMAXPROCS (DESIGN.md §13): the walk's source
# ranges and the batch's chunks write shared slices and tables at disjoint
# indices, and the result must be the one-goroutine build's at GOMAXPROCS 1,
# 2 and 4, which these tests set row by row.
echo "==> provisioning on every core (-race, 5 runs)"
go test -race -count=5 -run 'TestFromSourcesMatchesPerPair|TestWalkRetainsOneTree|TestEstablishErrors|TestTeardownFreesLabels|TestNewSystemMatchesEstablish' \
	./internal/paths/ ./internal/mpls/ ./internal/rbpc/ ./internal/shardrpc/

echo "==> chaos conformance suite (long, -race, tagged)"
go test -race -tags chaos -count=1 ./internal/chaos/

echo "verify: OK"
