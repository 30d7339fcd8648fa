#!/usr/bin/env bash
# The consolidated lint gate: one entry point for every static check,
# identical locally and in CI.
#
#   gofmt       formatting (fails listing the offending files)
#   go vet      the stock correctness checks
#   staticcheck honnef.co analyses (skipped locally when the binary is
#               absent; REQUIRED in CI, where the workflow installs it)
#   tcvet       the project-invariant analyzer suite (cmd/tcvet):
#               layering, injected clocks, drained response bodies,
#               typed wire errors, the metric catalog
#   ctx         no context.TODO() outside tests and benchmarks/ —
#               every entry point takes its caller's context
#   rows        no Relation.MustInsert on the query path (internal/dsa,
#               internal/cluster, the two CSR kernels and tc.CostMatrix):
#               it validates and copies one row at a time — leg tables
#               are tc.CostMatrix cells written in place, and the relations
#               the harness seams still take are built in bulk and adopted
#               by relation.Adopt
#   graph       no container/heap and no sort.Slice in internal/graph
#               (its searches run on a typed heap over index-addressed
#               rows, its listings on slices.Sort), no map-returning
#               base.ShortestPaths in the preprocessing (internal/dsa/
#               store.go): computeComp reads rows from CSR.Searches;
#               no graph.Graph built in internal/dsa outside tests but
#               in Site.Augmented (graph.New, NewWithCapacity,
#               .AddEdge): a site keeps one graph, the CSR buildSite
#               fills with graph.NewCSR; and no Fragmentation.Base()
#               outside tests in internal/dsa, internal/server,
#               internal/cluster, internal/store or pkg/tcq: Base()
#               builds the whole graph on each call, the node table
#               (Nodes, HasNode, NumNodes, Coord) and Fragmentation.CSR
#               are what those read; and no map[graph.NodeID] or
#               map[graph.Edge] outside tests in internal/fragment or
#               its center, linear and bea fragmenters: a fragment's
#               node set is its sorted node list, which fragments hold a
#               node is the membership table over the node-table rows,
#               and a fragmenter claims an edge by its position in a
#               fragment.Sweep and marks a node by its row (kconn is
#               exempt: it is the k-connectivity approach §3 rejects,
#               and its cost is what §3 reports); and searches are
#               seeded and answered in rows: no CSR or searcher method in
#               internal/graph takes or returns a map (the *Graph
#               conveniences cold readers and test references call are
#               exempt), and no map[graph.NodeID] outside tests in
#               internal/dsa/pipeline.go, internal/dsa/path.go or
#               internal/tc/densecost.go — the pipelined walk seeds each
#               site's distance row from the exits the last leg reached,
#               and routes backtrack over pred rows
#   pairs       no map[fragment.Pair] or map[Pair] outside tests in
#               internal/dsa, internal/store or internal/fragment: the
#               disconnection sets and their complementary tables are one
#               list ascending by (I, J) from the fragmentation
#               (DisconnectionPairs, DisconnectionSets) through the store
#               (Store.CompTables, Site.Comp in Site.dss order) to the
#               snapshot, which writes and reads them in that order
#   oracle      no test outside internal/oracle computes its own ground
#               truth (graph.Distance / ShortestPaths / Reachable) for
#               answers of the system: the "answers like Dijkstra"
#               property lives in internal/oracle, other tests call its
#               checker on a one-view generation or compare with a
#               literal (the allowlist gives one reason per line)
#   legs        ExecuteLegTableCtx and SelectExits each have one call
#               site in internal/server outside tests (executeLegLocal),
#               and SelectExits none in internal/cluster: every leg a
#               node runs — a query's, a fallback's, a peer's /v1/leg —
#               takes the one leg path, a remote leg's facts become its
#               block once (dsa.FactBlock) and are never selected twice,
#               and a second path cannot come back unseen
#   ci          no job of .github/workflows/ci.yml starts bin/tcserver
#               or bin/tcload or calls curl: behavioural gates live in
#               scripts/smoke.sh, where a developer can run them (the
#               allowlist gives one reason per line)
#   doccheck    every back-ticked pkg.Ident, Go name, repo path, -flag
#               and tc_* metric name in README.md and docs/*.md resolves
#               in the tree (scripts/doccheck.sh; its allowlist gives one
#               reason per historical mention)
#
# Usage: scripts/lint.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== gofmt"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "$unformatted"
    echo "FAIL: gofmt the files above"
    exit 1
fi

echo "== go vet"
go vet ./...

echo "== staticcheck"
if command -v staticcheck >/dev/null 2>&1; then
    staticcheck ./...
elif [ -n "${CI:-}" ]; then
    echo "FAIL: staticcheck is required in CI but is not installed"
    exit 1
else
    echo "skipped (staticcheck not installed; CI runs it)"
fi

echo "== tcvet"
go run ./cmd/tcvet

echo "== ctx"
if grep -rn 'context\.TODO()' --include='*.go' . | grep -v -e '_test\.go:' -e '^\./benchmarks/'; then
    echo "FAIL: thread the caller's context instead of context.TODO()"
    exit 1
fi

echo "== rows"
if grep -Hn 'MustInsert(' internal/tc/densecost.go internal/tc/bitset.go internal/tc/costmatrix.go ||
    grep -rn 'MustInsert(' --include='*.go' internal/dsa internal/cluster | grep -v '_test\.go:'; then
    echo "FAIL: write leg tables as tc.CostMatrix cells, or adopt rows built in bulk with relation.Adopt, instead of MustInsert"
    exit 1
fi

echo "== graph"
if grep -n -e '"container/heap"' -e 'sort\.Slice(' $(ls internal/graph/*.go | grep -v '_test\.go$') ||
    grep -Hn 'base\.ShortestPaths(' internal/dsa/store.go; then
    echo "FAIL: search on graph.Searches rows (typed heap, slices.Sort), not container/heap, sort.Slice or per-search maps"
    exit 1
fi
if awk '/^func / { fn = $0 } /^}/ { fn = "" } /^[ \t]*\/\// { next }
    /graph\.New\(|NewWithCapacity\(|\.AddEdge\(/ && fn !~ /^func \(s \*Site\) Augmented\(\)/ {
        print FILENAME ":" FNR ": " $0; bad = 1 }
    END { exit !bad }' $(ls internal/dsa/*.go | grep -v '_test\.go$'); then
    echo "FAIL: a site keeps one graph, its CSR (graph.NewCSR in buildSite): build no graph.Graph in internal/dsa outside Site.Augmented"
    exit 1
fi
if grep -rn '\.Base()' --include='*.go' internal/dsa internal/server internal/cluster internal/store pkg/tcq | grep -v '_test\.go:'; then
    echo "FAIL: Fragmentation.Base() builds the whole graph on each call: read the node table (Nodes, HasNode, NumNodes, Coord) or Fragmentation.CSR"
    exit 1
fi
if grep -Hn -e 'map\[graph\.NodeID\]' -e 'map\[graph\.Edge\]' $(ls internal/fragment/*.go internal/fragment/{center,linear,bea}/*.go | grep -v '_test\.go$'); then
    echo "FAIL: keep node sets as sorted node lists, membership as the table over node-table rows, and claimed edges as fragment.Sweep positions, not maps keyed by node id or edge, in internal/fragment and its center, linear and bea fragmenters"
    exit 1
fi
if awk '/^func \(([A-Za-z_][A-Za-z0-9_]* )?\*?(CSR|searcher)\)/ { sig = 1 }
    sig && /map\[/ { print FILENAME ":" FNR ": " $0; bad = 1 }
    sig && /\{$/ { sig = 0 }
    END { exit !bad }' $(ls internal/graph/*.go | grep -v '_test\.go$') ||
    grep -Hn 'map\[graph\.NodeID\]' internal/dsa/pipeline.go internal/dsa/path.go internal/tc/densecost.go; then
    echo "FAIL: seed searches with a distance row over the CSR and answer in dist/pred rows (CSR.SeededSearch, DenseGraph.CostVectorCtx), not maps keyed by node id"
    exit 1
fi

echo "== pairs"
if grep -rn -e 'map\[fragment\.Pair\]' -e 'map\[Pair\]' --include='*.go' internal/dsa internal/store internal/fragment | grep -v '_test\.go:'; then
    echo "FAIL: keep disconnection sets and complementary tables in one list ascending by (I, J) (Fragmentation.DisconnectionPairs, Store.CompTables), not in maps keyed by fragment pair"
    exit 1
fi

echo "== oracle"
own_truth=(
    -e '^\./internal/oracle/'            # the oracle itself
    -e '^\./internal/graph/'             # the searches' own tests
    -e '^\./internal/tc/'                # kernel-level differentials against the reference closures
    -e '^\./internal/fragment/'          # fragmenter properties, no answers of the system
    -e '^\./internal/phe/'               # an evaluator of its own, not served
    -e '^\./internal/sim/'               # an evaluator of its own, not served
    -e '^\./internal/gen/'               # generator properties
    -e '^\./examples/'                   # runnable documentation
    -e '^\./bench_test\.go:'             # timing baselines, nothing asserted
    -e '^\./benchmarks/'                 # the ledger's own replay oracle, a module of its own
    -e '^\./internal/dsa/dsa_test\.go:'  # complementary-table rows (structural) and TestPropertySameFragmentSingleSite: package-internal, cannot import the oracle
    -e '^\./internal/server/race_test\.go:'  # truth at the epoch each concurrent worker pinned; no oracle view pins a snapshot per query yet (ROADMAP: "The oracle under concurrency")
)
if grep -rn -e '\.Distance(' -e '\.ShortestPaths(' -e '\.Reachable(' --include='*_test.go' . | grep -v "${own_truth[@]}"; then
    echo "FAIL: hold answers to Dijkstra in internal/oracle (one more view or generation), not with a per-package ground truth"
    exit 1
fi

echo "== legs"
calls=$(grep -rn '\.ExecuteLegTableCtx(' --include='*.go' internal/server | grep -v '_test\.go:' || true)
if [ "$(grep -c . <<<"$calls")" -ne 1 ]; then
    echo "${calls:-no call site}"
    echo "FAIL: run every leg on a node through executeLegLocal, the one ExecuteLegTableCtx call site in internal/server"
    exit 1
fi
calls=$(grep -rn 'SelectExits(' --include='*.go' internal/server internal/cluster | grep -v '_test\.go:' || true)
if [ "$(grep -c . <<<"$calls")" -ne 1 ] || ! grep -q '^internal/server/' <<<"$calls"; then
    echo "${calls:-no call site}"
    echo "FAIL: select a leg's exits once, in executeLegLocal: one SelectExits call site in internal/server, none in internal/cluster (a remote leg's facts become its block through dsa.FactBlock)"
    exit 1
fi

echo "== ci"
inline_ok=(
    docker # the daemon under test is the image, which scripts/smoke.sh does not build
)
if awk -v ok=" ${inline_ok[*]} " '/^  [a-z0-9-]+:$/ { job = substr($1, 1, length($1) - 1) }
    /bin\/tcserver|bin\/tcload|curl/ && !index(ok, " " job " ") { print FILENAME ":" FNR ": " $0; bad = 1 }
    END { exit !bad }' .github/workflows/ci.yml; then
    echo "FAIL: boot daemons and assert on them in scripts/smoke.sh, not inline in ci.yml"
    exit 1
fi

echo "== doccheck"
scripts/doccheck.sh

echo "lint: all checks passed"
