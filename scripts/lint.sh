#!/usr/bin/env bash
# The consolidated lint gate: one entry point for every static check,
# identical locally and in CI.
#
#   gofmt       formatting (fails listing the offending files)
#   go vet      the stock correctness checks
#   staticcheck honnef.co analyses (skipped locally when the binary is
#               absent; REQUIRED in CI, where the workflow installs it)
#   tcvet       the project-invariant analyzer suite (cmd/tcvet, also
#               run by go test ./internal/analysis): layering, drained
#               response bodies, typed wire errors, the metric catalog,
#               keyed maps, and banned references (calls each layer has
#               moved off, injected clocks, the one leg path's call-site
#               budget) (README: "Static analysis")
#   oracle      no test outside internal/oracle computes its own ground
#               truth (graph.Distance / ShortestPaths / Reachable) for
#               answers of the system: the "answers like Dijkstra"
#               property lives in internal/oracle, other tests call its
#               checker on a one-view generation or compare with a
#               literal (the allowlist gives one reason per line)
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
# A built binary keeps tcvet's exit status (2: the tree failed to load or
# type-check); go run would turn every failure into 1.
tcvet_dir=$(mktemp -d)
trap 'rm -rf "$tcvet_dir"' EXIT
go build -o "$tcvet_dir/tcvet" ./cmd/tcvet
"$tcvet_dir/tcvet"

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
