#!/usr/bin/env bash
# A/A check: run the workloads BENCHMARK.json declares twice on the same
# commit, RUNS seeds per workload and side (default 10, as the acceptance
# driver does), each run a fresh process, then hold side B against side A with the
# benchmark's own bounds. Exits non-zero on any row that is not "ok":
# "regressed" on identical code means the machine drifted between the two
# sides, "unresolved" that the run-to-run spread is wider than the bound.
# The cure for either is a longer measured phase, never a wider bound.
#
#   bash benchmarks/aa.sh            # from the repository root
#   RUNS=4 bash benchmarks/aa.sh
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
runs="${RUNS:-10}"
seconds="$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' BENCHMARK.json)"
commit="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
out="benchmarks/out/aa"
rm -rf "$out"
for side in a b; do
	for workload in $(sed -n 's/^ *"name": "\([a-z0-9-]*\)",$/\1/p' BENCHMARK.json); do
		for seed in $(seq 1 "$runs"); do
			bash benchmarks/run.sh --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 \
				--out "$out/$side" --commit "$commit" >/dev/null
		done
	done
done
bash benchmarks/run.sh -compare "$out/a" "$out/b"
