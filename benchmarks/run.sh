#!/usr/bin/env bash
# Build the harness from source and run it from the checkout's root; every
# argument goes to the harness. The Go build cache, the temporary build
# directory and the binary all live in .bench_build inside the checkout, so a
# run reads and writes nothing outside it. In a directory without the module
# this benchmark measures (no ../go.mod) the build fails and so does this
# script, before printing a result.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local GOFLAGS=-mod=readonly
(cd "$here" && go build -o "$build/tcbenchmark" .) >&2
cd "$root"
exec "$build/tcbenchmark" "$@"
