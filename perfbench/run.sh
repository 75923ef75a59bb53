#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with
# the given arguments, e.g.
#
#   bash perfbench/run.sh --workload mesh-coarse --seed 1 --seconds 25 --trace 0
#
# Every build artefact (Go build cache, temporary files, the binary) and
# the traced run's span files stay under .bench_build/ in the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd perfbench && go build -o "$build/perfbench" .)
exec "$build/perfbench" --spans "$build/spans" "$@"
