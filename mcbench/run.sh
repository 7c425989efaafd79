#!/usr/bin/env bash
# run.sh builds the mcbench benchmark from the source tree in the current
# directory and runs it with the given arguments:
#
#   bash mcbench/run.sh --workload sweep-fig1 --seed 1 --seconds 25 --trace 0
#
# Run it from the repository root. Everything the build and the run
# write stays under .bench_build/: the Go build cache, the binary,
# scratch files, and the traced runs' reports and CPU profiles
# (.bench_build/results). The last line of standard output is the
# run's JSON result.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/mcbench" ]]; then
    echo "mcbench: run from the repository root (no go.mod or mcbench/ here)" >&2
    exit 2
fi

build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/xdg"
# Keep the toolchain's caches, temporary files and settings inside the
# checkout, and never let it fetch a toolchain.
export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/xdg"
export GOTOOLCHAIN=local

go build -o "$build/mcbench" ./mcbench
exec "$build/mcbench" "$@"
