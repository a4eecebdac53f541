#!/usr/bin/env bash
# Builds rpcd and the benchmark program from the checkout it is run in, then
# runs one workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload small-open --seed 1 --seconds 20 --trace 0
#
# Everything it writes stays under the build directory (.bench_build by
# default, or $CARGO_TARGET_DIR when set): the Go build cache, the
# binaries, the nodes' model directories and the span files.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/rpcd || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the root of an rpcrank checkout" >&2
	exit 2
fi

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
mkdir -p "$build/home" "$build/tmp"
build=$(cd "$build" && pwd)

# Keep the toolchain's caches and config inside the build directory, and
# the toolchain itself local and offline.
export HOME="$build/home" XDG_CACHE_HOME="$build/home/.cache" XDG_CONFIG_HOME="$build/home/.config"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOENV=off GOTELEMETRY=off

go build -o "$build/rpcd" ./cmd/rpcd
(cd perfbench && go build -o "$build/perfbench" .)

cd "$root"
exec "$build/perfbench" --rpcd "$build/rpcd" --build-dir "$build" "$@"
