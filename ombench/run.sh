#!/usr/bin/env bash
# Builds ombench from source and runs it with the given arguments.
# Run from the repository root:
#
#   bash ombench/run.sh --workload relay --seed 1 --seconds 10 --trace 0
#
# Every file the build writes (binary, Go build cache, Go's own config
# and telemetry) stays under .bench_build in the current directory.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=

src=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
(cd "$src" && go build -o "$build/ombench" .)
exec "$build/ombench" "$@"
