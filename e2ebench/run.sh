#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root:  bash e2ebench/run.sh --workload als-order5 --seed 1 --seconds 25 --trace 0
# The build output, the Go build cache and every file a run writes stay
# under .bench_build/ in the current directory.
set -euo pipefail
here=$(cd "$(dirname "$0")" && pwd)
out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false
(cd "$here" && go build -o "$out/e2ebench" .)
exec "$out/e2ebench" "$@"
