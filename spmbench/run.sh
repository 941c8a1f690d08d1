#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags, e.g.
#
#   bash spmbench/run.sh --workload bulk --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root. Everything it writes — the Go build
# cache, the binary, scratch stores and span files — stays under
# .bench_build/ there.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd "$root/spmbench" && go build -o "$out/spmbench" .)
exec "$out/spmbench" "$@"
