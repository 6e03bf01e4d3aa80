#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload, from the root of a
# checkout:
#
#   bash perfbench/run.sh --workload serve_frozen --seed 1 --seconds 10 --trace 0
#
# Everything the build writes (Go build cache, binary, span files) stays in
# .bench_build/ under the checkout. Outside a full checkout the build fails
# and the script exits non-zero without printing a result.
set -euo pipefail
out="$(pwd)/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd perfbench && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" -spans "$out" "$@"
