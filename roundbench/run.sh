#!/usr/bin/env bash
# Builds the round-pipeline benchmark from source and runs it. Run it from
# the root of a checkout, passing the benchmark's flags through:
#
#   bash roundbench/run.sh --workload direct-256 --seed 1 --seconds 12 --trace 0
#
# The Go build cache, the binary, the tier's state directories and the span
# dumps all stay under .bench_build/ in the checkout.
set -euo pipefail

build="$(pwd)/.bench_build"
export GOCACHE="$build/go-cache"
export GOMODCACHE="$build/go-mod"
export GOPATH="$build/go-path"
export GOTMPDIR="$build/go-tmp"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOWORK=off GOPROXY=off GOFLAGS=
mkdir -p "$GOTMPDIR"

(cd roundbench && go build -o "$build/bin/roundbench" .)
exec "$build/bin/roundbench" -out "$build/roundbench" "$@"
