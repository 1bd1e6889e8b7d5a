#!/usr/bin/env bash
# Builds the benchmark into .bench_build/ at the root of the checkout and runs
# it from that root, so the build cache, the binary and every file a run writes
# stay inside the checkout. Arguments are passed through to the benchmark.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS= CGO_ENABLED=0
# The go command keeps its settings file and telemetry counters under these.
export XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache"
(cd "$here" && go build -o "$out/bench" .)
cd "$root"
exec "$out/bench" "$@"
