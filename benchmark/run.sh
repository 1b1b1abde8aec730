#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ and runs it from the
# repository root with the arguments given. Go's build cache, module cache
# and per-user configuration (where the toolchain keeps its telemetry
# counters) are pointed into .bench_build/ too, so nothing outside the
# checkout is written.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local
(cd "$root/benchmark" && go build -o "$build/benchmark" .) >&2
cd "$root"
exec "$build/benchmark" "$@"
