#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds ftoa-serve (from the commit
# under test) and the benchmark driver into benchmark/.build/, then runs
# the driver with the caller's arguments. Everything the Go toolchain
# writes — build cache, module cache, telemetry — stays under .build/.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$here/.build"
mkdir -p "$build" "$here/out"

export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" XDG_CONFIG_HOME="$build/xdg" GOTOOLCHAIN=local

# With a fresh config dir the go command is in telemetry mode "local" and
# starts a detached child of itself (once per day per config dir) that
# outlives this script. Mode "off" starts none.
mkdir -p "$XDG_CONFIG_HOME/go/telemetry"
echo off >"$XDG_CONFIG_HOME/go/telemetry/mode"

(cd "$here/.." && go build -o "$build/ftoa-serve" ./cmd/ftoa-serve) >&2
(cd "$here" && go build -o "$build/ftoa-benchmark" ./cmd/ftoa-benchmark) >&2

exec "$build/ftoa-benchmark" --serve-bin "$build/ftoa-serve" --out-dir "$here/out" "$@"
