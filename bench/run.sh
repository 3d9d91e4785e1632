#!/usr/bin/env bash
# Builds the benchmark inside the checkout and runs it from the checkout's
# root. Everything the build leaves behind goes under .bench_build, the Go
# build cache and the toolchain's own configuration directory included, so
# nothing outside the checkout is written.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" XDG_CONFIG_HOME="$build/config" GOENV=off
export GOTOOLCHAIN=local GOPROXY=off
go build -C "$here" -o "$build/bench" . >&2
cd "$root"
exec "$build/bench" "$@"
