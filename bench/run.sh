#!/usr/bin/env bash
# Builds dtnbench from this checkout's sources and runs it with the given
# arguments, from the repository root:
#
#   bash bench/run.sh --workload sim-steady --seed 1 --seconds 20 --trace 0
#
# Go's build cache, module cache and settings live in .bench_build/ at the
# repository root, so a run writes nothing outside the checkout. Without
# the repository's sources next to bench/ the build fails and so does the
# run.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOMODCACHE="$build/go-mod" GOPATH="$build/go-path" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go build -C "$root/bench" -o "$build/dtnbench" ./dtnbench
exec "$build/dtnbench" "$@"
