#!/usr/bin/env bash
# Builds the layered simulator benchmark from source and runs it.
#
#   bash layerbench/run.sh --workload fleet-10k --seed 1 --seconds 30 --trace 0
#
# Run from the repository root. Build outputs, the Go build cache and
# the Go tool's own config and telemetry files live under .bench_build/,
# so the benchmark writes only inside the checkout.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off
export GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
commit="$(GIT_CEILING_DIRECTORIES="$(dirname "$root")" git -C "$root" rev-parse HEAD 2>/dev/null || echo none)"
go -C "$root/layerbench" build -o "$out/layerbench" .
LAYERBENCH_COMMIT="$commit" exec "$out/layerbench" -root "$root" "$@"
