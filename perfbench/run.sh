#!/usr/bin/env bash
# Builds the serving benchmark from this checkout's sources and runs it.
#
#   bash perfbench/run.sh --workload archive|live --seed N --seconds S --trace 0|1
#
# Run from the repository root. The binary and every Go cache go under
# .bench_build/, so nothing outside the checkout is written. Build output
# goes to stderr; stdout carries only the benchmark's report, whose last
# line is the JSON result.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOWORK=off GOFLAGS=
go build -C "$root/perfbench" -o "$out/perfbench" . >&2
exec "$out/perfbench" "$@"
