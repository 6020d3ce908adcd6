#!/usr/bin/env bash
# Builds the benchmark from the sources of the enclosing checkout and runs it.
# Run from the checkout root:
#
#   bash perfbench/run.sh --workload lowdefl-n2000 --seed 1 --seconds 20 --trace 0
#
# Every file the build and the run write stays under .bench_build (or
# $CARGO_TARGET_DIR when set): the Go build cache, the binary, the cached
# generated inputs and the per-run records and spans.
set -euo pipefail

root=$(pwd)
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config" "$out/perfbench"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/gocache"
export GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOENV=off

bin="$out/perfbench/perfbench"
(cd "$root/perfbench" && go build -o "$bin" .)
exec "$bin" --root "$root" --out "$out/perfbench" "$@"
