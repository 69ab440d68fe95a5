#!/usr/bin/env bash
# Builds the benchmark from source and runs it, from the root of a checkout:
#
#   bash perfbench/run.sh --workload flit-grid --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run write stays under the build directory
# ($CARGO_TARGET_DIR, default .bench_build): the Go build cache and
# telemetry, the binary and a traced run's spans. The Go toolchain is used
# as installed, with no module downloads. The benchmark runs on one
# goroutine; GOMAXPROCS defaults to 1 so the garbage collector shares that
# core too and the figures do not depend on how many cores the host has or
# how busy its other cores are. Set GOMAXPROCS to run the same checks at
# another value.
set -euo pipefail
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$PWD/$out ;;
esac
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE=$out/gocache GOTMPDIR=$out/tmp GOPATH=$out/gopath
# The go command keeps its telemetry under the user config directory.
export XDG_CONFIG_HOME=$out/config
export GOMAXPROCS=${GOMAXPROCS:-1}
export GOTOOLCHAIN=local GOPROXY=off GOENV=off GOWORK=off GOFLAGS=-mod=mod
go build -C perfbench -o "$out/perfbench" .
exec "$out/perfbench" --spans-dir "$out/spans" "$@"
