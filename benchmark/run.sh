#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the arguments given:
#
#   bash benchmark/run.sh --workload mix_tcp --seed 1 --seconds 10 --trace 0
#
# The benchmark is package main of the repository's module, so the build
# is `go build ./benchmark` at the module root. Everything the build and
# the run write — the binary, the Go build cache, temp files, the durable
# workload's store directories — stays under .bench_build/ in the current
# directory.
#
# The go command's telemetry is switched off first: with a fresh config
# directory its first invocation of the day starts a detached child of
# itself (the counter uploader), which would outlive this script.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build=$PWD/.bench_build
if [ ! -f "$root/go.mod" ]; then
	echo "benchmark/run.sh: no go.mod beside benchmark/: the program under test is not here" >&2
	exit 1
fi
mkdir -p "$build/tmp" "$build/config/go/telemetry"
echo off >"$build/config/go/telemetry/mode"

export GOCACHE=$build/gocache
export GOMODCACHE=$build/gomodcache
export GOTMPDIR=$build/tmp
export TMPDIR=$build/tmp
export XDG_CONFIG_HOME=$build/config
export GOPROXY=off
export GOTOOLCHAIN=local

go build -C "$root" -o "$build/shmbenchmark" ./benchmark
exec "$build/shmbenchmark" "$@"
