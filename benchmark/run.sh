#!/usr/bin/env bash
# The command BENCHMARK.json names: build the benchmark from source and run
# it with the arguments given. Everything the build writes (Go's build
# cache, module cache and configuration directory included) stays in
# .bench_build at the root of the checkout.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
if [[ ! -f go.mod ]]; then
	echo "benchmark/run.sh: no go.mod in $PWD: the program under test is not in this checkout" >&2
	exit 1
fi
build="$PWD/.bench_build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOFLAGS=
# A fresh configuration directory makes the go command start its detached
# telemetry helper, which outlives this script. Mode "off" stops it from
# being started at all, so no process is left behind.
mkdir -p "$XDG_CONFIG_HOME/go/telemetry"
echo off >"$XDG_CONFIG_HOME/go/telemetry/mode"
go build -o "$build/npbench" ./benchmark
exec "$build/npbench" "$@"
