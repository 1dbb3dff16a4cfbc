#!/usr/bin/env bash
# traffic.sh — which internal/ functions no benchmark workload runs
# (`make traffic`):
#   scripts/traffic.sh [seconds=2]
# Builds ./benchmark with coverage counters over every package of the
# module (the main package must be inside -coverpkg, or the binary writes
# no counter files) into .bench_build/traffic, runs each workload
# BENCHMARK.json lists once, untraced (--trace 0, seed 1, the given
# measuring seconds per pass), all into one GOCOVERDIR, and prints the
# internal/ functions `go tool covdata func` reports at 0.0 %: code that
# sits on no workload's path, so no end-to-end number pays for it, then a
# count line of them, so two lists compare by number. Started as
# `sh scripts/traffic.sh`, it re-executes itself under bash.
if [ -z "${BASH_VERSION:-}" ]; then exec bash "$0" "$@"; fi
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
cd "$root"
seconds=${1:-2}
out="$root/.bench_build/traffic"
rm -rf "$out"
mkdir -p "$out/cover"
go build -cover -coverpkg=./... -o "$out/npbench" ./benchmark
for workload in $(awk '/"workloads"/ {on = 1} /"end_to_end"/ {on = 0}
	on && /"name"/ {gsub(/[",]/, ""); print $2}' BENCHMARK.json); do
	echo "traffic: $workload" >&2
	GOCOVERDIR="$out/cover" "$out/npbench" --workload "$workload" --seed 1 --seconds "$seconds" --trace 0 >/dev/null
done
go tool covdata func -i="$out/cover" | awk '$1 ~ /\/internal\// && $NF == "0.0%" {print; n++}
	END {print "traffic: " n+0 " internal/ functions at 0.0 %"}'
