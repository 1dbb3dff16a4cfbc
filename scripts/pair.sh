#!/usr/bin/env bash
# pair.sh — paired parent/change runs of benchmark workloads
# (choosing-metrics §8):
#   scripts/pair.sh <parent-ref> <workload>[,<workload>...]|all [pairs=10]
# `all` is every workload BENCHMARK.json lists; each workload gets its own
# pairs and its own table, one after the other.
#
# The change is a copy of the working tree under .bench_build/pair/change,
# taken when the script starts; the parent is `git archive <parent-ref>`
# unpacked under .bench_build/pair/parent. Each side builds with its own
# benchmark/run.sh into its own .bench_build (kept warm across runs). Pair i
# runs both sides with --seed i --seconds 15 --trace 0, the parent first on
# odd i and the change first on even i.
#
# Layout is randomised, not left to the linker (Stabilizer-style; Curtsinger
# and Berger, ASPLOS 2013). Functions are 32-byte aligned, so where a hot
# loop falls modulo 64 moves with the size of all code linked before it,
# and one such shift read as a few per cent of goodput. Before pair i both
# build trees get, in each of gf256, loss, rse, simnet, core and field, a
# pad of three tiny functions (96 bytes, 32 mod 64) or none, by the parity
# of the first hex digit of md5("pad <i> <package>"); a pad moves its
# package and every later one by 32 bytes mod 64. Both sides then sample
# the same spread of alignments, and the medians average layout out. The checkout itself is never padded. Each pair prints the
# pads and each side's hot-symbol offsets mod 64, from `go tool nm`.
#
# Per end-to-end metric of BENCHMARK.json it prints each
# side's median and quartiles, the change's wins/losses/ties over the pairs
# and "gain" when the change wins >= 9/10 of the pairs AND the medians differ
# by more than the parent's interquartile distance. Every run's result line
# is kept in .bench_build/pair/<workload>.{parent,change}.jsonl.
set -euo pipefail
if [[ $# -lt 2 ]]; then
	echo "usage: scripts/pair.sh <parent-ref> <workload>[,<workload>...]|all [pairs=10]" >&2
	exit 2
fi
parent_ref=$1 workloads=${2//,/ } pairs=${3:-10}
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
if [[ $workloads == all ]]; then
	workloads=$(awk '/"workloads"/ {on = 1} /"end_to_end"/ {on = 0}
		on && /"name"/ {gsub(/[",]/, ""); print $2}' "$root/BENCHMARK.json")
fi
out="$root/.bench_build/pair"
parent="$out/parent" change="$out/change"
fresh() { # fresh <dir>: empty a build tree but keep its .bench_build cache
	mkdir -p "$1"
	find "$1" -mindepth 1 -maxdepth 1 ! -name .bench_build -exec rm -rf {} +
}
fresh "$parent"
git -C "$root" archive "$parent_ref" | tar -x -C "$parent"
fresh "$change"
tar -C "$root" --exclude=./.git --exclude=./.bench_build -cf - . | tar -x -C "$change"

padpkgs="gf256 loss rse simnet core field"
pad() { # pad <checkout> <pair>: write pair i's layout pads into a build tree
	local pkg f
	for pkg in $padpkgs; do
		f="$1/internal/$pkg/aaa_layout_pad.go"
		rm -f "$f"
		if [[ -d ${f%/*} ]] && ((16#$(printf 'pad %s %s' "$2" "$pkg" | md5sum | cut -c1) % 2)); then
			printf 'package %s\n\nfunc init() { layoutPadA() }\n\n//go:noinline\nfunc layoutPadA() { layoutPadB() }\n\n//go:noinline\nfunc layoutPadB() {}\n' "$pkg" >"$f"
		fi
	done
}
hot='gf256\.MulAddSlice|loss\.\(\*BernoulliPopulation\)\.DrawRound|rse\.\(\*Code\)\.Reconstruct|simnet\.\(\*Scheduler\)\.deliver|core\.\(\*Receiver\)\.onShard|core\.\(\*Sender\)\.pump|field\.\(\*Field\)\.onShard'
offsets() { # offsets <checkout>: its binary's hot symbols, address mod 64
	go tool nm "$1/.bench_build/npbench" | grep -E " T rmfec/internal/($hot)\$" |
		while read -r addr _ name; do printf ' %s=%d' "${name#rmfec/internal/}" $((16#$addr % 64)); done
}

run() { # run <side> <checkout> <seed>: append the run's JSON result line
	(cd "$2" && bash benchmark/run.sh --workload "$workload" --seed "$3" --seconds 15 --trace 0 2>/dev/null) |
		tail -n 1 >>"$out/$workload.$1.jsonl"
	echo "  $1:$(offsets "$2")"
}

# "name better" for each end-to-end metric, from the pretty-printed contract.
metrics=$(awk '/"end_to_end"/ {on = 1} /"per_layer"/ {on = 0}
	on && /"name"/ {gsub(/[",]/, ""); name = $2}
	on && /"better"/ {gsub(/[",]/, ""); print name, $2}' "$root/BENCHMARK.json")

values() { # values <file> <metric>: one value per run, in run order
	grep -o "\"$2\":{\"value\":[^,]*" "$1" | sed 's/.*://'
}
report() { # print the current workload's table from its two .jsonl files
	echo "workload $workload, parent $parent_ref, $pairs pairs (seeds 1..$pairs), 15 s runs"
	for side in parent change; do
		echo "$side: failed $(grep -o '"failed":[0-9]*' "$out/$workload.$side.jsonl" | awk -F: '{s += $2} END {print s + 0}')" \
			"of $(grep -o '"attempted":[0-9]*' "$out/$workload.$side.jsonl" | awk -F: '{s += $2} END {print s + 0}') attempted"
	done
	printf '%-20s %-34s %-34s %-10s %-8s %s\n' metric 'parent median [q1, q3]' 'change median [q1, q3]' 'win/loss/tie' ratio verdict
	while read -r name better; do
		paste <(values "$out/$workload.parent.jsonl" "$name") <(values "$out/$workload.change.jsonl" "$name") |
			awk -v name="$name" -v better="$better" '
			function quart(a, n, q,    pos, lo) { # linear interpolation between order statistics
				pos = (n - 1) * q; lo = int(pos)
				return lo + 1 >= n ? a[n] : a[lo + 1] + (pos - lo) * (a[lo + 2] - a[lo + 1])
			}
			function sorted(src, dst, n,    i, j, t) {
				for (i = 1; i <= n; i++) dst[i] = src[i]
				for (i = 2; i <= n; i++) { t = dst[i]; for (j = i - 1; j >= 1 && dst[j] > t; j--) dst[j + 1] = dst[j]; dst[j + 1] = t }
			}
			{ n++; p[n] = $1; c[n] = $2
			  if ($1 == $2) tie++; else if ((better == "higher") == ($2 > $1)) win++; else lose++ }
			END {
				sorted(p, ps, n); sorted(c, cs, n)
				pm = quart(ps, n, 0.5); cm = quart(cs, n, 0.5); iqr = quart(ps, n, 0.75) - quart(ps, n, 0.25)
				gap = better == "higher" ? cm - pm : pm - cm
				verdict = (win * 10 >= (win + lose + tie) * 9 && gap > iqr) ? "gain" : "-"
				printf "%-20s %-34s %-34s %-10s %-8s %s\n", name,
					sprintf("%.6g [%.6g, %.6g]", pm, quart(ps, n, 0.25), quart(ps, n, 0.75)),
					sprintf("%.6g [%.6g, %.6g]", cm, quart(cs, n, 0.25), quart(cs, n, 0.75)),
					sprintf("%d/%d/%d", win, lose, tie), sprintf("%.3fx", pm ? cm / pm : 0), verdict
			}'
	done <<<"$metrics"
}
for workload in $workloads; do
	: >"$out/$workload.parent.jsonl"
	: >"$out/$workload.change.jsonl"
	for i in $(seq 1 "$pairs"); do
		pad "$parent" "$i"
		pad "$change" "$i"
		echo "$workload pair $i pads:" $(cd "$change/internal" && ls */aaa_layout_pad.go 2>/dev/null | cut -d/ -f1)
		if ((i % 2)); then
			run parent "$parent" "$i"
			run change "$change" "$i"
		else
			run change "$change" "$i"
			run parent "$parent" "$i"
		fi
		echo "$workload: pair $i/$pairs done" >&2
	done
	report
done
