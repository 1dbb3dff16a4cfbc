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
# and Berger, ASPLOS 2013; Mytkowicz et al., ASPLOS 2009). Functions are
# 32-byte aligned, so where a hot loop falls moves with the size of all code
# linked before it, and one such shift read as a few per cent of goodput.
# Before each run, every rmfec package the benchmark binary links gets its
# own pad at the front of its code: 0 or 64 to 4096 bytes in 32-byte steps,
# drawn from md5("pad <i> <side> <package>") for pair i. A pad of S bytes
# is a chain of S/32 functions of 32 bytes each (an init calling
# //go:noinline ones). Steps of 32, not 64, also sample where hot code
# falls modulo 64, which a pad of whole 64-byte lines would never move.
# Each side of each pair draws its own layout, so placement widens both
# medians instead of biasing their ratio, even when the change itself moves
# later code by kilobytes. The checkout itself is never padded, nor is the
# standard library. Each run prints its side's pad bytes per package and
# its hot-symbol offsets mod 64, from `go tool nm`.
#
# Per end-to-end metric of BENCHMARK.json it prints each
# side's median and quartiles, the change's wins/losses/ties over the pairs,
# the exact two-sided sign-test p of the wins against the losses (ties
# dropped), and a verdict: "gain" when the change wins >= 9/10 of the pairs
# AND the medians differ by more than the parent's interquartile distance,
# "loss" when it loses as often by as much, and "unresolved" for any sweep
# of fewer than 6 pairs, whatever it read: with 5 pairs even 5/0 has
# p = 2 * 2^-5 = 0.0625. Every run's result line is kept in
# .bench_build/pair/<workload>.{parent,change}.jsonl.
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

pad() { # pad <checkout> <side> <pair>: write the side's layout pads, print their bytes
	local path name dir f n i
	find "$1" -path "$1/.bench_build" -prune -o -name aaa_layout_pad.go -exec rm -f {} +
	printf '  %s pads:' "$2"
	while read -r path name dir; do
		n=$((16#$(printf 'pad %s %s %s' "$3" "$2" "$path" | md5sum | cut -c1-4) % 128 + 1)) # 32-byte functions
		((n > 1)) || n=0 # a lone init could be dropped by the compiler
		path=${path#rmfec/}
		printf ' %s=%d' "${path#internal/}" $((n * 32))
		((n)) || continue
		f="$dir/aaa_layout_pad.go"
		printf 'package %s\n\nfunc init() { layoutPad1() }\n' "$name" >"$f"
		for ((i = 1; i < n - 1; i++)); do
			printf '\n//go:noinline\nfunc layoutPad%d() { layoutPad%d() }\n' "$i" $((i + 1)) >>"$f"
		done
		printf '\n//go:noinline\nfunc layoutPad%d() {}\n' $((n - 1)) >>"$f"
	done < <(cd "$1" && GOFLAGS= GOTOOLCHAIN=local go list -deps -f '{{.ImportPath}} {{.Name}} {{.Dir}}' ./benchmark | grep '^rmfec')
	echo
}
hot='gf256\.MulAddSlice|loss\.\(\*BernoulliPopulation\)\.DrawRound|rse\.\(\*Code\)\.Reconstruct|simnet\.\(\*Scheduler\)\.deliver|core\.\(\*Receiver\)\.onShard|core\.\(\*Sender\)\.pump|field\.\(\*Field\)\.onShard'
offsets() { # offsets <checkout>: its binary's hot symbols, address mod 64
	go tool nm "$1/.bench_build/npbench" | grep -E " T rmfec/internal/($hot)\$" |
		while read -r addr _ name; do printf ' %s=%d' "${name#rmfec/internal/}" $((16#$addr % 64)); done
}

run() { # run <side> <checkout> <seed>: pad the side for pair <seed>, append the run's JSON result line
	pad "$2" "$1" "$3"
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
	printf '%-20s %-34s %-34s %-10s %-8s %-8s %s\n' metric 'parent median [q1, q3]' 'change median [q1, q3]' 'win/loss/tie' ratio 'sign p' verdict
	while read -r name better; do
		paste <(values "$out/$workload.parent.jsonl" "$name") <(values "$out/$workload.change.jsonl" "$name") |
			awk -v name="$name" -v better="$better" '
			function quart(a, n, q,    pos, lo) { # linear interpolation between order statistics
				pos = (n - 1) * q; lo = int(pos)
				return lo + 1 >= n ? a[n] : a[lo + 1] + (pos - lo) * (a[lo + 2] - a[lo + 1])
			}
			function signp(a, b,    m, x, i, c, sum) { # exact two-sided binomial(m, 1/2) tail
				m = a + b; x = a < b ? a : b; c = 1
				for (i = 0; i <= x; i++) { sum += c; c = c * (m - i) / (i + 1) }
				return 2 * sum / 2 ^ m < 1 ? 2 * sum / 2 ^ m : 1
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
				verdict = win * 10 >= n * 9 && gap > iqr ? "gain" : lose * 10 >= n * 9 && -gap > iqr ? "loss" : "-"
				if (n < 6) verdict = "unresolved"
				printf "%-20s %-34s %-34s %-10s %-8s %-8.4g %s\n", name,
					sprintf("%.6g [%.6g, %.6g]", pm, quart(ps, n, 0.25), quart(ps, n, 0.75)),
					sprintf("%.6g [%.6g, %.6g]", cm, quart(cs, n, 0.25), quart(cs, n, 0.75)),
					sprintf("%d/%d/%d", win, lose, tie), sprintf("%.3fx", pm ? cm / pm : 0), signp(win, lose), verdict
			}'
	done <<<"$metrics"
}
for workload in $workloads; do
	: >"$out/$workload.parent.jsonl"
	: >"$out/$workload.change.jsonl"
	for i in $(seq 1 "$pairs"); do
		echo "$workload pair $i:"
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
