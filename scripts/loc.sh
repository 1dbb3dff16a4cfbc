#!/usr/bin/env sh
# loc.sh — how much code the repository carries (`make loc`): non-blank,
# non-comment lines of the non-test .go files and of the Go assembly (.s,
# same // comment rule), per package directory and in total. benchmark/
# (the frozen ledger harness) and .bench_build/ (its build output) are not
# counted. With arguments, counts those files instead:
#   sh scripts/loc.sh internal/core/sender.go internal/field/field.go
set -eu
cd "$(dirname "$0")/.."

if [ $# -eq 0 ]; then
    set -- $(find . \( -name '*.go' -o -name '*.s' \) ! -name '*_test.go' \
        ! -path './benchmark/*' ! -path './.bench_build/*' | sed 's|^\./||' | sort)
    by=dir
else
    by=file
fi

awk -v by="$by" '
    FNR == 1 { key = FILENAME; if (by == "dir") { if (!sub("/[^/]*$", "", key)) key = "." } }
    incomment { if (sub(/^.*\*\//, "")) incomment = 0; else next }
    { sub(/^[ \t]+/, "") }
    /^\/\*/ && !/\*\// { incomment = 1; next }
    /^$/ || /^\/\// || /^\/\*.*\*\/[ \t]*$/ { next }
    { n[key]++; total++ }
    END {
        for (k in n) printf "%7d  %s\n", n[k], k | "sort -k2"
        close("sort -k2")
        printf "%7d  total\n", total
    }
' "$@"
