#!/usr/bin/env sh
# check.sh — the repository's single verification entry point (`make check`).
#
# Tiers, cheapest first so failures surface fast:
#   1. gofmt            formatting drift
#   2. go vet           the stock analyzer suite, plus a second pass with
#                       an extended -unusedresult function list
#   3. go build         everything compiles
#   4. cross-compile    GOARCH=arm64 go vet and GOARCH=386 go build, so the
#                       !amd64 stubs beside the gf256 assembly kernels
#                       (and asmdecl's view of them) cannot rot
#   5. go test          the full test suite once, uncached (-count=1), so
#                       every pin runs rather than coming from the test
#                       cache: the repository's own invariants
#                       (invariants_test.go), the alloc, copy-once and
#                       borrowed-message pins, the simnet event-order pins,
#                       the codec pins, the sender transcripts and engine
#                       pins, the loss-shift curves against
#                       results/adapt_*.tsv, N2 and layered FEC on Eqs 1
#                       and 3, and the committed figures; then udpcast's
#                       re-entrancy pins again under a 60 s timeout, so a
#                       self-deadlock fails fast
#   6. go test -race    short-mode tests of the packages that own or drive
#                       concurrency; none of internal/core's placement
#                       tests skips under -short, nor the borrowed-message
#                       pin, whose pool workers read the caller's buffer
#   7. field smoke      one R = 1e5 receiver-field transfer reconciled
#                       against the paper's closed form (R = 1e6 stays in
#                       tier 5), the count path's E[M] against it from
#                       R = 1e3 to 1e12, the consolidation pins, the count
#                       path against the per-packet path end to end (also
#                       past parity exhaustion, where it materialises),
#                       and the loss draws the field runs on (the skip's
#                       redraw and overflow rules by the fuzz seeds, the
#                       binomial sampler vs the exact pmf and the bins vs
#                       per-receiver draws by chi-squared, uniform missed
#                       subsets, pinned streams), the NAK jitter (pinned
#                       grid, closed form vs math/rand), the recorded
#                       l_max and deficient count vs a scan and the
#                       0-alloc aggregate round, in -short mode and
#                       uncached
#   8. figures diff     two `figures -quick` runs at different -parallel
#                       values must produce byte-identical TSV output for
#                       every simulated figure (the mcrun determinism
#                       contract, end to end; fig 1 measures this
#                       machine's coder throughput, so it is excluded)
#   9. metrics smoke    start npsend -metrics-addr, scrape /metrics, project
#                       the exposed series onto their static IDs and diff
#                       against the sender-side slice of
#                       scripts/metrics_schema.txt (skipped when multicast
#                       or curl is unavailable, like the udpcast tests)
#  10. loc ratchet      `make loc` total must not exceed loc_ceiling below;
#                       a PR that deletes code lowers it, one that adds
#                       code has to raise it in the open; likewise the
#                       bytes of DESIGN.md + EXPERIMENTS.md against
#                       doc_ceiling
set -eu
cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

echo '== gofmt'
fmt=$(gofmt -l .)
if [ -n "$fmt" ]; then
    echo "gofmt needed on:" >&2
    echo "$fmt" >&2
    exit 1
fi

echo '== go vet ./...'
go vet ./...
# Second, stricter pass: naming an analyzer disables the rest, so the
# extended unusedresult function list needs its own invocation.
go vet -unusedresult \
    -unusedresult.funcs='errors.New,errors.Unwrap,fmt.Errorf,fmt.Sprint,fmt.Sprintf,fmt.Sprintln,sort.Reverse,context.WithValue,strings.Join,strings.Repeat,strings.ToLower,strings.ToUpper,strings.TrimSpace' \
    ./...

echo '== go build ./...'
go build ./...

echo '== cross-compile (GOARCH=arm64 go vet, GOARCH=386 go build)'
GOARCH=arm64 go vet ./...
GOARCH=386 go build ./...

echo '== go test -count=1 ./...'
go test -count=1 ./...
# Engine callbacks re-enter the Conn under its mutex; a method that takes
# it deadlocks, which these fail on within a minute rather than hanging for
# go test's default ten.
go test -count=1 -timeout 60s -run 'TestNPTransferOverUDP|TestConcurrentCloseServeMulticast|TestCallbacksMayReenterConn' ./internal/udpcast/

echo '== go test -race -short (concurrent packages)'
go test -race -short ./internal/udpcast/ ./internal/simnet/ ./internal/core/ ./internal/mcrun/ ./internal/pipeline/ ./internal/rse/ ./internal/rect/ ./internal/field/ ./internal/adapt/ ./internal/gf256/ ./internal/loss/

echo '== receiver field smoke (R=1e5 full transfer vs closed form, -short)'
go test -short -count=1 -run 'TestFieldSmokeR100k|TestFieldEMReconciliation|TestFieldEMAcrossR|TestConsolidate|TestFieldRoundDrawMatchesPerPacket|TestFieldMaterialisesAtParityExhaustion|TestLabelJitterPinned|TestLmaxRecordMatchesScan|TestLmaxFollowsLateParameters|TestAggregateRoundZeroAlloc' ./internal/field/
go test -short -count=1 -run 'FuzzGeoSkip|StreamPinned|StreamsPinned|TestBinomialMatchesPmf|TestDrawRound|TestDrawMissedIsUniform' ./internal/loss/

echo '== figures determinism (-parallel 1 vs 8, simulated figures)'
go build -o "$tmp/figures" ./cmd/figures
for fig in 11 12 14 15 16; do
    "$tmp/figures" -fig "$fig" -quick -seed 7 -parallel 1 >> "$tmp/p1.tsv"
    "$tmp/figures" -fig "$fig" -quick -seed 7 -parallel 8 >> "$tmp/p8.tsv"
done
if ! cmp -s "$tmp/p1.tsv" "$tmp/p8.tsv"; then
    echo "figures output differs between -parallel 1 and -parallel 8" >&2
    diff "$tmp/p1.tsv" "$tmp/p8.tsv" >&2 || true
    exit 1
fi

echo '== metrics endpoint smoke (npsend -metrics-addr vs scripts/metrics_schema.txt)'
if ! command -v curl >/dev/null 2>&1; then
    echo 'metrics smoke: curl not available, skipping'
else
    go build -o "$tmp/npsend" ./cmd/npsend
    head -c 100000 /dev/urandom > "$tmp/payload.bin"
    "$tmp/npsend" -file "$tmp/payload.bin" -metrics-addr 127.0.0.1:0 -linger 8s \
        > "$tmp/npsend.out" 2>&1 &
    np_pid=$!
    addr=''
    for _ in $(seq 1 50); do
        addr=$(sed -n 's#npsend: metrics on http://\([^/]*\)/metrics#\1#p' "$tmp/npsend.out")
        [ -n "$addr" ] && break
        if ! kill -0 "$np_pid" 2>/dev/null; then break; fi
        sleep 0.1
    done
    if [ -z "$addr" ]; then
        echo 'metrics smoke: npsend did not start (multicast unavailable?), skipping'
        cat "$tmp/npsend.out"
    else
        # Project runtime series onto their static IDs: histogram expansion
        # (_bucket{le=...}, _sum, _count) folds back into the base name.
        curl -sf "http://$addr/metrics" | grep -v '^#' | awk '{print $1}' \
            | grep -v '_bucket{' \
            | sed -e 's/_sum$//' -e 's/_count$//' \
            | LC_ALL=C sort -u > "$tmp/schema.txt"
        # npsend runs the sender half only; slice the pinned schema down to
        # the series a sender process registers (np_codec_nc_rx_* is the
        # receiver half of the NC instruments).
        grep -E '^(np_sender_|np_pipeline_|np_codec_|rse_|udpcast_)' scripts/metrics_schema.txt \
            | grep -v '^np_codec_nc_rx_' \
            > "$tmp/schema.want"
        if ! cmp -s "$tmp/schema.txt" "$tmp/schema.want"; then
            echo 'metrics series set drifted from scripts/metrics_schema.txt:' >&2
            diff "$tmp/schema.want" "$tmp/schema.txt" >&2 || true
            kill "$np_pid" 2>/dev/null || true
            exit 1
        fi
        # Liveness: the sender must have transmitted by now.
        datatx=$(curl -sf "http://$addr/metrics" | awk '$1 == "np_sender_tx_packets_total{kind=\"data\"}" {print $2}')
        if [ "${datatx:-0}" -eq 0 ]; then
            echo "metrics smoke: np_sender data tx = ${datatx:-unset}, expected > 0" >&2
            kill "$np_pid" 2>/dev/null || true
            exit 1
        fi
        # JSON and trace endpoints answer too.
        curl -sf "http://$addr/metrics.json" > /dev/null
        curl -sf "http://$addr/debug/trace" > /dev/null
    fi
    kill "$np_pid" 2>/dev/null || true
    wait "$np_pid" 2>/dev/null || true
fi

echo '== loc and doc ratchets (make loc total, DESIGN.md + EXPERIMENTS.md bytes)'
loc_ceiling=9403
loc=$(sh scripts/loc.sh | awk '$2 == "total" {print $1}')
if [ "$loc" -gt "$loc_ceiling" ]; then
    echo "make loc total $loc exceeds the ceiling $loc_ceiling set in scripts/check.sh" >&2
    exit 1
fi
echo "make loc total $loc <= $loc_ceiling"
doc_ceiling=245917
doc=$(cat DESIGN.md EXPERIMENTS.md | wc -c)
if [ "$doc" -gt "$doc_ceiling" ]; then
    echo "DESIGN.md + EXPERIMENTS.md are $doc bytes, over the doc_ceiling $doc_ceiling set in scripts/check.sh" >&2
    exit 1
fi
echo "DESIGN.md + EXPERIMENTS.md $doc bytes <= $doc_ceiling"

echo 'check.sh: all tiers passed'
