# Build and verification entry points. `make check` is the gate every
# change must pass; it is exactly scripts/check.sh.

GO ?= go

.PHONY: build test lint race check fmt pair loc traffic

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The repository's own invariants (invariants_test.go): the determinism
# and doc rules per internal/ package, float equality in the analytic
# packages, and the metrics schema.
lint:
	$(GO) test -count=1 -run 'TestPackageInvariants|TestInternalPackagesClassified|TestInternalDocs|TestFloatEquality|TestMetricsSchema' .

# Race-detector pass over the packages that own or drive concurrency
# (rse/rect for the codecs the encode-ahead workers call, gf256 for
# the pair tables' compare-and-swap publish, loss for the populations
# mcrun's workers draw from; internal/core's placement and peak-heap
# tests run under -short too).
race:
	$(GO) test -race -short ./internal/udpcast/ ./internal/simnet/ ./internal/core/ ./internal/mcrun/ ./internal/pipeline/ ./internal/rse/ ./internal/rect/ ./internal/field/ ./internal/adapt/ ./internal/gf256/ ./internal/loss/

check:
	sh scripts/check.sh

# Paired parent/change runs of benchmark/ workloads (choosing-metrics §8):
# make pair PARENT=<git ref> WORKLOAD=clean_1k[,field_1e6,...]|all [PAIRS=10]
pair:
	bash scripts/pair.sh $(PARENT) $(WORKLOAD) $(PAIRS)

# Non-blank, non-comment lines of non-test Go and of assembly, per package
# and in total (benchmark/ excluded): the yardstick for "same behaviour,
# less code".
loc:
	sh scripts/loc.sh

# The internal/ functions no benchmark workload runs: a coverage build of
# ./benchmark, each workload once untraced (scripts/traffic.sh).
traffic:
	bash scripts/traffic.sh

fmt:
	gofmt -w .
