# Build and verification entry points. `make check` is the gate every
# change must pass; it is exactly scripts/check.sh.

GO ?= go

.PHONY: build test lint race check fmt pair loc

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Project-specific static analysis (see internal/lint and `rmlint -rules`).
lint:
	$(GO) run ./cmd/rmlint ./...

# Race-detector pass over the packages that own or drive concurrency
# (rse/rse16 join for the sharded parallel encode, gf256 for the pair
# tables' compare-and-swap publish, loss for its shared skip tables;
# internal/core's placement and peak-heap tests run under -short too).
race:
	$(GO) test -race -short ./internal/udpcast/ ./internal/simnet/ ./internal/core/ ./internal/mcrun/ ./internal/pipeline/ ./internal/rse/ ./internal/rse16/ ./internal/rect/ ./internal/field/ ./internal/adapt/ ./internal/gf256/ ./internal/loss/

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

fmt:
	gofmt -w .
