GO      ?= go
FUZZTIME ?= 10s

.PHONY: build test race lint fuzz check fmt bench

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

lint:
	$(GO) vet ./...
	$(GO) run ./cmd/mclint ./...

# fuzz runs the fuzz target list of scripts/check.sh.
fuzz:
	bash -c '. scripts/check.sh && fuzz_all $(FUZZTIME)'

fmt:
	gofmt -w .

# bench runs the repo benchmark (BENCHMARK.json) on its main workload,
# the paper's Fig. 1 sweep, with a fixed seed and no tracing.
bench:
	bash mcbench/run.sh --workload sweep-fig1 --seed 1 --seconds 25 --trace 0

# check is the full tier-2 gate: fmt/vet/mclint/race tests/short fuzz.
check:
	scripts/check.sh $(FUZZTIME)
