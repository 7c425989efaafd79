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

# fuzz runs the same targets as the fuzz step of scripts/check.sh.
fuzz:
	$(GO) test ./internal/edfvd -run='^$$' -fuzz='^FuzzTheorem1Feasible$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/edfvd -run='^$$' -fuzz='^FuzzDualAgreement$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/taskgen -run='^$$' -fuzz='^FuzzGenerate$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/taskgen -run='^$$' -fuzz='^FuzzCDFSource$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/fpamc -run='^$$' -fuzz='^FuzzBackendAgreement$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/fpamc -run='^$$' -fuzz='^FuzzAMCProbeAgreement$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/partition -run='^$$' -fuzz='^FuzzIncrementalAgreement$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/partition -run='^$$' -fuzz='^FuzzBackendMetamorphic$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/serve -run='^$$' -fuzz='^FuzzAdmitDecode$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/runner -run='^$$' -fuzz='^FuzzCheckpointLine$$' -fuzztime=$(FUZZTIME)

fmt:
	gofmt -w .

# bench runs the repo benchmark (BENCHMARK.json) on its main workload,
# the paper's Fig. 1 sweep, with a fixed seed and no tracing.
bench:
	bash mcbench/run.sh --workload sweep-fig1 --seed 1 --seconds 25 --trace 0

# check is the full tier-2 gate: fmt/vet/mclint/race tests/short fuzz.
check:
	scripts/check.sh $(FUZZTIME)
