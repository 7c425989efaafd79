#!/usr/bin/env bash
# check.sh — the tier-2 quality gate: formatting, vet, the domain-aware
# mclint analyzer, the race-enabled test suite, and a short fuzz pass
# over the schedulability and generator invariants, the admission
# request decoder and the checkpoint journal reader. Everything here
# uses only the Go toolchain; there are no external dependencies.
#
# Usage: scripts/check.sh [fuzztime]
#   fuzztime  per-target fuzz budget (default 10s; "0s" skips fuzzing)

# The fuzz targets, one "<package> <target>" pair each: the fuzz step
# at the end of the gate and `make fuzz` both run exactly this list,
# and the "fuzz target list" step keeps it in step with the tree.
FUZZ_TARGETS=(
    "./internal/edfvd FuzzTheorem1Feasible"
    "./internal/edfvd FuzzDualAgreement"
    "./internal/taskgen FuzzGenerate"
    "./internal/mc FuzzTaskSetJSON"
    "./internal/fpamc FuzzBackendAgreement"
    "./internal/fpamc FuzzAMCProbeAgreement"
    "./internal/partition FuzzIncrementalAgreement"
    "./internal/partition FuzzBackendMetamorphic"
    "./internal/partition FuzzLeastLoadedPick"
    "./internal/serve FuzzAdmitDecode"
    "./internal/runner FuzzCheckpointLine"
)

# fuzz_all runs every listed target for the budget given as $1.
fuzz_all() {
    local pair pkg name
    for pair in "${FUZZ_TARGETS[@]}"; do
        read -r pkg name <<<"$pair"
        go test "$pkg" -run='^$' -fuzz="^${name}\$" -fuzztime="$1" || return 1
    done
}

# Sourced (as `make fuzz` does), the script stops here with the list
# and fuzz_all defined; executed, it runs the whole gate.
[[ "${BASH_SOURCE[0]}" == "$0" ]] || return 0

set -euo pipefail
cd "$(dirname "$0")/.."

FUZZTIME="${1:-10s}"

step() { printf '== %s\n' "$*"; }

step "gofmt"
unformatted=$(gofmt -l .)
if [[ -n "$unformatted" ]]; then
    echo "gofmt: the following files need formatting:" >&2
    echo "$unformatted" >&2
    exit 1
fi

step "go vet"
go vet ./...

step "go build"
go build ./...

step "mclint"
go run ./cmd/mclint ./...

# `go test -fuzz` with a pattern that names no target prints "no fuzz
# tests to fuzz" and exits 0, so a stale entry would pass silently.
# This step runs at every budget: each listed target and each -fuzz
# target of ci.yml must be a func <name>(f *testing.F) in its package,
# and each Fuzz func in the tree must be listed.
step "fuzz target list"
fuzz_func_missing() {
    ! grep -qE "^func $2\(f \*testing\.F\)" "$1"/*_test.go
}
fuzz_listed() {
    local pair
    for pair in "${FUZZ_TARGETS[@]}"; do
        [[ $pair == "$1" ]] && return 0
    done
    return 1
}
stale=0
for pair in "${FUZZ_TARGETS[@]}"; do
    read -r pkg name <<<"$pair"
    if fuzz_func_missing "$pkg" "$name"; then
        echo "fuzz target list: $pkg has no func $name(f *testing.F)" >&2
        stale=1
    fi
done
while read -r pkg name; do
    if fuzz_func_missing "$pkg" "$name"; then
        echo "fuzz target list: ci.yml fuzzes $name, but $pkg has no func $name(f *testing.F)" >&2
        stale=1
    fi
done < <(sed -e ':a' -e '/\\$/N; s/\\\n//; ta' .github/workflows/ci.yml |
    sed -nE 's/.*go test ([^ ]+) .*-fuzz=.\^([A-Za-z0-9_]+).*/\1 \2/p')
while IFS=: read -r file fn; do
    name=${fn#func }
    name=${name%%(*}
    if ! fuzz_listed "$(dirname "$file") $name"; then
        echo "fuzz target list: $file: $name is not listed in FUZZ_TARGETS" >&2
        stale=1
    fi
done < <(grep -rEo --include='*_test.go' --exclude-dir=testdata '^func Fuzz[A-Za-z0-9_]*\(f \*testing\.F\)' .)
[[ $stale == 0 ]] || exit 1

step "go test -race"
go test -race ./...

# The fault-tolerance suite runs in the full -race pass above; repeat
# it by name so a filtered or cached run can never skip the
# checkpoint/resume, quarantine and fault-injection proofs.
step "fault-tolerance suite (race)"
go test -race -count=1 -run 'FaultInject|Resume|Quarantine' ./internal/runner/... ./cmd/mcexp

# Same discipline for the observability proofs: the sim-oracle
# differential test (every analytical accept survives adversarial
# simulation), the metrics/CSV agreement suite and the end-to-end
# golden-file comparison must run by name on every gate.
step "oracle + metrics + golden suite"
go test -count=1 -run 'SimOracle|Metrics|Golden|ZeroAllocs' \
    ./internal/partition ./internal/experiments ./internal/runner ./cmd/mcexp

# The scenario layer by name: arrival-process and stream validation, the
# online sweep aggregation/determinism/quarantine proofs, the online
# sim-oracle churn differential, the scenario checkpoint identity
# (version-1 static journals resume byte-identically, protocol
# mismatches refuse), and the fixed-seed online CLI goldens.
step "scenario-golden"
go test -count=1 \
    -run 'Poisson|Stream|Online|Scenario|Timeline|Version1Static' \
    ./internal/taskgen ./internal/experiments ./internal/sim \
    ./internal/runner ./internal/partition ./cmd/mcexp

# The admission daemon's chaos suite by name and under the race
# detector: panic quarantine at every injection point, slow-backend
# partial verdicts, stalls past the grace window, the concurrent
# mixed-fault storm, and verdict-cache hits and puts. The daemon must keep serving correct verdicts
# while faults fire; any wedge, lost verdict or race fails the gate.
step "serve-chaos suite (race)"
go test -race -count=1 -run 'Chaos|GracefulDrain|QueueFullSheds|DegradedMode|VerdictCache|CacheEviction' \
    ./internal/serve/...

# The static-analysis suite by name: the pass fixtures (seeded
# violations caught on exact lines), the self-hosting real-tree-clean
# gate, the mclint CLI's exit codes and -list output, the runtime twin of the //mc:allocfree annotations, and the
# seed corpora of the AMC-rtb fuzz targets (every probe and every
# heuristic's cores against the closure-based Schedulable oracle). The
# `mclint` step above already fails on real findings; this one fails
# when the analyzer itself regresses.
step "mclint suite + alloc-free proof"
go test -count=1 ./internal/lint ./cmd/mclint
go test -count=1 -run 'HotPathAllocFree|SessionAllocFree|FuzzAMCProbeAgreement|FuzzBackendAgreement' ./internal/partition ./internal/fpamc

# The incremental-vs-batch differential wall by name: the deterministic
# agreement sweep (delta commits vs Reanalyze-forced recompute, both
# backends, all schemes, batch and churn), the session-replays-batch
# proof, the hand-computed delta fixtures, and the per-core metamorphic
# properties of both backends (FuzzBackendMetamorphic's seed corpus and
# its deterministic sweep).
step "incremental differential wall"
go test -count=1 -run 'IncrementalAgreement|SessionMatchesBatch|Delta|WarmStart|BackendMetamorphic' \
    ./internal/partition ./internal/edfvd ./internal/fpamc

# Coverage ratchet: the line coverage of the internal packages must not
# drop below the floor recorded when the gate was introduced. Raise the
# floor when coverage durably improves; never lower it.
step "coverage ratchet (internal/...)"
COVER_FLOOR=92.7
profile=$(mktemp)
trap 'rm -f "$profile"' EXIT
go test -count=1 -coverprofile="$profile" ./internal/... >/dev/null
total=$(go tool cover -func="$profile" | awk '/^total:/ {sub(/%/, "", $3); print $3}')
echo "total internal/... coverage: ${total}% (floor ${COVER_FLOOR}%)"
awk -v t="$total" -v f="$COVER_FLOOR" 'BEGIN { exit (t+0 >= f+0) ? 0 : 1 }' || {
    echo "coverage ratchet: ${total}% is below the ${COVER_FLOOR}% floor" >&2
    exit 1
}

if [[ "$FUZZTIME" != "0s" && "$FUZZTIME" != "0" ]]; then
    step "fuzz (${FUZZTIME} per target)"
    fuzz_all "$FUZZTIME"
fi

step "OK"
