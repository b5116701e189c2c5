#!/bin/sh
# CI gate: build everything, vet everything, then run the full test suite
# under the race detector. The simulator runs real goroutines for workers,
# appliers and the coordinator, so -race gives the HTM/NIC/oplog paths a
# genuine concurrency workout rather than a formality.
set -eux

cd "$(dirname "$0")/.."

go build ./...
go vet ./...

# Every Go file is gofmt-clean (benchmark/ is frozen and not ours to format).
unformatted=$(gofmt -l . | grep -v '^benchmark/' || true)
test -z "$unformatted"

# Static protocol invariants: the drtmr-vet analyzer suite (internal/lint)
# enforces the runtime invariants no tier-1 test would notice breaking — no
# blocking/yield inside HTM regions, no wall clock or global rand in protocol
# packages, fully attributed txn.Error literals, lock-order/hold-across-yield
# and hold-across-wire-I/O discipline, and exhaustive protocol-enum switches.
# The suite runs as a go vet tool over BOTH build-tag halves and any finding
# fails the gate: fix it, or suppress it with a reasoned //drtmr:allow.
go build -o bin/drtmr-vet ./cmd/drtmr-vet
go vet -vettool="$PWD/bin/drtmr-vet" ./...
go vet -vettool="$PWD/bin/drtmr-vet" -tags race ./...

# Both halves of the //go:build race / !race pair must keep compiling: the
# !race half is covered by the plain build+vet above; this compiles (and
# standard-vets) the race-tagged configuration, so a tag typo can't silently
# drop a file from either half.
go vet -race ./...

go test -race ./...

# Strict-serializability gate: a short torture sweep under -race (the full
# suite above already ran the full sweep; -short keeps this pass <30s), the
# mutation self-test (every deliberately broken protocol step must be
# caught), and a fuzz smoke of the redo-record codec.
go test -race -short -run 'TestTortureSweep|TestMutationSelfTest|TestStaleIncarnationScenario' -count=1 ./internal/check/
go test -run '^$' -fuzz FuzzRedoRoundtrip -fuzztime 5s ./internal/cluster/

# Serve gate: the network front door end to end under -race — >=10k stored
# procedures over real TCP through admission control, then the sampled
# history must pass the strict-serializability checker, the bank must
# conserve money exactly, and the fleet accounting must close (every offered
# call lands in exactly one outcome bucket; Dropped == 0). Plus a fuzz smoke
# of the wire frame codec (length-prefix framing + Call/Result roundtrip).
go test -race -run 'TestServeGateEndToEnd|TestAdmissionShedsAtOverload|TestAdmissionDisabledQueuesEverything' -count=1 ./internal/serve/
go test -run '^$' -fuzz FuzzFrameRoundtrip -fuzztime 5s ./internal/serve/wire/

# Trace-overhead gate: the observability layer must not move virtual time.
# TestTraceOverheadBudget (in the race run above) asserts enabled==disabled
# and <3% drift vs its baselineCoro4Nanos; this prints the numbers at the
# baseline's iteration count for the log.
go test ./internal/txn/ -run '^$' -bench BenchmarkTraceOverhead -benchtime 200x

# Contention-manager gate: the tail sweep runs both ContentionMode settings
# through the hot-key queue and commutative-delta commit paths (named
# explicitly so a benchmark-filter change can't silently drop it; the
# catch-all pass below also includes it).
go test -run '^$' -bench '^BenchmarkFig$/^tail$' -benchtime 1x .

# Scheduler and gate gate: the wake-ordered coroutine dispatcher (timed and
# gated parks, the idle jump, the sleeping-holder livelock guard, the gate
# timeout) and the hot-key gates, on a 1-CPU and a 2-CPU host schedule — the
# dispatcher polls gates whose holder may be another worker's goroutine, so
# how goroutines overlap on the host is exactly what must not matter. With
# them the conservative idle jump: workers sleeping on and waking each other
# across goroutines (sim.Frontier, TestIdle*).
go test -race -cpu 1,2 -run 'TestFrontier' -count=1 ./internal/sim/
go test -race -cpu 1,2 -run 'TestBackoff|TestAllBackedOff|TestIdle|TestGatedWaiters|TestGateTimeout|TestCoroutine|TestHotKeyQueueConservation|TestKeyGateFIFO' -count=1 ./internal/txn/

# Commit-protocol gate: the conformance suite runs the shared correctness
# battery (bank invariant, uncommittable-read block, dangling-lock release,
# coroutine atomicity, lock back-out) over EVERY CommitProtocol,
# and the protocol-matrix figure drives both pipelines head-to-head — it
# fails on any nonzero read-only-participant wakeup count. The battery
# includes the forced-fallback cell (TestProtocolConformanceForcedFallback:
# every commit through the §6.1 handler), and TestCommitVirtualNsPinned holds
# every pipeline's virtual ns and per-phase verb counts to the exact values
# recorded before the pipelines were merged into one stage library.
go test -race -run 'TestProtocolConformance|TestProtocolLockBackoutReleasesAll|TestProtocolROVerbAccounting|TestProtocolRegistry|TestCommitVirtualNsPinned' -count=1 ./internal/txn/
# The two-doorbell commit rests on one QP executing in post order: the
# contract itself (rdma), the header behind a lost lock CAS that must never
# validate, and the doorbell budget of every protocol — on a 1-CPU and a
# 2-CPU host schedule, since the contract test races a reader against the
# write-back+unlock batch.
go test -race -cpu 1,2 -run 'TestBatchPerQPOrder' -count=1 ./internal/rdma/
go test -race -cpu 1,2 -run 'TestLockRetryDropsHeaderBehindLostCAS|TestProtocolConformanceDoorbellBudget' -count=1 ./internal/txn/
go test -run '^$' -bench '^BenchmarkFig$/^proto$' -benchtime 1x .

# Smoke-run every benchmark once: the figure benchmarks drive the full
# harness (including the coroutine-overlap sweep), so this catches
# experiment-path regressions that unit tests miss.
go test -run '^$' -bench . -benchtime 1x ./...

# Non-test Go lines, total and per package: the design-diet number (ROADMAP).
./scripts/loc.sh
