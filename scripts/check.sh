#!/bin/sh
# CI gate: build everything, vet everything, then run the full test suite
# under the race detector. The simulator runs real goroutines for workers,
# appliers and the coordinator, so -race gives the HTM/NIC/oplog paths a
# genuine concurrency workout rather than a formality.
set -eux

cd "$(dirname "$0")/.."

# internal/txn/sched.go builds only on go1.23 or newer (iter.Pull): an older
# toolchain skips the file and reports RunCoroutines undefined instead.
v=$(go env GOVERSION)
minor=${v#*go1.}
minor=${minor%%[!0-9]*}
if [ "${minor:-0}" -lt 23 ]; then
	echo "check.sh: $v is older than go1.23, which internal/txn/sched.go needs" >&2
	exit 1
fi

go build ./...
go vet ./...

# Every Go file is gofmt-clean (benchmark/ is frozen and not ours to format).
unformatted=$(gofmt -l . | grep -v '^benchmark/' || true)
test -z "$unformatted"

# The static protocol invariants (internal/lint) need no step of their own:
# TestAnalyzers, in the test run below, runs the analyzers over the whole
# module and both build-tag halves.

# Both halves of the //go:build race / !race pair must keep compiling: the
# !race half is covered by the plain build+vet above; this compiles (and
# standard-vets) the race-tagged configuration, so a tag typo can't silently
# drop a file from either half.
go vet -race ./...

go test -race ./...

# Allocation pins: each skips itself under -race, whose instrumentation
# allocates, so the run above never reaches them; this plain run does. They
# hold the hot path (aborts included), the coroutine hand-off, the runner,
# the wire codec and the B+-tree's splits to their pinned allocation counts.
go test -count=1 -run 'TestHotpathAllocFree|TestCoroutineHandoffAllocFree|TestRunnerAllocFree|TestDecodeAllocFree|TestFrameEncodeAllocFree|TestReadFrameReusesBuffer|TestBTreeSplitAllocs' ./internal/txn/ ./internal/sim/ ./internal/serve/wire/ ./internal/memstore/

# The benchmark (benchmark/, a module of its own, so ./... above skips it):
# its manifest and declaration tests and a smoke run of every workload with
# its correctness checks, ~5 s. A change under internal/ that breaks the
# benchmark's build or checks fails here.
(cd benchmark && go test ./...)

# Strict-serializability gate: a short torture sweep under -race (the full
# suite above already ran the full sweep; -short keeps this pass <30s), the
# mutation self-test (every deliberately broken protocol step must be
# caught), the §4.3 torn-record pins (a torn remote record is never read, a
# torn delta base never installed), the user-error validation of DrTM+R and
# Silo (a body's error on a stale read is retried).
go test -race -short -run 'TestTortureSweep|TestMutationSelfTest|TestStaleIncarnationScenario|TestTornRemoteReadNeverReturned|TestTornDeltaBaseAborts|TestZombieUserErrorValidated' -count=1 ./internal/check/ ./internal/txn/ ./internal/baseline/silo/

# Serve gate: the network front door end to end under -race — >=10k stored
# procedures over real TCP through admission control, then the sampled
# history must pass the strict-serializability checker, the bank must
# conserve money exactly, and the fleet accounting must close (every offered
# call lands in exactly one outcome bucket; Dropped == 0). With them the
# reader's frame buffer: a call split into one-byte segments, two calls in
# one segment, and corrupt prefixes — on a 1-CPU and a 2-CPU host schedule,
# which decide how the segments reach the reader. A reply too large for a
# frame is answered, not dropped, and a shed reaches the client as the
# *txn.Error the server built. Status snapshots taken while executors
# publish stay monotone, and after Close count every executed call. Plus a
# fuzz smoke of the wire frame codec (length-prefix framing + Call/Result
# roundtrip).
go test -race -cpu 1,2 -run 'TestServeGateEndToEnd|TestAdmissionShedsAtOverload|TestAdmissionDisabledQueuesEverything|TestFramesSplitAndCoalesced|TestOversizeReplyAnswered|TestShedReachesClientTyped|TestStatusEndpoints' -count=1 ./internal/serve/
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
# across goroutines (sim.Frontier, TestIdle*). With them the zombie bodies:
# a transfer commits on a second worker in the middle of a body, whose user
# error or panic must then be validated and retried, not answered.
go test -race -cpu 1,2 -run 'TestFrontier' -count=1 ./internal/sim/
go test -race -cpu 1,2 -run 'TestBackoff|TestAllBackedOff|TestIdle|TestGatedWaiters|TestGateTimeout|TestCoroutine|TestHotKeyQueueConservation|TestKeyGateFIFO|TestZombieUserErrorValidated|TestZombiePanicValidated' -count=1 ./internal/txn/
# The completion poll (Worker.poll): a due doorbell is served between two
# transactions and between two local reads of one, ahead of every other
# parked context; the context it preempts resumes next; a due backoff is not
# served; and with nothing due the poll changes nothing. A dispatch-order bug
# shows up under host interleavings, so three rounds on each schedule.
go test -race -cpu 1,2 -count=3 -run 'TestCompletionServedAtBoundary|TestCompletionServedMidTransaction|TestPreemptedResumesFirst|TestBackoffNotServedAtBoundary|TestPollNothingDue' ./internal/txn/
# The comparison systems under the schedule gate: DrTM, Calvin and Silo run
# on DrTM+R's worker, so a gated run of each repeats to the digit on a 1-CPU
# and a 2-CPU host schedule.
go test -count=3 -cpu 1,2 -run 'BaselinesReplay' ./internal/bench/harness/
# Value ownership: every value a transaction keeps or returns is carved from
# its own slab, never recycled. Sibling coroutines and workers run
# transactions while a value is held, so a slab shared between transactions
# shows up here as a changed value or as a race. Verb slots and READ buffers
# are recycled, from one attempt's doorbell to the next: a value read through
# the read-only carry path must keep its bytes while later attempts reuse the
# slot it came through. So is the Txn, with its sets, from one Run to the
# next: a value must keep its bytes while later Runs reuse the Txn it came
# from.
go test -race -count=5 -cpu 1,2 -run 'ReadValueOwnership|CarriedValueOwnership|RecycledTxnValueOwnership' ./internal/txn/

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
# R.1 posts each log ring's payload and header in one doorbell, so a backup's
# applier reads a ring while a single doorbell writes both back to back: the
# ring tests and the dead ring in the fused fan-out, on the same two host
# schedules (the budget's replicated shapes ran in the line above). With them
# the one two-sided call, Machine.Ship: its charges and concurrent shippers,
# the install rule for an insert whose key is present, a shipped insert whose
# C.5 flip never lands, and the inserts and deletes a commit ships, which a
# host's applier applies by the same rule beside it (under farm's log-first
# commit, before it).
go test -race -cpu 1,2 -run 'TestRing|TestMarkCommitted|TestTornAppendInvisible|TestApplyAllocFree|TestDeadRingInFusedFanOut|TestLogReplicationThroughMachines|TestRPCRoundtrip|TestRPCConcurrentCallers|TestInstallInsertOfPresentKey|TestUnflippedShippedInsertSettles' -count=1 ./internal/oplog/ ./internal/cluster/
go test -race -cpu 1,2 -run 'TestShippedMutationsReplicated|TestInsertOfPresentKeyInstallsNothing' -count=1 ./internal/txn/
go test -run '^$' -bench '^BenchmarkFig$/^proto$' -benchtime 1x .

# Smoke-run every benchmark once: the figure benchmarks drive the full
# harness (including the coroutine-overlap sweep), so this catches
# experiment-path regressions that unit tests miss.
go test -run '^$' -bench . -benchtime 1x ./...

# Non-test Go lines, total and per package: the design-diet number (ROADMAP).
./scripts/loc.sh
