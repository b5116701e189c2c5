GO ?= go

.PHONY: all help build test vet lint race stress check loc bench bench-smoke trace torture serve

all: check

help:
	@echo "Targets:"
	@echo "  build        go build ./..."
	@echo "  vet          go vet ./... (after build)"
	@echo "  lint         TestAnalyzers alone (internal/lint; part of test): the"
	@echo "               analyzers over the whole module, both build-tag halves:"
	@echo "               htmregion, virtualtime, abortattr, lockorder,"
	@echo "               enumswitch; any finding fails; fix it or suppress it"
	@echo "               with '//drtmr:allow <analyzer> <reason>'"
	@echo "  test         full test suite"
	@echo "  race         full test suite under -race"
	@echo "  stress       htm, memstore, oplog, rdma, cluster, txn, baseline, check, serve,"
	@echo "               harness, obs, sim and root-package suites"
	@echo "               20 times each on 1 and 2 CPUs (-count=20 -cpu 1,2): catches"
	@echo "               tests that pass only when goroutines happen (not) to overlap"
	@echo "               on the host, and the HTM line registry's entry reuse"
	@echo "  check        CI gate: build + vet + lint + race + smoke benchmarks"
	@echo "  loc          non-test Go lines, total then per package: the number"
	@echo "               ROADMAP's design-diet item tracks and every PR quotes"
	@echo "               before and after"
	@echo "  bench        all benchmarks (smoke scale)"
	@echo "  bench-smoke  every benchmark once + emit/validate a trace JSON"
	@echo "  trace        traced SmallBank run -> trace.json (Perfetto/Chrome)"
	@echo "  torture      strict-serializability torture sweep + mutation"
	@echo "               self-test (internal/check; SEED=n to vary, a"
	@echo "               violating cell prints its deterministic replay seed)"
	@echo "  serve        run the drtmr-serve network front door on :7707"
	@echo "               (/statusz on :7708; ADDR=/HTTP= to override)"
	@echo ""
	@echo "Knobs:"
	@echo "  Engine tunables are the fields of txn.Knobs (internal/txn/engine.go),"
	@echo "    documented there; txn.Engine and the harness Options embed it, so"
	@echo "    each is set under one name. Figures that sweep one:"
	@echo "    drtmr-bench -fig proto (Protocol; also -protocol on -trace runs),"
	@echo "    -fig coro (CoroutinesPerWorker), -fig tail (ContentionMode);"
	@echo "    the same as benchmarks: go test -bench 'BenchmarkFig/proto' ."
	@echo "    Conformance battery: TestProtocolConformance* (internal/txn)."
	@echo "  Observability (internal/obs, see DESIGN.md):"
	@echo "    drtmr-bench -trace out.json       per-worker event trace (open at"
	@echo "                                      https://ui.perfetto.dev)"
	@echo "    drtmr-bench -fig lat              latency-percentile CDF table"
	@echo "    drtmr-bench -fig 20 -trace r.json Fig 20's run traced, failure"
	@echo "                                      milestones on the workers' timeline"
	@echo "    Worker.EnableTrace / Options.Trace enable recording in code."
	@echo "  Serve mode (internal/serve, cmd/drtmr-serve, see DESIGN.md):"
	@echo "    drtmr-serve -addr :7707 -http :7708   TCP front door + /statusz"
	@echo "    drtmr-serve -fleet N -rate R -skew z  open-loop load fleet"
	@echo "    -admission off                        unbounded-queue ablation"
	@echo "    -watermark N                          queue-depth shed point"
	@echo "    -payment-protocol farm                per-procedure commit protocol"
	@echo "    drtmr-bench -fig serve                overload sweep, on vs off"

build:
	$(GO) build ./...

vet: build
	$(GO) vet ./...

# lint runs only the tier-1 test that runs the protocol-invariant analyzers
# over the whole module, both race/!race build-tag halves.
lint:
	$(GO) test -count=1 -run '^TestAnalyzers$$' ./internal/lint/

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# stress repeats the suites whose outcomes depend on how goroutines interleave
# on the host, on both a 1-CPU and a 2-CPU schedule, so a host-dependent test
# fails here before it fails on someone's small machine. htm, memstore and
# oplog are here because the line registry reuses its entries, and whether a
# reused entry meets a stale reader depends on the interleaving; cluster and
# the root package because their kills race detector goroutines; baseline
# because DrTM's concurrent tests lock through txn's lock stage too; obs
# and sim because their tick source and frontier are shared by goroutines.
stress:
	$(GO) test -count=20 -cpu 1,2 ./internal/htm/ ./internal/memstore/ ./internal/oplog/ ./internal/rdma/ ./internal/cluster/ ./internal/txn/ ./internal/baseline/... ./internal/check/ ./internal/serve/ ./internal/bench/harness/ ./internal/obs/ ./internal/sim/ .

# check is the CI gate: build, vet, the full suite under the race detector
# (the simulator runs real goroutines per worker/applier, so -race exercises
# the HTM engine and NIC paths hard), then a 1x pass over every benchmark.
check:
	./scripts/check.sh

# loc prints the non-test line count (scripts/loc.sh says what it leaves out).
loc:
	@./scripts/loc.sh

bench:
	$(GO) test -run '^$$' -bench . -benchmem ./...

# bench-smoke additionally emits a smoke-scale trace and validates it (the
# -trace path re-reads the written file and checks well-formed JSON, known
# event phases and per-track monotone timestamps before reporting success).
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...
	$(GO) test -run 'TestProtocolConformance' -count=1 ./internal/txn/
	$(GO) run ./cmd/drtmr-bench -smoke -fig proto
	$(GO) run ./cmd/drtmr-bench -smoke -trace smoke-trace.json
	@rm -f smoke-trace.json

trace:
	$(GO) run ./cmd/drtmr-bench -trace trace.json

# torture: full knob-matrix strict-serializability sweep (with kill cells)
# plus the checker self-test against deliberately broken protocol steps.
SEED ?= 3
torture:
	$(GO) run ./cmd/drtmr-bench -torture -seed $(SEED)
	$(GO) run ./cmd/drtmr-bench -torture -mutate -seed $(SEED)

# serve runs the network front door until interrupted: stored procedures
# over the wire protocol on ADDR, live status JSON at http://HTTP/statusz.
ADDR ?= 127.0.0.1:7707
HTTP ?= 127.0.0.1:7708
serve:
	$(GO) run ./cmd/drtmr-serve -addr $(ADDR) -http $(HTTP)
