package lint

import (
	"go/ast"

	"drtmr/internal/lint/analysis"
)

// VirtualTime forbids wall-clock and ambient-nondeterminism sources inside
// the protocol packages (internal/{txn,htm,rdma,cluster,sim,check,bench}).
// All protocol time flows through sim.Clock and all randomness through
// sim.Rand, so that a torture-harness seed replays bit-identically: one
// stray time.Now() in a decision path (or one draw from math/rand's global,
// self-seeded source) silently breaks the oracle's determinism guarantee.
// Deliberate wall-clock use — the front door's deadlines, the host-time
// backstops on RPCs and message queues, the spin primitive itself — carries
// a //drtmr:allow virtualtime annotation explaining why it is outside the
// replayed state.
//
// _test.go files are exempt: test timeouts and benchmarks legitimately
// watch the wall clock, and tests are not part of the replayed protocol.
var VirtualTime = &analysis.Analyzer{
	Name:          "virtualtime",
	Doc:           "forbid wall-clock and global-randomness sources in protocol packages (seeded-replay bit-determinism)",
	PackageFilter: inProtocolPackages,
	Run:           runVirtualTime,
}

// timeFuncs are package time functions that read or wait on the wall clock.
var timeFuncs = map[string]bool{
	"Now":       true,
	"Since":     true,
	"Until":     true,
	"Sleep":     true,
	"After":     true,
	"AfterFunc": true,
	"Tick":      true,
	"NewTimer":  true,
	"NewTicker": true,
}

// globalRandFuncs are math/rand (and v2) package-level draws from the
// process-global, self-seeded source. Methods on an explicitly seeded
// *rand.Rand are fine — but protocol code should use sim.Rand anyway.
var globalRandFuncs = map[string]bool{
	"Int": true, "Intn": true, "Int31": true, "Int31n": true,
	"Int63": true, "Int63n": true, "Int64": true, "Int64N": true,
	"Uint32": true, "Uint64": true, "Uint64N": true, "UintN": true,
	"Float32": true, "Float64": true, "ExpFloat64": true, "NormFloat64": true,
	"Perm": true, "Shuffle": true, "Seed": true, "Read": true, "N": true,
}

func runVirtualTime(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		if isTestFile(pass, f) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			path, name := pkgLevelCallee(pass.TypesInfo, call)
			switch {
			case path == "time" && timeFuncs[name]:
				pass.Reportf(call.Pos(), "time.%s reads the wall clock in a protocol package: virtual time must come from sim.Clock or the result is not replayable", name)
			case (path == "math/rand" || path == "math/rand/v2") && globalRandFuncs[name]:
				pass.Reportf(call.Pos(), "%s.%s draws from the global self-seeded source: protocol randomness must come from sim.Rand or seeded replay breaks", path, name)
			case path == "crypto/rand":
				pass.Reportf(call.Pos(), "crypto/rand is nondeterministic by design: protocol randomness must come from sim.Rand")
			}
			return true
		})
	}
	return nil
}
