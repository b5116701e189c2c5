package lint_test

import (
	"testing"

	"drtmr/internal/lint"
	"drtmr/internal/lint/analysistest"
)

// Each fixture demonstrates at least one true-positive diagnostic, one
// finding suppressed by a reasoned //drtmr:allow, and one reason-less
// directive that is itself rejected (the `// want "missing the required
// reason"` lines).

func TestHTMRegion(t *testing.T) {
	analysistest.Run(t, "testdata", lint.HTMRegion, "htmregion")
}

func TestVirtualTime(t *testing.T) {
	analysistest.Run(t, "testdata", lint.VirtualTime, "virtualtime")
}

func TestAbortAttr(t *testing.T) {
	analysistest.Run(t, "testdata", lint.AbortAttr, "abortattr")
}

func TestLockOrder(t *testing.T) {
	analysistest.Run(t, "testdata", lint.LockOrder, "lockorder")
}

func TestEnumSwitch(t *testing.T) {
	analysistest.Run(t, "testdata", lint.EnumSwitch, "enumswitch")
}

// TestPackageFilters pins the analyzer scoping, which comes in four widths:
// the commit-pipeline check (htmregion) covers internal/txn AND any protocol
// package nested under it; abort attribution additionally covers the serve
// tree, which mints and reconstructs typed aborts at the network boundary;
// determinism (virtualtime) covers every protocol package including serve;
// lockorder and enumswitch cover the protocol packages plus the obs tree.
// Nothing fires on the harness-external packages (cmd, examples, lint).
func TestPackageFilters(t *testing.T) {
	cases := []struct {
		path        string
		txnOnly     bool
		abortAttr   bool
		virtualTime bool
		summary     bool
	}{
		{"drtmr/internal/txn", true, true, true, true},
		{"drtmr/internal/txn/farmproto", true, true, true, true},
		{"drtmr/internal/txnhelpers", false, false, false, false},
		{"drtmr/internal/rdma", false, false, true, true},
		{"drtmr/internal/bench/harness", false, false, true, true},
		{"drtmr/internal/bench/serveload", false, false, true, true},
		{"drtmr/internal/serve", false, true, true, true},
		{"drtmr/internal/serve/client", false, true, true, true},
		{"drtmr/internal/servehelpers", false, false, false, false},
		{"drtmr/internal/obs", false, false, false, true},
		{"drtmr/internal/obs/trace", false, false, false, true},
		{"drtmr/internal/obstacles", false, false, false, false},
		{"drtmr/internal/lint", false, false, false, false},
		{"drtmr/cmd/drtmr-serve", false, false, false, false},
		{"drtmr/cmd/drtmr-bench", false, false, false, false},
	}
	for _, c := range cases {
		for _, a := range lint.Analyzers {
			if a.PackageFilter == nil {
				t.Errorf("%s: nil PackageFilter", a.Name)
				continue
			}
			got := a.PackageFilter(c.path)
			var want bool
			switch a.Name {
			case "virtualtime":
				want = c.virtualTime
			case "abortattr":
				want = c.abortAttr
			case "lockorder", "enumswitch":
				want = c.summary
			default:
				want = c.txnOnly
			}
			if got != want {
				t.Errorf("%s.PackageFilter(%q) = %v, want %v", a.Name, c.path, got, want)
			}
		}
	}
}
