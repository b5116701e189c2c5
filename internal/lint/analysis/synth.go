// Synthesized summaries for standard-library callees, which are not walked:
// only runtime.Gosched parks the coroutine (channel operations and select are
// seen in the caller's own body), and only the I/O packages do wire I/O —
// with fmt and encoding/binary, whose pure string formatters and fixed-width
// codecs are told apart by name.
package analysis

import (
	"go/types"
	"strings"
)

// wireIOPackages do network or file I/O throughout their API.
var wireIOPackages = map[string]bool{
	"net": true, "io": true, "bufio": true, "os": true,
	"net/http": true, "io/ioutil": true, "crypto/tls": true,
}

// synthesize builds the summary of a function outside this repository. The
// walker memoizes it into PkgFacts.
func synthesize(f *types.Func) *FuncSummary {
	sum := &FuncSummary{Name: FuncKey(f)}
	pkg, name := f.Pkg().Path(), f.Name()
	switch {
	case pkg == "runtime" && name == "Gosched":
		sum.YieldVia = ShortName(sum.Name)
	case wireIOPackages[pkg],
		pkg == "fmt" && !hasPrefix(name, "Sprint", "Errorf", "Append"),
		pkg == "encoding/binary" && !hasPrefix(name, "PutUint", "Uint", "AppendUint"):
		sum.WireVia = ShortName(sum.Name)
	}
	return sum
}

func hasPrefix(s string, prefixes ...string) bool {
	for _, p := range prefixes {
		if strings.HasPrefix(s, p) {
			return true
		}
	}
	return false
}
