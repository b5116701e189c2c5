package obs

import (
	"fmt"
	"sort"
	"strings"
)

// AbortMatrix dimensions. Fixed-size so recording is a single array index
// with no allocation; the sizes comfortably cover the txn package's enums
// (callers clamp into the last slot if they ever outgrow them).
const (
	NumReasons = 10 // txn.AbortReason values (incl. the serve-layer ServerBusy/Deadline)
	NumStages  = 12 // txn stage codes (exec + commit phases + fallback)
	NumSites   = 40 // cluster node ids
)

// AbortMatrix attributes aborts along three axes: WHY (protocol-level abort
// reason), WHERE in the transaction's lifecycle (execution or a specific
// commit phase), and WHO — which site's record triggered it. It is the only
// abort count: "1200 conflict aborts" is its reason marginal, and "1100
// C.1-lock conflicts on node 2", which is actionable, one of its cells.
type AbortMatrix struct {
	c [NumReasons][NumStages][NumSites]uint64
}

func clampIdx(i, n int) int {
	if i < 0 {
		return 0
	}
	if i >= n {
		return n - 1
	}
	return i
}

// Record counts one abort with the given reason, stage, and site.
func (m *AbortMatrix) Record(reason, stage uint8, site int) {
	m.c[clampIdx(int(reason), NumReasons)][clampIdx(int(stage), NumStages)][clampIdx(site, NumSites)]++
}

// Merge adds all of o's counts into m.
func (m *AbortMatrix) Merge(o *AbortMatrix) {
	for r := range m.c {
		for s := range m.c[r] {
			for n := range m.c[r][s] {
				m.c[r][s][n] += o.c[r][s][n]
			}
		}
	}
}

// Total returns the total abort count.
func (m *AbortMatrix) Total() uint64 {
	var t uint64
	for r := range m.c {
		for s := range m.c[r] {
			for n := range m.c[r][s] {
				t += m.c[r][s][n]
			}
		}
	}
	return t
}

// StageReasonTotal sums one reason×stage row across all sites. The
// contention manager's hot-key detector cross-checks candidate keys against
// it: a key only queues when its aborts come from a reason×stage cell that
// is a repeat offender, not from a one-off at a fresh site.
func (m *AbortMatrix) StageReasonTotal(reason, stage uint8) uint64 {
	var t uint64
	for _, v := range m.c[clampIdx(int(reason), NumReasons)][clampIdx(int(stage), NumStages)] {
		t += v
	}
	return t
}

// Cell is one non-zero matrix entry.
type Cell struct {
	Reason, Stage uint8
	Site          int
	Count         uint64
}

// Cells returns the non-zero entries, largest count first (ties broken by
// reason, stage, site for determinism).
func (m *AbortMatrix) Cells() []Cell {
	var out []Cell
	for r := range m.c {
		for s := range m.c[r] {
			for n, c := range m.c[r][s] {
				if c != 0 {
					out = append(out, Cell{uint8(r), uint8(s), n, c})
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Count != b.Count {
			return a.Count > b.Count
		}
		if a.Reason != b.Reason {
			return a.Reason < b.Reason
		}
		if a.Stage != b.Stage {
			return a.Stage < b.Stage
		}
		return a.Site < b.Site
	})
	return out
}

// Summary renders the top n cells as "reason@stage→site:count" joined with
// spaces, using the caller's enum namers. Empty string if no aborts.
func (m *AbortMatrix) Summary(n int, reasonName, stageName func(uint8) string) string {
	cells := m.Cells()
	if len(cells) == 0 {
		return ""
	}
	if n > 0 && len(cells) > n {
		cells = cells[:n]
	}
	parts := make([]string, len(cells))
	for i, c := range cells {
		parts[i] = fmt.Sprintf("%s@%s→n%d:%d", reasonName(c.Reason), stageName(c.Stage), c.Site, c.Count)
	}
	return strings.Join(parts, " ")
}
