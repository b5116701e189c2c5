package harness

import (
	"bytes"
	"testing"
	"time"

	"drtmr/internal/obs"
	"drtmr/internal/rdma"
)

// TestFig20Recovery pins Fig 20 at smoke scale: a machine of a replicated
// TPC-C cluster is killed at a virtual instant; the survivors suspect it
// once the lease has run out on the cluster's clock, commit a configuration
// without it, finish recovery, and regain throughput with the victim's
// budget running on the promoted primary. The milestones share the worker
// spans' timeline in the exported trace.
func TestFig20Recovery(t *testing.T) {
	// The cluster's defaults, which Fig 20 runs at: the paper's lease and
	// the detector period.
	const lease, every = 10 * time.Millisecond, 2 * time.Millisecond
	o := RecoveryOptions(Smoke)
	o.Trace, o.TraceEventsPerWorker = true, 1024 // the ring keeps the tail
	r := Run(o)
	var tbl bytes.Buffer
	RecoveryTable(r).Fprint(&tbl)
	t.Logf("\n%s", &tbl)
	rc := r.Recovery
	if rc == nil {
		t.Fatal("a kill run reported no recovery")
	}
	order := []uint8{obs.MilestoneKilled, obs.MilestoneSuspect, obs.MilestoneConfigCommit, obs.MilestoneRecoveryDone}
	var at [4]int64
	for i, kind := range order {
		var ok bool
		if at[i], ok = rc.At(kind); !ok {
			t.Fatalf("no %s milestone: %+v", obs.MilestoneName(kind), rc.Milestones)
		}
		if i > 0 && at[i] < at[i-1] {
			t.Errorf("%s at %d precedes %s at %d", obs.MilestoneName(kind), at[i], obs.MilestoneName(order[i-1]), at[i-1])
		}
	}
	if at[0] != int64(o.KillAt) {
		t.Errorf("killed at %d, want the KillAt instant %d", at[0], o.KillAt)
	}
	if d := time.Duration(at[1] - at[0]); d < lease-every/2 || d > lease+2*every {
		t.Errorf("suspected %v after the kill, want within [%v, %v]", d, lease-every/2, lease+2*every)
	}
	for _, ms := range rc.Milestones {
		if ms.Node != rdma.NodeID(o.KillNode) {
			t.Errorf("milestone %s names live machine %d", obs.MilestoneName(ms.Kind), ms.Node)
		}
	}
	regained := rc.PostTPS / rc.PreTPS * 100
	t.Logf("regained %.0f%% of pre-kill throughput (%.0f -> %.0f txns/s)", regained, rc.PreTPS, rc.PostTPS)
	if regained < 20 {
		t.Errorf("throughput regained only %.0f%% of pre-failure", regained)
	}

	var buf bytes.Buffer
	if err := obs.WriteTrace(&buf, r.Trace, TraceNames()); err != nil {
		t.Fatalf("trace export: %v", err)
	}
	cats, err := obs.ValidateTrace(buf.Bytes())
	if err != nil {
		t.Fatalf("invalid recovery trace: %v", err)
	}
	if cats["milestone"] != len(order) || cats["txn"] == 0 {
		t.Errorf("trace has %d milestone and %d txn events, want %d and some", cats["milestone"], cats["txn"], len(order))
	}
}
