package serve

import (
	"encoding/json"
	"net"
	"net/http"

	"drtmr/internal/txn"
)

// Status is one point-in-time snapshot of a running server, shipped as JSON
// over the wire (KindStatus) and over plain HTTP (/statusz). Every quantity
// comes from the live aggregates (liveStats, the admission controller's
// atomics), so taking it perturbs neither the commit pipeline nor the
// admission queue.
type Status struct {
	UptimeSeconds float64 `json:"uptime_seconds"`
	Workers       int     `json:"workers"`

	// Engine-side totals, published by workers every statsPublishEvery
	// requests, so they can trail the wire counters slightly: every scalar
	// counter txn.Stats declares (executors run one transaction at a time,
	// so the coroutine counters read 0 and backoff_stall_ns equals
	// backoff_ns; see txn.Worker.Backoff), plus the abort total.
	txn.Counters
	Aborts uint64 `json:"aborts"`

	Admission AdmissionStatus `json:"admission"`
	Procs     []ProcStatus    `json:"procs"`
	AbortTop  []AbortCell     `json:"abort_top"`
	HotKeys   []HotKey        `json:"hot_keys"`
}

// AdmissionStatus is the admission controller's counters.
type AdmissionStatus struct {
	Disabled      bool   `json:"disabled"`
	QueueDepth    int64  `json:"queue_depth"`
	Watermark     int64  `json:"watermark"`
	SvcEWMANanos  int64  `json:"svc_ewma_ns"`
	Admitted      uint64 `json:"admitted"`
	ShedBusy      uint64 `json:"shed_busy"`
	ShedHopeless  uint64 `json:"shed_hopeless"`
	ExpiredQueued uint64 `json:"expired_queued"`
}

// ProcStatus is one procedure's wall-latency summary.
type ProcStatus struct {
	Name     string  `json:"name"`
	Protocol string  `json:"protocol"`
	Count    uint64  `json:"count"`
	MeanUs   float64 `json:"mean_us"`
	P50Us    float64 `json:"p50_us"`
	P99Us    float64 `json:"p99_us"`
}

// AbortCell is one reason×stage×site cell of the live abort matrix (stage
// "C.3+4-htm" includes the local check drtmr runs before C.1).
type AbortCell struct {
	Reason string `json:"reason"`
	Stage  string `json:"stage"`
	Site   int    `json:"site"`
	Count  uint64 `json:"count"`
}

// HotKey is one entry of the hot-key top-K.
type HotKey struct {
	Table  int    `json:"table"`
	Key    uint64 `json:"key"`
	Aborts uint64 `json:"aborts"`
}

// statusTopK bounds the abort-cell and hot-key lists in a snapshot.
const statusTopK = 10

// Snapshot assembles a Status from the live aggregates. Successive
// snapshots are monotone in every counter.
func (s *Server) Snapshot() Status {
	agg := s.live.merged()
	st := Status{
		UptimeSeconds: since(s.start).Seconds(),
		Workers:       s.Workers(),
		Counters:      agg.Counters,
		Aborts:        agg.AbortsTotal(),
		Admission: AdmissionStatus{
			Disabled:      s.adm.disabled,
			QueueDepth:    s.adm.depth.Load(),
			Watermark:     s.adm.maxQueue,
			SvcEWMANanos:  s.adm.svcEWMA.Load(),
			Admitted:      s.adm.admitted.Load(),
			ShedBusy:      s.adm.shedBusy.Load(),
			ShedHopeless:  s.adm.shedHopeless.Load(),
			ExpiredQueued: s.adm.expired.Load(),
		},
	}
	hist := s.live.hist.Snapshot()
	s.reg.mu.RLock()
	for i, e := range s.reg.order {
		h := &hist.H[i]
		st.Procs = append(st.Procs, ProcStatus{
			Name:     e.Name,
			Protocol: e.Protocol,
			Count:    h.Count(),
			MeanUs:   h.Mean() / 1e3,
			P50Us:    h.Quantile(0.50) / 1e3,
			P99Us:    h.Quantile(0.99) / 1e3,
		})
	}
	s.reg.mu.RUnlock()

	cells := agg.AbortMatrix.Cells()
	if len(cells) > statusTopK {
		cells = cells[:statusTopK]
	}
	for _, c := range cells {
		st.AbortTop = append(st.AbortTop, AbortCell{
			Reason: txn.AbortReason(c.Reason).String(),
			Stage:  txn.StageName(c.Stage),
			Site:   c.Site,
			Count:  c.Count,
		})
	}

	ranked := agg.HotKeys()
	if len(ranked) > statusTopK {
		ranked = ranked[:statusTopK]
	}
	st.HotKeys = make([]HotKey, len(ranked))
	for i, hk := range ranked {
		st.HotKeys[i] = HotKey{Table: int(hk.Key.Table), Key: hk.Key.Key, Aborts: hk.Aborts}
	}
	return st
}

// statusJSON marshals a Snapshot (the KindStatus reply body).
func (s *Server) statusJSON() []byte {
	b, err := json.Marshal(s.Snapshot())
	if err != nil {
		// Status has no unmarshalable fields; this is unreachable, but a
		// status endpoint must never take the server down.
		return []byte(`{"error":"snapshot marshal failed"}`)
	}
	return b
}

// StartHTTP serves GET /statusz (the same JSON as the wire status) on addr.
// Returns the bound address; the HTTP server and its connections close with
// the server.
func (s *Server) StartHTTP(addr string) (net.Addr, error) {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/statusz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Write(s.statusJSON())
	})
	srv := &http.Server{Handler: mux}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		srv.Serve(lis)
	}()
	s.httpMu.Lock()
	s.httpSrv = append(s.httpSrv, srv)
	s.httpMu.Unlock()
	return lis.Addr(), nil
}
