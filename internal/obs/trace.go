package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
)

// Chrome trace-event export. The format is the JSON Array / JSON Object
// flavour documented by the Trace Event Format spec and consumed by
// chrome://tracing and https://ui.perfetto.dev: a {"traceEvents":[...]}
// object whose entries are "X" (complete span: ts+dur), "i" (instant), and
// "M" (metadata) events, with ts/dur in MICROseconds. Virtual nanoseconds
// divide by 1e3; Perfetto renders sub-microsecond spans fine with fractional
// ts.

// TraceNames supplies human names for the numeric codes events carry;
// obs cannot name them itself without importing the packages it serves.
// Nil members fall back to numeric strings.
type TraceNames struct {
	Stage  func(uint8) string // EvPhase/EvTxnAbort Detail
	Reason func(uint8) string // EvTxnAbort Arg (abort reason)
	Cause  func(uint8) string // EvHTM Detail (abort cause; 0 = committed)
}

func (n TraceNames) stage(c uint8) string {
	if n.Stage != nil {
		return n.Stage(c)
	}
	return "stage-" + strconv.Itoa(int(c))
}

func (n TraceNames) reason(c uint8) string {
	if n.Reason != nil {
		return n.Reason(c)
	}
	return "reason-" + strconv.Itoa(int(c))
}

func (n TraceNames) cause(c uint8) string {
	if n.Cause != nil {
		return n.Cause(c)
	}
	return "cause-" + strconv.Itoa(int(c))
}

// traceEvent is one Trace Event Format entry.
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  *float64       `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	S    string         `json:"s,omitempty"` // instant scope
	Args map[string]any `json:"args,omitempty"`
}

// eventName renders one obs.Event as its trace name, category, and args.
func eventName(e Event, names TraceNames) (name, cat string, args map[string]any) {
	switch e.Kind {
	case EvTxnBegin:
		return "txn-begin", "txn", map[string]any{"txn": e.ID, "attempt": e.Arg}
	case EvTxnCommit:
		return "txn", "txn", map[string]any{"txn": e.ID, "attempt": e.Arg, "outcome": "commit"}
	case EvTxnAbort:
		return "abort:" + names.reason(uint8(e.Arg)), "txn", map[string]any{
			"txn": e.ID, "stage": names.stage(e.Detail), "site": e.Site, "outcome": "abort",
		}
	case EvPhase:
		return names.stage(e.Detail), "phase", map[string]any{"txn": e.ID, "verbs": e.Arg}
	case EvHTM:
		a := map[string]any{"txn": e.ID}
		if e.Detail == 0 {
			return "htm", "htm", a
		}
		a["xabort"] = e.Arg
		return "htm-abort:" + names.cause(e.Detail), "htm", a
	case EvDoorbell:
		a := map[string]any{"verbs": e.Arg}
		if e.Site == SiteMulti {
			a["target"] = "multi"
		} else {
			a["target"] = e.Site
		}
		return "doorbell", "doorbell", a
	case EvYield:
		return "yield", "sched", map[string]any{"txn": e.ID}
	case EvMilestone:
		return MilestoneName(e.Detail), "milestone", map[string]any{"node": e.Site}
	default:
		return "event", "other", nil
	}
}

// WriteTrace exports the events of all recorders as one Chrome trace-event
// JSON document. Timestamps are normalised so the earliest event across all
// recorders is ts=0; each recorder becomes one pid/tid track, named via "M"
// metadata events. Every event, milestones included, is in virtual ns on the
// cluster's one timeline.
func WriteTrace(w io.Writer, recs []*Recorder, names TraceNames) error {
	bw := bufio.NewWriter(w)

	var base int64 = -1
	for _, r := range recs {
		for _, e := range r.Events() {
			if base < 0 || e.Start < base {
				base = e.Start
			}
		}
	}

	if _, err := bw.WriteString("{\"traceEvents\":[\n"); err != nil {
		return err
	}
	first := true
	emit := func(te traceEvent) error {
		if !first {
			if _, err := bw.WriteString(",\n"); err != nil {
				return err
			}
		}
		first = false
		b, err := json.Marshal(te)
		if err != nil {
			return err
		}
		_, err = bw.Write(b)
		return err
	}

	for _, r := range recs {
		// Track name metadata. Negative Pid marks the cluster-wide milestone
		// recorder rather than a per-node worker.
		name := fmt.Sprintf("worker n%d/w%d", r.Pid, r.Tid)
		if r.Pid < 0 {
			name = "cluster"
		}
		if err := emit(traceEvent{
			Name: "thread_name", Ph: "M", Pid: r.Pid, Tid: r.Tid,
			Args: map[string]any{"name": name},
		}); err != nil {
			return err
		}
		evs := r.Events()
		// Chrome's JSON importer wants per-track monotone ts; ring order is
		// recording order, which for spans is END order — sort by start.
		sort.SliceStable(evs, func(i, j int) bool { return evs[i].Start < evs[j].Start })
		for _, e := range evs {
			name, cat, args := eventName(e, names)
			te := traceEvent{
				Name: name, Cat: cat, Pid: r.Pid, Tid: r.Tid,
				Ts: float64(e.Start-base) / 1e3, Args: args,
			}
			if e.End > e.Start {
				d := float64(e.End-e.Start) / 1e3
				te.Ph, te.Dur = "X", &d
			} else {
				te.Ph, te.S = "i", "t"
			}
			if err := emit(te); err != nil {
				return err
			}
		}
	}
	if _, err := bw.WriteString("\n],\"displayTimeUnit\":\"ns\"}\n"); err != nil {
		return err
	}
	return bw.Flush()
}

// ValidateTrace parses a trace JSON document and checks it is well-formed:
// non-empty, every event has a known phase, durations are non-negative, and
// per-track timestamps are monotone non-decreasing. Returns the number of
// events per category for content assertions.
func ValidateTrace(data []byte) (map[string]int, error) {
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Cat  string  `json:"cat"`
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
			Pid  int     `json:"pid"`
			Tid  int     `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("trace not valid JSON: %w", err)
	}
	if len(doc.TraceEvents) == 0 {
		return nil, fmt.Errorf("trace has no events")
	}
	cats := make(map[string]int)
	lastTs := make(map[[2]int]float64)
	n := 0
	for i, e := range doc.TraceEvents {
		switch e.Ph {
		case "M":
			continue
		case "X", "i":
		default:
			return nil, fmt.Errorf("event %d: unknown phase %q", i, e.Ph)
		}
		if e.Dur < 0 {
			return nil, fmt.Errorf("event %d (%s): negative duration %v", i, e.Name, e.Dur)
		}
		if e.Ts < 0 {
			return nil, fmt.Errorf("event %d (%s): negative timestamp %v", i, e.Name, e.Ts)
		}
		track := [2]int{e.Pid, e.Tid}
		if prev, ok := lastTs[track]; ok && e.Ts < prev {
			return nil, fmt.Errorf("event %d (%s): ts %v before predecessor %v on track %v", i, e.Name, e.Ts, prev, track)
		}
		lastTs[track] = e.Ts
		cats[e.Cat]++
		n++
	}
	if n == 0 {
		return nil, fmt.Errorf("trace has only metadata events")
	}
	return cats, nil
}
