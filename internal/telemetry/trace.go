package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"time"
)

// Chrome Trace Event export: the whole capture — span tree, the
// flight-recorder event track, and counter tracks — as one trace.json
// loadable in Perfetto (ui.perfetto.dev) or chrome://tracing. The format is
// the JSON-object form of the Trace Event specification: a "traceEvents"
// array of complete ("X"), instant ("i"), counter ("C"), and metadata ("M")
// events with microsecond timestamps.
//
// Track layout: tids 0..L-1 carry the span tree on L lanes (spanLanes: a
// viewer nests a track's "X" events by time containment); tid L carries the
// recorder's events as instants; counter tracks render above.

// CounterSample is one timestamped multi-series counter observation; each
// Values key becomes a stacked series of the track.
type CounterSample struct {
	T      time.Time
	Values map[string]int64
}

// CounterTrack is one named counter track of the trace (e.g. the interp
// hot-block profile: one series per hot block, instructions as the value).
type CounterTrack struct {
	Name    string
	Samples []CounterSample
}

// traceEvent is the wire form of one Trace Event.
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"` // microseconds
	Dur  float64        `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	S    string         `json:"s,omitempty"` // instant scope: "t" = thread
	Args map[string]any `json:"args,omitempty"`
}

// traceFile is the JSON-object container format.
type traceFile struct {
	TraceEvents     []traceEvent `json:"traceEvents"`
	DisplayTimeUnit string       `json:"displayTimeUnit"`
}

// WriteTrace renders the combined capture as Chrome Trace Event JSON: the
// registry's spans (nil registry: none), the recorder's event track (nil
// recorder: none), and the given counter tracks. Timestamps are
// rebased so the earliest event sits at ts 0.
func WriteTrace(w io.Writer, reg *Registry, rec *Recorder, counters []CounterTrack) error {
	var events []traceEvent

	// Establish the common timebase: everything is wall-clock UnixNano
	// internally, rebased to the earliest instant in the capture.
	var base int64
	setBase := func(ns int64) {
		if base == 0 || ns < base {
			base = ns
		}
	}
	var recs []spanRecord
	for _, s := range reg.Spans() {
		recs = append(recs, s.record())
		setBase(recs[len(recs)-1].StartNS)
	}
	sort.SliceStable(recs, func(i, j int) bool { return recs[i].StartNS < recs[j].StartNS })
	lanes, nlanes := spanLanes(recs)
	if rec != nil {
		setBase(rec.Epoch().UnixNano())
	}
	for _, ct := range counters {
		for _, sm := range ct.Samples {
			setBase(sm.T.UnixNano())
		}
	}
	us := func(ns int64) float64 { return float64(ns-base) / 1e3 }

	// Thread metadata: name the span tracks and the search-event track.
	meta := func(name string, tid int, value string) traceEvent {
		return traceEvent{Name: name, Ph: "M", PID: 1, TID: tid,
			Args: map[string]any{"name": value}}
	}
	events = append(events, meta("process_name", 0, "privanalyzer"))
	events = append(events, meta("thread_name", 0, "pipeline (spans)"))
	for l := 1; l < nlanes; l++ {
		events = append(events, meta("thread_name", l, "pipeline (spans, lane "+strconv.Itoa(l)+")"))
	}
	if d := rec.Dropped(); d > 0 {
		// Truncation indicator in the trace header: the journal below holds
		// only the most recent events, so viewers know gaps are real.
		events = append(events, traceEvent{Name: "process_labels", Ph: "M", PID: 1, TID: 0,
			Args: map[string]any{"labels": "recorder dropped " + strconv.FormatInt(d, 10) + " events"}})
	}
	journal := rec.Journal()
	if len(journal) > 0 {
		events = append(events, meta("thread_name", nlanes, "search events"))
	}

	// Spans as complete events on their lanes' tids.
	for _, rc := range recs {
		args := map[string]any{"span_id": rc.ID}
		if rc.Parent != 0 {
			args["parent"] = rc.Parent
		}
		for k, v := range rc.Labels {
			args[k] = v
		}
		events = append(events, traceEvent{
			Name: rc.Name, Ph: "X",
			TS: us(rc.StartNS), Dur: float64(rc.DurNS) / 1e3,
			PID: 1, TID: lanes[rc.ID], Args: args,
		})
	}

	// Recorder events as thread-scoped instants on the search-event track.
	epoch := rec.Epoch().UnixNano()
	for _, ev := range journal {
		name := ev.Kind.String()
		if ev.Rule != "" {
			name += ":" + ev.Rule
		}
		args := map[string]any{
			"search": ev.Search,
			"depth":  ev.Depth,
		}
		if ev.Hash != 0 {
			// Hex string: uint64 exceeds JSON's exact-integer range.
			args["state"] = fmt.Sprintf("%016x", ev.Hash)
		}
		if ev.N != 0 {
			args["n"] = ev.N
		}
		events = append(events, traceEvent{
			Name: name, Ph: "i", S: "t",
			TS:  us(epoch + ev.T),
			PID: 1, TID: nlanes, Args: args,
		})
	}

	// Counter tracks.
	for _, ct := range counters {
		for _, sm := range ct.Samples {
			vals := make(map[string]any, len(sm.Values))
			for k, v := range sm.Values {
				vals[k] = v
			}
			events = append(events, traceEvent{
				Name: ct.Name, Ph: "C",
				TS:  us(sm.T.UnixNano()),
				PID: 1, TID: 0, Args: vals,
			})
		}
	}

	sort.SliceStable(events, func(i, j int) bool {
		if events[i].Ph == "M" || events[j].Ph == "M" {
			return events[i].Ph == "M" && events[j].Ph != "M"
		}
		return events[i].TS < events[j].TS
	})

	enc := json.NewEncoder(w)
	if err := enc.Encode(traceFile{TraceEvents: events, DisplayTimeUnit: "ms"}); err != nil {
		return fmt.Errorf("telemetry: %w", err)
	}
	return nil
}

// spanLanes gives each span, in start order, a lane on which any two spans
// are disjoint or nested: its parent's lane while the parent is the
// innermost span open there, else the lowest lane with no span open, else a
// new one. It returns each span's lane by id, and the lane count (at least 1).
func spanLanes(recs []spanRecord) (map[int64]int, int) {
	end := func(r spanRecord) int64 { return r.StartNS + r.DurNS }
	lanes := make(map[int64]int, len(recs)) // span id -> lane
	var open [][]spanRecord                 // per lane: open spans, innermost last
	for _, rc := range recs {
		lane := -1
		for l, st := range open {
			// Close what ended by rc's start: it contains no later span.
			for len(st) > 0 && end(st[len(st)-1]) <= rc.StartNS {
				st = st[:len(st)-1]
			}
			if open[l] = st; lane < 0 && len(st) == 0 {
				lane = l
			}
		}
		if l, ok := lanes[rc.Parent]; ok && len(open[l]) > 0 {
			if top := open[l][len(open[l])-1]; top.ID == rc.Parent && end(rc) <= end(top) {
				lane = l
			}
		}
		if lane < 0 {
			lane = len(open)
			open = append(open, nil)
		}
		open[lane] = append(open[lane], rc)
		lanes[rc.ID] = lane
	}
	return lanes, max(1, len(open))
}
