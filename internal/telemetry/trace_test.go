package telemetry

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// decodeTrace parses WriteTrace output through the generic JSON layer — the
// same path a trace viewer takes — rather than our own wire structs.
func decodeTrace(t *testing.T, data []byte) (events []map[string]any, unit string) {
	t.Helper()
	var top map[string]any
	if err := json.Unmarshal(data, &top); err != nil {
		t.Fatalf("trace output is not valid JSON: %v", err)
	}
	raw, ok := top["traceEvents"].([]any)
	if !ok {
		t.Fatalf("no traceEvents array in %v", top)
	}
	for _, e := range raw {
		ev, ok := e.(map[string]any)
		if !ok {
			t.Fatalf("traceEvents entry is %T, want object", e)
		}
		events = append(events, ev)
	}
	unit, _ = top["displayTimeUnit"].(string)
	return events, unit
}

// TestWriteTraceJSON is the format contract for the combined export: spans as
// complete events, recorder events as thread-scoped instants on the one
// search-event track (whatever search recorded them), counter samples, and
// thread metadata sorted first.
func TestWriteTraceJSON(t *testing.T) {
	reg := New()
	ctx := NewContext(context.Background(), reg)
	sp, _ := StartSpan(ctx, "analyze", "program", "thttpd")
	sp.End()

	rec := NewRecorder(0)
	b0 := rec.Buf(rec.BeginSearch())
	b0.Record(EvLevelStart, 0, 0, "", 1)
	b0.Record(EvGoalMatched, 2, 0xdeadbeef, "", 384)
	b0.Flush()
	b1 := rec.Buf(rec.BeginSearch())
	b1.Record(EvRuleFired, 1, 0xabc, "chown", 0)
	b1.Flush()

	now := time.Now()
	counters := []CounterTrack{{
		Name: "hot blocks",
		Samples: []CounterSample{
			{T: now, Values: map[string]int64{"@main:entry": 0}},
			{T: now.Add(time.Millisecond), Values: map[string]int64{"@main:entry": 100}},
		},
	}}

	var buf bytes.Buffer
	if err := WriteTrace(&buf, reg, rec, counters); err != nil {
		t.Fatal(err)
	}
	events, unit := decodeTrace(t, buf.Bytes())
	if unit != "ms" {
		t.Errorf("displayTimeUnit = %q, want ms", unit)
	}

	byPhase := map[string][]map[string]any{}
	for _, ev := range events {
		ph, _ := ev["ph"].(string)
		byPhase[ph] = append(byPhase[ph], ev)
		if ts, ok := ev["ts"].(float64); !ok || ts < 0 {
			t.Errorf("event %v has no non-negative ts", ev)
		}
	}
	if len(byPhase["X"]) != 1 || byPhase["X"][0]["name"] != "analyze" {
		t.Errorf("span events = %v, want one analyze", byPhase["X"])
	}
	if len(byPhase["i"]) != 3 {
		t.Errorf("instant events = %d, want 3", len(byPhase["i"]))
	}
	if len(byPhase["C"]) != 2 {
		t.Errorf("counter events = %d, want 2", len(byPhase["C"]))
	}

	// Metadata first (viewers apply track names before content), and one
	// thread_name for the search-event track.
	for i, ev := range events {
		if ev["ph"] == "M" && i > 0 && events[i-1]["ph"] != "M" {
			t.Error("metadata events not sorted before content events")
		}
	}
	names := map[string]bool{}
	for _, ev := range byPhase["M"] {
		if args, ok := ev["args"].(map[string]any); ok {
			if n, ok := args["name"].(string); ok {
				names[n] = true
			}
		}
	}
	for _, want := range []string{"pipeline (spans)", "search events"} {
		if !names[want] {
			t.Errorf("missing thread/process name %q in %v", want, names)
		}
	}
	if len(names) != 3 { // privanalyzer, pipeline (spans), search events
		t.Errorf("thread/process names %v, want one search-event track", names)
	}

	// Rule-firing instants carry the rule in the name and the state hash as a
	// 16-digit hex string (uint64 exceeds JSON's exact-integer range).
	var fired map[string]any
	for _, ev := range byPhase["i"] {
		if ev["name"] == "rule_fired:chown" {
			fired = ev
		}
	}
	if fired == nil {
		t.Fatalf("no rule_fired:chown instant in %v", byPhase["i"])
	}
	if fired["s"] != "t" {
		t.Errorf("instant scope = %v, want t", fired["s"])
	}
	args := fired["args"].(map[string]any)
	if got, _ := args["state"].(string); got != "0000000000000abc" {
		t.Errorf("state hash = %q, want 0000000000000abc", got)
	}
	for _, ev := range byPhase["i"] {
		if tid, _ := ev["tid"].(float64); tid != 1 {
			t.Errorf("%v instant on tid %v, want the search-event track's 1", ev["name"], ev["tid"])
		}
	}
}

// TestWriteTraceEmpty: a capture with no registry and no recorder still
// renders as a loadable (if boring) trace.
func TestWriteTraceEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteTrace(&buf, nil, nil, nil); err != nil {
		t.Fatal(err)
	}
	events, _ := decodeTrace(t, buf.Bytes())
	for _, ev := range events {
		if ev["ph"] != "M" {
			t.Errorf("empty capture produced content event %v", ev)
		}
	}
	if !strings.Contains(buf.String(), "traceEvents") {
		t.Error("missing traceEvents key")
	}
}

// TestWriteTraceLanes: two concurrent children of one span overlap without
// nesting, so they cannot share a track. The first stays on its parent's
// track (tid 0), the second moves to a lane of its own, and the
// search-event track follows the span lanes.
func TestWriteTraceLanes(t *testing.T) {
	reg := New()
	ctx := NewContext(context.Background(), reg)
	root, rctx := StartSpan(ctx, "analyze")
	first, _ := StartSpan(rctx, "rosa.query", "attack", "1")
	time.Sleep(time.Millisecond)
	second, _ := StartSpan(rctx, "rosa.query", "attack", "2")
	time.Sleep(time.Millisecond)
	first.End()
	time.Sleep(time.Millisecond)
	second.End()
	root.End()

	rec := NewRecorder(0)
	b := rec.Buf(rec.BeginSearch())
	b.Record(EvLevelStart, 0, 0, "", 1)
	b.Flush()

	var buf bytes.Buffer
	if err := WriteTrace(&buf, reg, rec, nil); err != nil {
		t.Fatal(err)
	}
	events, _ := decodeTrace(t, buf.Bytes())
	tids := map[string]float64{}
	for _, ev := range events {
		tid, _ := ev["tid"].(float64)
		switch ev["ph"] {
		case "X":
			name := ev["name"].(string)
			if a, ok := ev["args"].(map[string]any)["attack"].(string); ok {
				name += " " + a
			}
			tids[name] = tid
		case "i":
			tids["search events"] = tid
		}
	}
	want := map[string]float64{"analyze": 0, "rosa.query 1": 0, "rosa.query 2": 1, "search events": 2}
	for name, tid := range want {
		if got, ok := tids[name]; !ok || got != tid {
			t.Errorf("%s on tid %v (present %v), want %v", name, got, ok, tid)
		}
	}
}
