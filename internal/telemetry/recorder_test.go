package telemetry

import (
	"testing"
	"time"
)

// TestRecorderNil exercises the disabled-recorder path: every operation on a
// nil *Recorder and nil *EventBuf must be a safe no-op, mirroring the nil
// registry contract.
func TestRecorderNil(t *testing.T) {
	var r *Recorder
	if r.Enabled() {
		t.Error("nil recorder reports Enabled")
	}
	if got := r.BeginSearch(); got != 0 {
		t.Errorf("nil BeginSearch = %d, want 0", got)
	}
	b := r.Buf(1)
	if b != nil {
		t.Fatalf("nil recorder Buf = %v, want nil", b)
	}
	b.Record(EvRuleFired, 1, 42, "open", 0)
	if b.Len() != 0 {
		t.Error("nil buffer retained an event")
	}
	b.Flush()
	r.Commit([]Event{{Kind: EvDedup}})
	if j := r.Journal(); j != nil {
		t.Errorf("nil Journal = %v, want nil", j)
	}
	if r.Dropped() != 0 {
		t.Error("nil Dropped must read zero")
	}
	if !r.Epoch().IsZero() {
		t.Error("nil Epoch must be the zero time")
	}
}

func TestRecorderBufferedCommit(t *testing.T) {
	r := NewRecorder(0)
	if !r.Enabled() {
		t.Fatal("recorder not enabled")
	}
	s := r.BeginSearch()
	if s != 1 {
		t.Errorf("first search id = %d, want 1", s)
	}
	if r.BeginSearch() != 2 {
		t.Error("search ids must be sequential")
	}

	b := r.Buf(s)
	b.Record(EvLevelStart, 0, 0, "", 5)
	b.Record(EvRuleFired, 1, 0xabc, "chown", 0)
	if b.Len() != 2 {
		t.Fatalf("buffered %d events, want 2", b.Len())
	}
	// Nothing reaches the journal until the owner flushes.
	if len(r.Journal()) != 0 {
		t.Fatal("events visible before commit")
	}
	b.Flush()
	if b.Len() != 0 {
		t.Fatalf("Flush left %d events in the buffer", b.Len())
	}

	j := r.Journal()
	if len(j) != 2 {
		t.Fatalf("journal has %d events, want 2", len(j))
	}
	if j[0].Kind != EvLevelStart || j[0].N != 5 || j[0].Search != s {
		t.Errorf("first event = %+v", j[0])
	}
	if j[1].Kind != EvRuleFired || j[1].Hash != 0xabc || j[1].Rule != "chown" || j[1].Depth != 1 {
		t.Errorf("second event = %+v", j[1])
	}
	if j[0].T > j[1].T {
		t.Error("timestamps not monotone within one buffer")
	}
}

func TestRecorderRingWrap(t *testing.T) {
	const capacity = 4
	r := NewRecorder(capacity)
	b := r.Buf(r.BeginSearch())
	for i := 0; i < 10; i++ {
		b.Record(EvDedup, i, uint64(i), "", 0)
	}
	b.Flush()

	j := r.Journal()
	if len(j) != capacity {
		t.Fatalf("journal retained %d events, want %d", len(j), capacity)
	}
	// Flight-recorder semantics: the most recent events survive, oldest first.
	for i, ev := range j {
		if want := uint64(10 - capacity + i); ev.Hash != want {
			t.Errorf("event %d hash = %d, want %d", i, ev.Hash, want)
		}
	}
	if got := r.Dropped(); got != 10-capacity {
		t.Errorf("Dropped = %d, want %d", got, 10-capacity)
	}
}

// TestRecorderJournalOrder pins the journal's order: timestamp, then search
// id, then commit order — a search's own events keep the order it recorded
// them in.
func TestRecorderJournalOrder(t *testing.T) {
	r := NewRecorder(0)
	r.Commit([]Event{
		{T: 30, Search: 1, Hash: 1, Kind: EvDedup},
		{T: 10, Search: 2, Hash: 2, Kind: EvDedup},
		{T: 10, Search: 1, Hash: 3, Kind: EvDedup},
		{T: 10, Search: 1, Hash: 4, Kind: EvDedup},
		{T: 20, Search: 1, Hash: 5, Kind: EvDedup},
	})
	j := r.Journal()
	want := []struct {
		t      int64
		search int32
		hash   uint64
	}{
		{10, 1, 3}, {10, 1, 4}, {10, 2, 2}, {20, 1, 5}, {30, 1, 1},
	}
	if len(j) != len(want) {
		t.Fatalf("journal has %d events, want %d", len(j), len(want))
	}
	for i, w := range want {
		if j[i].T != w.t || j[i].Search != w.search || j[i].Hash != w.hash {
			t.Errorf("journal[%d] = (T=%d, S=%d, H=%d), want (%d, %d, %d)",
				i, j[i].T, j[i].Search, j[i].Hash, w.t, w.search, w.hash)
		}
	}
	// Journal is a non-destructive drain: a second call sees the same events.
	if len(r.Journal()) != len(want) {
		t.Error("Journal drained the ring")
	}
}

// TestRecorderCommitEvent: a one-off CommitEvent lands in the journal beside
// the buffered events, stamped with the fields it was given.
func TestRecorderCommitEvent(t *testing.T) {
	rec := NewRecorder(0)
	search := rec.BeginSearch()
	buf := rec.Buf(search)
	buf.Record(EvLevelStart, 0, 0, "", 1)
	buf.Record(EvGoalMatched, 3, 0xabc, "", 42)
	buf.Flush()
	rec.CommitEvent(EvDedup, search, 2, 0, "", 4096)

	j := rec.Journal()
	if len(j) != 3 {
		t.Fatalf("journal has %d events %+v, want 3", len(j), j)
	}
	var got *Event
	for i := range j {
		if j[i].Kind == EvDedup {
			got = &j[i]
		}
	}
	if got == nil || got.N != 4096 || got.Depth != 2 || got.Search != search || got.T < 0 {
		t.Errorf("committed event = %+v", got)
	}
}

func TestRecorderEpoch(t *testing.T) {
	r := NewRecorder(0)
	if time.Since(r.Epoch()) < 0 || time.Since(r.Epoch()) > time.Minute {
		t.Errorf("epoch %v not near now", r.Epoch())
	}
	b := r.Buf(r.BeginSearch())
	b.Record(EvLevelStart, 0, 0, "", 1)
	b.Flush()
	if j := r.Journal(); j[0].T < 0 {
		t.Errorf("event timestamp %d before the epoch", j[0].T)
	}
}

func TestEventKindString(t *testing.T) {
	want := map[EventKind]string{
		EvLevelStart:    "level_start",
		EvStateExpanded: "state_expanded",
		EvRuleFired:     "rule_fired",
		EvSubtreePruned: "subtree_pruned",
		EvCacheHit:      "cache_hit",
		EvCacheMiss:     "cache_miss",
		EvDedup:         "dedup",
		EvGoalMatched:   "goal_matched",
		EventKind(99):   "unknown",
	}
	for k, name := range want {
		if k.String() != name {
			t.Errorf("EventKind(%d).String() = %q, want %q", k, k.String(), name)
		}
	}
}
