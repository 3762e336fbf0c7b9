package telemetry

import "testing"

func ev(kind EventKind, n int64) Event { return Event{Kind: kind, N: n} }

func TestEventSinkDelivery(t *testing.T) {
	s := NewEventSink()
	sub := s.Subscribe(0)
	if got := s.Subscribers(); got != 1 {
		t.Fatalf("Subscribers = %d, want 1", got)
	}

	s.Publish([]Event{ev(EvLevelStart, 1), ev(EvGoalMatched, 2)})
	select {
	case <-sub.Wait():
	default:
		t.Fatal("Wait not readable after Publish")
	}
	evs, ok := sub.Events()
	if !ok {
		t.Fatal("Events reported feed over on a live sink")
	}
	if len(evs) != 2 || evs[0].Kind != EvLevelStart || evs[1].Kind != EvGoalMatched {
		t.Fatalf("Events = %+v, want the published pair in order", evs)
	}
	// Drained: a second call returns nothing but the feed is still live.
	if evs, ok := sub.Events(); len(evs) != 0 || !ok {
		t.Fatalf("after drain: evs=%v ok=%v, want empty and live", evs, ok)
	}

	s.Close()
	if _, ok := sub.Events(); ok {
		t.Error("Events ok after Close with empty ring, want feed-over")
	}
}

func TestEventSinkDropOldest(t *testing.T) {
	s := NewEventSink()
	sub := s.Subscribe(4)
	var batch []Event
	for i := 0; i < 10; i++ {
		batch = append(batch, ev(EvLevelStart, int64(i)))
	}
	s.Publish(batch)

	evs, ok := sub.Events()
	if !ok || len(evs) != 4 {
		t.Fatalf("Events = %d events (ok=%v), want the newest 4", len(evs), ok)
	}
	for i, e := range evs {
		if want := int64(6 + i); e.N != want {
			t.Errorf("event %d: N = %d, want %d (oldest dropped first)", i, e.N, want)
		}
	}
	if got := sub.Dropped(); got != 6 {
		t.Errorf("sub.Dropped = %d, want 6", got)
	}
	if got := s.Dropped(); got != 6 {
		t.Errorf("sink.Dropped = %d, want 6", got)
	}
}

func TestEventSinkCloseAndLateSubscribe(t *testing.T) {
	s := NewEventSink()
	sub := s.Subscribe(0)
	s.Publish([]Event{ev(EvGoalMatched, 1)})
	s.Close()
	s.Close() // idempotent

	// The pre-close event is still delivered; then the feed reports over.
	evs, ok := sub.Events()
	if len(evs) != 1 {
		t.Fatalf("pre-close event lost: %v", evs)
	}
	_ = ok // ok may be true or false while draining; the next call decides
	if _, ok := sub.Events(); ok {
		t.Error("feed still live after Close and drain")
	}

	// Publishing after close reaches no one.
	s.Publish([]Event{ev(EvLevelStart, 2)})
	if evs, _ := sub.Events(); len(evs) != 0 {
		t.Errorf("post-close publish delivered: %v", evs)
	}

	// A late joiner gets an already-terminated subscription, not a hang.
	late := s.Subscribe(0)
	select {
	case <-late.Wait():
	default:
		t.Fatal("late subscription's Wait not readable")
	}
	if _, ok := late.Events(); ok {
		t.Error("late subscription reports a live feed on a closed sink")
	}
}

func TestEventSinkNilSafe(t *testing.T) {
	var s *EventSink
	s.Publish([]Event{ev(EvLevelStart, 1)})
	s.Close()
	if s.Dropped() != 0 || s.Subscribers() != 0 {
		t.Error("nil sink reports non-zero state")
	}
	sub := s.Subscribe(0)
	if sub != nil {
		t.Fatalf("Subscribe on nil sink = %v, want nil", sub)
	}
	if _, ok := sub.Events(); ok {
		t.Error("nil subscription reports a live feed")
	}
	select {
	case <-sub.Wait():
	default:
		t.Error("nil subscription's Wait blocks")
	}
	sub.Close()
	if sub.Dropped() != 0 {
		t.Error("nil subscription reports drops")
	}
}

func TestEventSinkSubscriptionClose(t *testing.T) {
	s := NewEventSink()
	a, b := s.Subscribe(0), s.Subscribe(0)
	a.Close()
	a.Close() // idempotent
	if got := s.Subscribers(); got != 1 {
		t.Fatalf("Subscribers after one Close = %d, want 1", got)
	}
	s.Publish([]Event{ev(EvGoalMatched, 1)})
	if evs, _ := a.Events(); len(evs) != 0 {
		t.Error("closed subscription still receives")
	}
	if evs, _ := b.Events(); len(evs) != 1 {
		t.Error("surviving subscription missed the publish")
	}
}

func TestRecorderSinkForwarding(t *testing.T) {
	rec := NewRecorder(0)
	sink := NewEventSink()
	rec.SetSink(sink, EvGoalMatched, EvEscalated)
	sub := sink.Subscribe(0)

	search := rec.BeginSearch()
	buf := rec.Buf(search, 0)
	buf.Record(EvLevelStart, 0, 0, "", 1)       // filtered out
	buf.Record(EvGoalMatched, 3, 0xabc, "", 42) // forwarded
	buf.Flush()
	rec.CommitEvent(EvEscalated, search, 0, 0, "", 4096) // forwarded

	evs, _ := sub.Events()
	if len(evs) != 2 {
		t.Fatalf("forwarded %d events %+v, want goal_matched + escalated only", len(evs), evs)
	}
	if evs[0].Kind != EvGoalMatched || evs[0].N != 42 || evs[0].Search != search {
		t.Errorf("first forwarded event = %+v", evs[0])
	}
	if evs[1].Kind != EvEscalated || evs[1].N != 4096 || evs[1].Search != search {
		t.Errorf("second forwarded event = %+v", evs[1])
	}

	// The journal keeps everything regardless of the sink filter.
	if j := rec.Journal(); len(j) != 3 {
		t.Errorf("journal has %d events, want all 3", len(j))
	}

	// Detach: nothing further is forwarded.
	rec.SetSink(nil)
	rec.CommitEvent(EvGoalMatched, search, 0, 0, "", 1)
	if evs, _ := sub.Events(); len(evs) != 0 {
		t.Errorf("events forwarded after detach: %v", evs)
	}
}

func TestRecorderSetSinkAllKinds(t *testing.T) {
	rec := NewRecorder(0)
	sink := NewEventSink()
	rec.SetSink(sink) // no filter: every kind forwards
	sub := sink.Subscribe(0)
	buf := rec.Buf(rec.BeginSearch(), 0)
	buf.Record(EvCacheHit, 1, 1, "", 0)
	buf.Record(EvRuleFired, 1, 2, "open", 0)
	buf.Flush()
	if evs, _ := sub.Events(); len(evs) != 2 {
		t.Errorf("forwarded %d events, want all kinds with an empty filter", len(evs))
	}
}
