package telemetry

import "sync"

// EventSink is the live fan-out half of the flight recorder: where the
// ring retains a journal for post-hoc analysis (-explain, trace
// export), a sink forwards committed events to subscribers as they happen —
// the feed privanalyzerd's SSE job streams are built on.
//
// The design constraints are the recorder's own:
//
//   - Nil-safe when disabled. Every method on a nil *EventSink or nil
//     *Subscription is a no-op, so Recorder.Commit publishes unconditionally
//     and the no-subscriber path costs one nil check per committed batch
//     (batch, not event — pinned by BenchmarkRecorder).
//   - Bounded per subscriber. Each subscription owns a fixed-capacity ring;
//     a slow consumer loses its oldest undelivered events (drop-oldest,
//     flight-recorder style) and the loss is counted, never silent. One slow
//     SSE client cannot stall the search or starve other subscribers.
//   - Publish never blocks. Delivery is a ring write plus a non-blocking
//     notify; consumers drain at their own pace.
type EventSink struct {
	mu      sync.Mutex
	subs    map[*Subscription]struct{}
	dropped int64 // cumulative drops across all subscriptions, live and closed
	closed  bool
}

// NewEventSink returns an empty sink.
func NewEventSink() *EventSink {
	return &EventSink{subs: make(map[*Subscription]struct{})}
}

// DefaultSubscriptionCapacity bounds a subscriber's undelivered-event ring
// when Subscribe is given capacity 0: enough for the control-plane kinds a
// job stream forwards (level starts, goal matches) of any
// realistic search, small enough that a thousand subscribers stay cheap.
const DefaultSubscriptionCapacity = 256

// Subscribe registers a consumer whose ring retains up to capacity
// undelivered events (0 = DefaultSubscriptionCapacity). Subscribing to a
// closed sink is valid and returns an already-terminated subscription —
// Events answers (nil, false) immediately — so late joiners of a finished
// job fall through to the terminal frames without a special case. Returns
// nil (a valid no-op subscription) on a nil sink.
func (s *EventSink) Subscribe(capacity int) *Subscription {
	if s == nil {
		return nil
	}
	if capacity <= 0 {
		capacity = DefaultSubscriptionCapacity
	}
	sub := &Subscription{
		sink:   s,
		buf:    make([]Event, 0, capacity),
		cap:    capacity,
		notify: make(chan struct{}, 1),
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		sub.closed = true
		sub.ping()
		return sub
	}
	s.subs[sub] = struct{}{}
	return sub
}

// Publish delivers evs to every live subscription: a bounded ring write and
// a non-blocking notify per subscriber, never a block. No-op on a nil sink,
// an empty batch, or a closed sink.
func (s *EventSink) Publish(evs []Event) {
	if s == nil || len(evs) == 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	for sub := range s.subs {
		s.dropped += sub.append(evs)
		sub.ping()
	}
}

// Close ends the feed: subscribers drain what their rings hold, then Events
// reports no-more (ok false). Publishing after Close is a no-op. Idempotent;
// no-op on nil.
func (s *EventSink) Close() {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	s.closed = true
	for sub := range s.subs {
		sub.close()
		delete(s.subs, sub)
	}
}

// Dropped returns the cumulative number of events dropped across every
// subscription of this sink's lifetime, including closed ones — the
// streaming counterpart of Recorder.Dropped. Returns 0 on nil.
func (s *EventSink) Dropped() int64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dropped
}

// Subscribers returns the live subscription count (0 on nil).
func (s *EventSink) Subscribers() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.subs)
}

// Subscription is one consumer's bounded view of a sink's event feed.
type Subscription struct {
	sink *EventSink

	mu      sync.Mutex
	buf     []Event // ring storage, grown to cap then reused
	start   int     // index of the oldest undelivered event
	n       int     // undelivered events
	cap     int
	dropped int64
	closed  bool

	notify chan struct{} // capacity 1; readable when events arrived or the feed ended
}

// append writes evs into the ring, overwriting oldest-first past capacity,
// and returns how many events were dropped. Caller holds the sink mutex;
// the subscription mutex still serializes against the consumer.
func (sub *Subscription) append(evs []Event) int64 {
	sub.mu.Lock()
	defer sub.mu.Unlock()
	if sub.closed {
		return 0
	}
	var dropped int64
	for _, ev := range evs {
		if len(sub.buf) < sub.cap {
			sub.buf = append(sub.buf, ev)
			sub.n++
			continue
		}
		if sub.n == sub.cap { // full: overwrite the oldest undelivered
			sub.buf[sub.start] = ev
			sub.start = (sub.start + 1) % sub.cap
			dropped++
		} else {
			sub.buf[(sub.start+sub.n)%sub.cap] = ev
			sub.n++
		}
	}
	sub.dropped += dropped
	return dropped
}

// ping makes Wait's channel readable without blocking the publisher.
func (sub *Subscription) ping() {
	select {
	case sub.notify <- struct{}{}:
	default:
	}
}

func (sub *Subscription) close() {
	sub.mu.Lock()
	sub.closed = true
	sub.mu.Unlock()
	sub.ping()
}

// Events drains and returns the undelivered events in arrival order. ok is
// false once the feed has ended (sink closed or subscription closed) AND the
// ring is empty — the consumer's signal that no further events will come.
// Safe on nil: answers (nil, false).
func (sub *Subscription) Events() (evs []Event, ok bool) {
	if sub == nil {
		return nil, false
	}
	sub.mu.Lock()
	defer sub.mu.Unlock()
	if sub.n > 0 {
		evs = make([]Event, 0, sub.n)
		for i := 0; i < sub.n; i++ {
			evs = append(evs, sub.buf[(sub.start+i)%len(sub.buf)])
		}
		sub.start, sub.n = 0, 0
	}
	return evs, len(evs) > 0 || !sub.closed
}

// Wait returns a channel that becomes readable when new events arrive or the
// feed ends; consumers select on it between Events calls. Returns a closed
// channel on nil, so a nil subscription never blocks a select loop.
func (sub *Subscription) Wait() <-chan struct{} {
	if sub == nil {
		ch := make(chan struct{})
		close(ch)
		return ch
	}
	return sub.notify
}

// Dropped returns how many of this subscription's events were overwritten
// before delivery (0 on nil).
func (sub *Subscription) Dropped() int64 {
	if sub == nil {
		return 0
	}
	sub.mu.Lock()
	defer sub.mu.Unlock()
	return sub.dropped
}

// Close unregisters the subscription; pending events are discarded. Safe to
// call twice and on nil.
func (sub *Subscription) Close() {
	if sub == nil {
		return
	}
	s := sub.sink
	if s != nil {
		s.mu.Lock()
		delete(s.subs, sub)
		s.mu.Unlock()
	}
	sub.close()
}
