package telemetry

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// This file is the search flight recorder: an event-level journal of what a
// bounded search did, in contrast to the aggregate view of the metrics
// registry. Where a Counter answers "how many cache hits", the recorder
// answers "which state hit the cache, at what depth, in which search, when" —
// the record `rosa -explain` joins witnesses against and the search-event
// track of the Chrome Trace export.
//
// The design constraints mirror the registry's:
//
//   - Nil-safe when disabled. Every method on a nil *Recorder or *EventBuf
//     is a no-op, so the search engine records unconditionally and pays one
//     nil check per hook when no recorder is attached (pinned by
//     BenchmarkRecorder alongside BenchmarkTelemetry).
//   - Lock-free on the hot path. A search records into an EventBuf — a plain
//     local slice, stamped with monotonic time — and commits it to the ring
//     in bulk, once per expanded frontier node. The recorder's one mutex,
//     which concurrent searches sharing the recorder contend on, is taken
//     once per committed batch, never per event.
//   - Bounded memory. The ring holds at most Capacity events; older events
//     are overwritten, flight-recorder style, and the overwrite count is
//     reported by Dropped.
//
// Determinism: a search runs on one goroutine and records its events in the
// order it does the work, so each search's event sequence — everything but
// the timestamps — is a pure function of the query, as long as the ring did
// not overflow. Concurrent searches sharing a recorder interleave in the
// ring, and draw their search ids, in schedule order.
// TestRecorderGridDeterminism in internal/core enforces this over the full
// program×phase×attack grid.

// EventKind discriminates recorder events.
type EventKind uint8

// Event kinds, one per interesting moment of a search.
const (
	// EvLevelStart marks the start of one BFS depth level; N is the
	// frontier size about to be expanded.
	EvLevelStart EventKind = iota + 1
	// EvStateExpanded marks one frontier state's successor set having been
	// computed; Hash is the state, N the number of distinct successors.
	EvStateExpanded
	// EvRuleFired marks one successor generated by the named rule (before
	// visited-set deduplication); Hash is the successor state.
	EvRuleFired
	// EvSubtreePruned marks the element positions below the root that one
	// expansion skipped (rules apply only at the root configuration); N is
	// the count of pruned positions, Hash the expanded state.
	EvSubtreePruned
	// EvCacheHit marks a transition-cache lookup answered from the cache;
	// Hash is the looked-up state.
	EvCacheHit
	// EvCacheMiss marks a transition-cache lookup that had to expand.
	EvCacheMiss
	// EvDedup marks a successor rejected because the state was already
	// visited; Hash is the rejected state.
	EvDedup
	// EvGoalMatched marks the goal state being recognised; Hash is the
	// matched state, N the number of states explored at that point.
	EvGoalMatched
)

// String names the kind (the Chrome-trace event name).
func (k EventKind) String() string {
	switch k {
	case EvLevelStart:
		return "level_start"
	case EvStateExpanded:
		return "state_expanded"
	case EvRuleFired:
		return "rule_fired"
	case EvSubtreePruned:
		return "subtree_pruned"
	case EvCacheHit:
		return "cache_hit"
	case EvCacheMiss:
		return "cache_miss"
	case EvDedup:
		return "dedup"
	case EvGoalMatched:
		return "goal_matched"
	default:
		return "unknown"
	}
}

// Event is one recorded moment of a search.
type Event struct {
	// T is the monotonic timestamp, in nanoseconds since the recorder's
	// epoch (NewRecorder time).
	T int64
	// Hash is the interned hash of the state the event concerns (0 when
	// not applicable, e.g. EvLevelStart).
	Hash uint64
	// N is the kind-specific count: frontier size (EvLevelStart), successor
	// count (EvStateExpanded), pruned positions (EvSubtreePruned), states
	// explored (EvGoalMatched).
	N int64
	// Rule is the rule name for EvRuleFired, empty otherwise.
	Rule string
	// Search identifies the search within the recorder's lifetime (1-based;
	// a shared recorder sees one id per query).
	Search int32
	// Depth is the BFS depth the event belongs to: the expanded level for
	// EvLevelStart/EvStateExpanded/EvCacheHit/EvCacheMiss/EvSubtreePruned,
	// the generated state's depth for EvRuleFired/EvDedup/EvGoalMatched.
	Depth int32
	// Kind discriminates the event.
	Kind EventKind
}

// DefaultRecorderCapacity is the ring size used when NewRecorder
// is given capacity 0: large enough to hold every event of any single
// Figure 5-11 grid query, small enough (~15 MB fully loaded) to leave on for
// long runs.
const DefaultRecorderCapacity = 1 << 18

// ring is the recorder's fixed-capacity event buffer. Oldest events are
// overwritten once n exceeds the capacity.
type ring struct {
	buf []Event
	n   int64 // events ever appended
}

func (rg *ring) append(ev Event, capacity int) {
	if len(rg.buf) < capacity {
		rg.buf = append(rg.buf, ev)
	} else {
		rg.buf[rg.n%int64(capacity)] = ev
	}
	rg.n++
}

// events returns the ring's retained events, oldest first.
func (rg *ring) events(capacity int) []Event {
	if rg.n <= int64(len(rg.buf)) {
		return append([]Event(nil), rg.buf...)
	}
	// Wrapped: the oldest retained event sits at the next write position.
	start := int(rg.n % int64(capacity))
	out := make([]Event, 0, len(rg.buf))
	out = append(out, rg.buf[start:]...)
	out = append(out, rg.buf[:start]...)
	return out
}

// Recorder is the search flight recorder: a ring of typed events plus the
// epoch their timestamps count from. A nil *Recorder is a valid
// no-op sink, like a nil *Registry.
type Recorder struct {
	epoch    time.Time
	capacity int

	searchSeq atomic.Int32

	mu   sync.Mutex
	ring ring
}

// NewRecorder returns a recorder whose ring retains up to capacity events
// (0 means DefaultRecorderCapacity). Ring storage is grown lazily, so a
// recorder on a small search costs what the search records, not the
// capacity.
func NewRecorder(capacity int) *Recorder {
	if capacity <= 0 {
		capacity = DefaultRecorderCapacity
	}
	return &Recorder{epoch: time.Now(), capacity: capacity}
}

// Enabled reports whether events will be retained (false on nil).
func (r *Recorder) Enabled() bool { return r != nil }

// Epoch returns the instant event timestamps count from (zero time on nil).
func (r *Recorder) Epoch() time.Time {
	if r == nil {
		return time.Time{}
	}
	return r.epoch
}

// BeginSearch allocates the next search id. Each search stamps its events
// with the id so journals of shared recorders (one analysis, many queries)
// stay separable. Returns 0 on nil.
func (r *Recorder) BeginSearch() int32 {
	if r == nil {
		return 0
	}
	return r.searchSeq.Add(1)
}

// Buf returns a fresh event buffer stamping events with the given search
// id. Returns nil (a valid no-op buffer) on a nil recorder.
func (r *Recorder) Buf(search int32) *EventBuf {
	if r == nil {
		return nil
	}
	return &EventBuf{rec: r, search: search}
}

// Commit appends pre-stamped events to the ring. Distinct searches sharing
// a recorder may commit concurrently (the mutex makes that safe, at batch
// granularity).
func (r *Recorder) Commit(evs []Event) {
	if r == nil || len(evs) == 0 {
		return
	}
	r.mu.Lock()
	for _, ev := range evs {
		r.ring.append(ev, r.capacity)
	}
	r.mu.Unlock()
}

// CommitEvent stamps and commits a single event outside any EventBuf — the
// path for one-off control-plane events such as a goal matched by the
// initial state. Nil-safe.
func (r *Recorder) CommitEvent(kind EventKind, search int32, depth int, hash uint64, rule string, n int64) {
	if r == nil {
		return
	}
	r.Commit([]Event{{
		T:      int64(time.Since(r.epoch)),
		Hash:   hash,
		N:      n,
		Rule:   rule,
		Search: search,
		Depth:  int32(depth),
		Kind:   kind,
	}})
}

// Dropped returns how many events were overwritten by ring wrap-around — the
// flight recorder's truncation indicator. A non-zero value means the journal
// holds the most recent events only (and the determinism guarantee no longer
// applies, since which events were overwritten depends on how concurrent
// searches interleaved). Returns 0 on nil.
func (r *Recorder) Dropped() int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return max(0, r.ring.n-int64(r.capacity))
}

// Journal copies the ring into one journal ordered by timestamp, ties
// broken by search id; a search's own events keep the order it recorded
// them in. The ring is left untouched; Journal may be called repeatedly and
// mid-run. Returns nil on a nil recorder.
func (r *Recorder) Journal() []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	out := r.ring.events(r.capacity)
	r.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].T != out[j].T {
			return out[i].T < out[j].T
		}
		return out[i].Search < out[j].Search
	})
	return out
}

// EventBuf collects one search's events off the journal. Record is the
// recorder's hot path: one monotonic clock read and a local append, no
// locks, no sharing. The buffered events reach the ring when the owner calls
// Flush.
type EventBuf struct {
	rec    *Recorder
	search int32
	evs    []Event
}

// Record stamps and buffers one event. No-op on a nil buffer.
func (b *EventBuf) Record(kind EventKind, depth int, hash uint64, rule string, n int64) {
	if b == nil {
		return
	}
	b.evs = append(b.evs, Event{
		T:      int64(time.Since(b.rec.epoch)),
		Hash:   hash,
		N:      n,
		Rule:   rule,
		Search: b.search,
		Depth:  int32(depth),
		Kind:   kind,
	})
}

// Len returns the number of buffered events (0 on nil).
func (b *EventBuf) Len() int {
	if b == nil {
		return 0
	}
	return len(b.evs)
}

// Flush commits the buffered events to the ring and resets the buffer.
// Nil-safe.
func (b *EventBuf) Flush() {
	if b == nil || len(b.evs) == 0 {
		return
	}
	b.rec.Commit(b.evs)
	b.evs = b.evs[:0]
}
