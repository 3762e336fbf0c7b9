package server

// The slow-query journal: a bounded, concurrency-safe record of the top-K
// costliest requests the server has run, queryable on GET /v1/slowlog. Every
// request that produced results (analyze or query, synchronous or job)
// offers its cost vector after execution; the journal keeps the K with the
// highest wall cost, evicting the cheapest — and among equal costs the
// oldest — so a burst of expensive queries never wedges the journal on
// ancient entries. Entries carry the full request identity (kind, label,
// X-Request-ID, priority, queue wait, verdict glyphs), which is what makes
// the journal actionable: an operator goes from a slowlog row to the exact
// request's logs, span tree, and SSE stream by correlation id.

import (
	"container/heap"
	"context"
	"sync"
	"time"

	"privanalyzer/internal/api"
	"privanalyzer/internal/telemetry"
)

// defaultSlowLogSize is the journal bound when Config.SlowLog is zero.
const defaultSlowLogSize = 32

// slowEntry is one journal row.
type slowEntry struct {
	seq         int64
	time        time.Time
	kind        string
	label       string
	requestID   string
	priority    int
	queueWaitNS int64
	verdicts    string
	cost        api.QueryCost

	index int // heap slot
}

// slowHeap is a min-heap by (wall cost, then age): the root is the entry the
// next admission evicts — the cheapest, oldest-first among ties.
type slowHeap []*slowEntry

func (h slowHeap) Len() int { return len(h) }
func (h slowHeap) Less(i, j int) bool {
	if h[i].cost.WallNS != h[j].cost.WallNS {
		return h[i].cost.WallNS < h[j].cost.WallNS
	}
	return h[i].seq < h[j].seq
}
func (h slowHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *slowHeap) Push(x any) {
	e := x.(*slowEntry)
	e.index = len(*h)
	*h = append(*h, e)
}
func (h *slowHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

// slowLog is the journal. All methods are safe for concurrent use.
type slowLog struct {
	mu       sync.Mutex
	capacity int
	seq      int64
	admitted int64
	h        slowHeap
}

func newSlowLog(capacity int) *slowLog {
	if capacity <= 0 {
		capacity = defaultSlowLogSize
	}
	return &slowLog{capacity: capacity, h: make(slowHeap, 0, capacity)}
}

// record offers one finished request to the journal and reports whether it
// was admitted: always while the journal has room, and by evicting the
// cheapest retained entry once full — an offer at or below the current floor
// is dropped. The entry's seq is assigned here.
func (l *slowLog) record(e slowEntry) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.seq++
	e.seq = l.seq
	if len(l.h) >= l.capacity {
		// Full: the root is the cheapest (oldest among ties). A new entry
		// must beat it strictly on cost — equal-cost newcomers lose, which
		// keeps a steady stream of identical costs from churning the journal.
		if e.cost.WallNS <= l.h[0].cost.WallNS {
			return false
		}
		heap.Pop(&l.h)
	}
	heap.Push(&l.h, &e)
	l.admitted++
	return true
}

// snapshot returns up to n retained entries ordered by descending cost (ties
// newest first) plus the journal's lifetime admission count. n <= 0 means
// all retained entries.
func (l *slowLog) snapshot(n int) ([]slowEntry, int64) {
	l.mu.Lock()
	out := make([]slowEntry, len(l.h))
	for i, e := range l.h {
		out[i] = *e
	}
	admitted := l.admitted
	l.mu.Unlock()

	// Descending cost; among equals the more recent entry first.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0; j-- {
			a, b := &out[j-1], &out[j]
			if a.cost.WallNS > b.cost.WallNS ||
				(a.cost.WallNS == b.cost.WallNS && a.seq > b.seq) {
				break
			}
			out[j-1], out[j] = out[j], out[j-1]
		}
	}
	if n > 0 && n < len(out) {
		out = out[:n]
	}
	return out, admitted
}

// size returns the number of retained entries.
func (l *slowLog) size() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.h)
}

// recordSlow offers one finished request to the journal: Server.execute
// calls it with the entry the request's prepared.run returned, its wall time
// filled in, so synchronous endpoints and async jobs feed the same journal.
// This fills in the request's identity. Admissions are summarized in the
// access/structured log with the request's correlation id, so a slowlog row
// and its log records join up.
func (s *Server) recordSlow(ctx context.Context, kind string, e *slowEntry) {
	e.time = time.Now()
	e.kind = kind
	e.requestID = telemetry.RequestID(ctx)
	if m := reqMetaFrom(ctx); m != nil {
		e.priority = int(m.priority.Load())
		e.queueWaitNS = m.queueWaitNS.Load()
	}
	if !s.slow.record(*e) {
		return
	}
	s.reg.Counter("server_slowlog_admitted_total").Add(1)
	s.reg.Gauge("server_slowlog_entries").Set(int64(s.slow.size()))
	telemetry.Logger(ctx).Info("slow query admitted",
		"component", "server",
		"kind", kind,
		"label", e.label,
		"verdicts", e.verdicts,
		"wall_ns", e.cost.WallNS,
		"states", e.cost.StatesExpanded,
		"queue_wait_ns", e.queueWaitNS,
		"priority", e.priority)
}
