package server

// Admission control: the layered gate in front of the priority queue. The
// queue-depth bound (pool.depth) caps how many requests can wait; this file
// caps how much *work* they are allowed to represent. Every admitted request
// carries an estimated cost — a per-kind exponentially-weighted moving
// average over the observed wall time of finished requests (the same figure
// the slow-query journal ranks by) — and the gate rejects when the estimated backlog would exceed the
// configured budget. A rejection is a structured 429 envelope
// ("admission_rejected") carrying retry_after_ms derived from the current
// queue-wait p95, so a well-behaved client backs off by exactly the amount
// the queue is currently late.
//
// The brownout controller (brownout.go) feeds the same gate: at elevated
// levels whole priority classes are shed here before the cost budget is even
// consulted. Shedding is accounted per reason on the server_shed_*_total
// counters.

import (
	"fmt"
	"net/http"
	"sync"
	"time"
)

// Fallback cost estimates used until a kind has observed history. An analyze
// fans out a whole verdict grid; a standalone query is one search.
const (
	defaultAnalyzeCostNS = int64(50 * time.Millisecond)
	defaultQueryCostNS   = int64(10 * time.Millisecond)
)

// ewmaAlpha is the smoothing factor for the per-kind cost estimate: heavy
// enough that a shift in traffic mix re-centers within a few requests, light
// enough that one outlier does not swing the gate.
const ewmaAlpha = 0.2

// Retry-after bounds: the hint is the queue-wait p95, but never below the
// floor (a cold histogram would tell clients to hammer) and never above the
// cap (an outlier-poisoned p95 must not park clients for minutes).
const (
	minRetryAfter = 250 * time.Millisecond
	maxRetryAfter = 30 * time.Second
)

// RejectError is a load-shedding rejection: the admission gate (cost budget
// or brownout class shed) refused the request before it reached the queue.
// Handlers render it as the uniform error envelope with the embedded status,
// code, and retry hint.
type RejectError struct {
	// Status is the HTTP status (429 for admission rejections).
	Status int
	// Code is the stable wire code (api.CodeAdmissionRejected).
	Code string
	// Message is the human-readable reason.
	Message string
	// RetryAfter is the backoff hint (queue-wait p95 derived).
	RetryAfter time.Duration
}

func (e *RejectError) Error() string {
	return fmt.Sprintf("server: %s: %s (retry after %s)", e.Code, e.Message, e.RetryAfter)
}

// Admission is the estimated-cost gate. A zero budget disables the cost
// check (class shedding and the queue bound still apply). All methods are
// safe for concurrent use.
type Admission struct {
	budget int64 // max estimated backlog in ns of work; 0 = off

	mu      sync.Mutex
	backlog int64 // estimated cost of admitted-but-unfinished work
	est     map[string]float64
}

// NewAdmission builds a gate with the given backlog budget: the total
// estimated wall time of admitted-but-unfinished work the server will hold
// before rejecting. 0 disables the cost gate.
func NewAdmission(budget time.Duration) *Admission {
	return &Admission{budget: budget.Nanoseconds(), est: make(map[string]float64)}
}

// estimateLocked returns the expected wall cost of one request of this kind.
func (a *Admission) estimateLocked(kind string) int64 {
	if v, ok := a.est[kind]; ok && v > 0 {
		return int64(v)
	}
	if kind == "analyze" {
		return defaultAnalyzeCostNS
	}
	return defaultQueryCostNS
}

// Admit charges one request of this kind against the backlog budget. It
// returns a ticket to release when the request reaches any terminal state —
// finished, withdrawn, aborted — and ok=false (with a nil ticket and no
// charge) when the charge would push the backlog past the budget.
func (a *Admission) Admit(kind string) (t *ticket, ok bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	cost := a.estimateLocked(kind)
	if a.budget > 0 && a.backlog+cost > a.budget && a.backlog > 0 {
		// backlog > 0: a single request dearer than the whole budget is still
		// admitted into an empty server — the budget sheds bursts, it does
		// not deadlock expensive kinds out entirely.
		return nil, false
	}
	a.backlog += cost
	return &ticket{a: a, cost: cost}, true
}

// Observe feeds one finished request's measured wall time into the kind's
// estimate (Server.execute; the slow-query journal records the same figure).
func (a *Admission) Observe(kind string, wall time.Duration) {
	if wall <= 0 {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if prev, ok := a.est[kind]; ok {
		a.est[kind] = (1-ewmaAlpha)*prev + ewmaAlpha*float64(wall.Nanoseconds())
	} else {
		a.est[kind] = float64(wall.Nanoseconds())
	}
}

// Backlog reports the current estimated backlog (admitted, unfinished).
func (a *Admission) Backlog() time.Duration {
	a.mu.Lock()
	defer a.mu.Unlock()
	return time.Duration(a.backlog)
}

// Estimate reports the current per-kind cost estimate.
func (a *Admission) Estimate(kind string) time.Duration {
	a.mu.Lock()
	defer a.mu.Unlock()
	return time.Duration(a.estimateLocked(kind))
}

// ticket is one admitted request's charge against the backlog. Release is
// idempotent — the terminal paths (ran, withdrawn, aborted, rejected by the
// queue bound) all call it without coordinating.
type ticket struct {
	a    *Admission
	cost int64
	once sync.Once
}

// release returns the ticket's charge to the budget. Nil-safe.
func (t *ticket) release() {
	if t == nil {
		return
	}
	t.once.Do(func() {
		t.a.mu.Lock()
		t.a.backlog -= t.cost
		t.a.mu.Unlock()
	})
}

// retryAfter derives the client backoff hint from the current queue-wait p95
// — "come back when the queue you would have joined has likely moved" —
// clamped to [minRetryAfter, maxRetryAfter].
func (s *Server) retryAfter() time.Duration {
	d := time.Duration(s.reg.Histogram("server_queue_wait_ns").Quantile(0.95))
	if d < minRetryAfter {
		return minRetryAfter
	}
	if d > maxRetryAfter {
		return maxRetryAfter
	}
	return d
}

// admit runs the layered admission decision for one prepared request:
// chaos-injected queue-full storms, brownout class shedding, then the
// estimated-cost budget. The queue-depth bound itself is enforced by the
// subsequent enqueue. On success the returned ticket must be released at the
// request's terminal state; on rejection the shed is already counted.
func (s *Server) admit(kind string, priority int) (*ticket, *RejectError) {
	if s.cfg.ServerFaults.StealAdmission() {
		s.countShed("queue_full")
		return nil, &RejectError{
			Status:     http.StatusServiceUnavailable,
			Code:       "queue_full",
			Message:    "pending queue is full (injected storm)",
			RetryAfter: s.retryAfter(),
		}
	}
	if lvl := s.brown.Level(); (lvl >= BrownoutShedBackground && priority < 0) ||
		(lvl >= BrownoutEmergency && priority <= 0) {
		s.countShed("brownout")
		return nil, &RejectError{
			Status: http.StatusTooManyRequests,
			Code:   "admission_rejected",
			Message: fmt.Sprintf("brownout level %d (%s) is shedding priority %d requests",
				lvl, brownoutLevelName(lvl), priority),
			RetryAfter: s.retryAfter(),
		}
	}
	tkt, ok := s.adm.Admit(kind)
	if !ok {
		s.countShed("cost")
		return nil, &RejectError{
			Status: http.StatusTooManyRequests,
			Code:   "admission_rejected",
			Message: fmt.Sprintf("estimated backlog %s exceeds the queue cost budget %s",
				s.adm.Backlog().Round(time.Millisecond), s.cfg.MaxQueueCost),
			RetryAfter: s.retryAfter(),
		}
	}
	return tkt, nil
}

// countShed bumps the per-reason shed counter (server_shed_<reason>_total)
// and the legacy rejected total.
func (s *Server) countShed(reason string) {
	s.reg.Counter("server_shed_" + reason + "_total").Add(1)
	s.reg.Counter("server_rejected_total").Add(1)
}
