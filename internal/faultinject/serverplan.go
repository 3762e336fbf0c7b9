package faultinject

import (
	"fmt"
	"sync/atomic"
	"time"
)

// ServerPlan is the serving-layer counterpart of Plan: deterministic fault
// points for the privanalyzerd admission/execution path rather than the
// search engine. The server consults it at two sites — the queue's
// saturation check (queue-full storms, answered exactly as a full queue) and
// the moment a pool worker picks a request up (panics, stalls).
// A nil *ServerPlan is a valid no-op, so the server checks it
// unconditionally. Like Plan, every point fires on an exact counted
// occurrence: chaos tests replay identically.
type ServerPlan struct {
	// PanicAtRequest panics inside the Nth (1-based) executed request,
	// simulating a handler bug escaping onto a pool worker. 0 disables.
	PanicAtRequest int64
	// StallAtRequest stalls the Nth (1-based) executed request for StallFor
	// before it runs — a wedged worker that ignores cancellation, the case
	// graceful drain must never wait on unboundedly. 0 disables.
	StallAtRequest int64
	// StallFor is how long the StallAtRequest fault sleeps.
	StallFor time.Duration
	// RejectSubmits makes the next N admissions report a full queue — a
	// queue-full storm without needing to actually fill the queue. 0 disables.
	RejectSubmits int64

	requests atomic.Int64
	rejects  atomic.Int64
}

// ServerPanicValue is the value a PanicAtRequest fault panics with; the
// server's recovery path preserves it in the 500 envelope's message.
type ServerPanicValue struct {
	// Request is the 1-based executed-request count at which the panic fired.
	Request int64
}

// String renders the panic value for logs and error envelopes.
func (p ServerPanicValue) String() string {
	return fmt.Sprintf("faultinject: injected handler panic at request %d", p.Request)
}

// BeforeExecute advances the plan's executed-request counter and fires any
// request-keyed fault: it sleeps the stall, then panics with a
// ServerPanicValue. Called by the server on a pool worker immediately before
// the request runs. Nil-safe.
func (p *ServerPlan) BeforeExecute() {
	if p == nil {
		return
	}
	n := p.requests.Add(1)
	if p.StallAtRequest > 0 && n == p.StallAtRequest && p.StallFor > 0 {
		time.Sleep(p.StallFor)
	}
	if p.PanicAtRequest > 0 && n == p.PanicAtRequest {
		panic(ServerPanicValue{Request: n})
	}
}

// StealAdmission consumes one injected queue-full rejection, reporting true
// while the storm lasts (the first RejectSubmits calls). Nil-safe.
func (p *ServerPlan) StealAdmission() bool {
	if p == nil || p.RejectSubmits <= 0 {
		return false
	}
	for {
		cur := p.rejects.Load()
		if cur >= p.RejectSubmits {
			return false
		}
		if p.rejects.CompareAndSwap(cur, cur+1) {
			return true
		}
	}
}

// Requests returns how many executions the plan has observed. Nil-safe.
func (p *ServerPlan) Requests() int64 {
	if p == nil {
		return 0
	}
	return p.requests.Load()
}
