// Package faultinject provides deterministic fault points for chaos-testing
// the search pipeline. A Plan names the faults to inject — a panic or
// successor error at a chosen expansion, injected expansion latency, a
// context cancellation at the start of a chosen BFS level — and the search
// engine consults it at the matching sites (rewrite.Options.Faults). A nil
// *Plan is a valid no-op, mirroring the telemetry registry and recorder, so
// the engine checks it unconditionally at the cost of one nil test per site.
//
// Determinism: every fault point fires on an exact, counted occurrence, not
// on randomness, so a chaos test replays identically. A search expands its
// states one at a time in breadth-first order, so counter-keyed points (the
// Nth expansion) land on the same state in every run of one search. A plan
// shared by concurrent searches counts their expansions together; which
// search the Nth lands in then follows the schedule, with still exactly one
// firing. State-keyed points (PanicOnState, ErrOnState) fire when the state
// with the given interned hash is expanded, once per search, because
// deduplication expands each state at most once.
package faultinject

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"
)

// Injected fault sentinels. Chaos tests match them with errors.Is through
// the rewrite.SearchError wrapper.
var (
	// ErrInjected is the successor error returned at an ErrAtExpansion /
	// ErrOnState fault point.
	ErrInjected = errors.New("faultinject: injected successor error")
	// ErrInjectedCancel marks a search interrupted by a CancelAtLevel fault.
	ErrInjectedCancel = errors.New("faultinject: injected cancellation")
)

// PanicValue is the value a PanicAtExpansion / PanicOnState fault panics
// with; the recover path preserves it in SearchError.Panic.
type PanicValue struct {
	// Expansion is the 1-based expansion count at which the panic fired.
	Expansion int64
	// StateHash is the interned hash of the state being expanded.
	StateHash uint64
}

// String renders the panic value for logs and SearchError messages.
func (p PanicValue) String() string {
	return fmt.Sprintf("faultinject: injected panic at expansion %d (state %#x)", p.Expansion, p.StateHash)
}

// Plan is one deterministic set of fault points. The zero value injects
// nothing; fields select faults by exact occurrence. Plans are safe for
// concurrent use and may span multiple searches
// (the expansion counter is global to the plan, so a plan shared by an
// analysis's query fan-out faults exactly one query).
type Plan struct {
	// PanicAtExpansion panics inside the Nth (1-based) successor expansion,
	// simulating a crashed search. 0 disables.
	PanicAtExpansion int64
	// PanicOnState panics when the state with this interned hash is
	// expanded (schedule-independent). 0 disables.
	PanicOnState uint64
	// ErrAtExpansion makes the Nth (1-based) expansion fail with
	// ErrInjected. 0 disables.
	ErrAtExpansion int64
	// ErrOnState fails the expansion of the state with this interned hash.
	// 0 disables.
	ErrOnState uint64
	// ExpansionLatency is added to every expansion (0 = none) — the
	// slow-search chaos mode, for shaking out cancellation races.
	ExpansionLatency time.Duration
	// CancelAtLevel cancels the search's context when the BFS level with
	// this depth starts, at most once per plan (the level's first expansion
	// observes the cancellation). 0 disables; level 0 is the root level.
	CancelAtLevel int

	expansions  atomic.Int64
	cancelFired atomic.Bool
}

// BeforeExpansion advances the plan's expansion counter and fires any
// expansion-keyed fault for the state being expanded: it sleeps the injected
// latency, panics with a PanicValue, or returns ErrInjected. Nil-safe.
func (p *Plan) BeforeExpansion(stateHash uint64) error {
	if p == nil {
		return nil
	}
	n := p.expansions.Add(1)
	if p.ExpansionLatency > 0 {
		time.Sleep(p.ExpansionLatency)
	}
	if (p.PanicAtExpansion > 0 && n == p.PanicAtExpansion) ||
		(p.PanicOnState != 0 && stateHash == p.PanicOnState) {
		panic(PanicValue{Expansion: n, StateHash: stateHash})
	}
	if (p.ErrAtExpansion > 0 && n == p.ErrAtExpansion) ||
		(p.ErrOnState != 0 && stateHash == p.ErrOnState) {
		return fmt.Errorf("%w (expansion %d, state %#x)", ErrInjected, n, stateHash)
	}
	return nil
}

// CancelLevel reports whether the CancelAtLevel fault fires at the start of
// the BFS level with the given depth. It fires at most once per plan.
// Nil-safe.
func (p *Plan) CancelLevel(depth int) bool {
	if p == nil || p.CancelAtLevel == 0 || depth != p.CancelAtLevel {
		return false
	}
	return p.cancelFired.CompareAndSwap(false, true)
}

// Expansions returns how many expansions the plan has observed — chaos tests
// use it to place counter-keyed faults inside a run they first measured.
// Nil-safe.
func (p *Plan) Expansions() int64 {
	if p == nil {
		return 0
	}
	return p.expansions.Load()
}
