package rewrite

import (
	"fmt"
)

// SearchError is the typed failure of one search: a panic recovered while
// expanding a state, or an error computing a state's successor set. The
// search engine converts both into a SearchError carrying the interned hash
// of the state being expanded, so a fault is attributable after the fact. Callers (rosa.Query) map a SearchError to the
// Unknown (⏱) verdict with the error recorded, and the analysis keeps
// running its remaining queries — a faulted query degrades, it does not take
// the pipeline down.
type SearchError struct {
	// StateHash is the interned structural hash of the state whose expansion
	// failed (0 when the failure is not tied to a state, e.g. an injected
	// cancellation).
	StateHash uint64
	// Panic is the recovered panic value when the fault was a panic;
	// nil for plain errors.
	Panic any
	// Stack is the goroutine stack captured at recovery (nil for plain
	// errors) — the post-mortem for a panic that no longer crashes the
	// process.
	Stack []byte
	// Err is the underlying error for non-panic faults; nil when Panic is
	// set (unless the panic value itself was an error).
	Err error
}

// Error renders the failure with its state attribution.
func (e *SearchError) Error() string {
	switch {
	case e.Panic != nil:
		return fmt.Sprintf("rewrite: search panicked expanding state %#x: %v", e.StateHash, e.Panic)
	case e.Err != nil:
		return fmt.Sprintf("rewrite: search failed expanding state %#x: %v", e.StateHash, e.Err)
	default:
		return fmt.Sprintf("rewrite: search failed expanding state %#x", e.StateHash)
	}
}

// Unwrap exposes the underlying error to errors.Is/As chains. A recovered
// panic whose value was itself an error unwraps to it.
func (e *SearchError) Unwrap() error {
	if e.Err != nil {
		return e.Err
	}
	if err, ok := e.Panic.(error); ok {
		return err
	}
	return nil
}
