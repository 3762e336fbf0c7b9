package rewrite

import (
	"fmt"
)

// SearchError is the typed failure of one search: a panic recovered while
// expanding a state. The search engine converts it into a SearchError
// carrying the interned hash of the state being expanded, so a fault is
// attributable after the fact. Callers (rosa.Query) map a SearchError to the
// Unknown (⏱) verdict with the error recorded, and the analysis keeps
// running its remaining queries — a faulted query degrades, it does not take
// the pipeline down.
type SearchError struct {
	// StateHash is the interned structural hash of the state whose expansion
	// failed.
	StateHash uint64
	// Panic is the recovered panic value.
	Panic any
	// Stack is the goroutine stack captured at recovery — the post-mortem
	// for a panic that no longer crashes the process.
	Stack []byte
}

// Error renders the failure with its state attribution.
func (e *SearchError) Error() string {
	return fmt.Sprintf("rewrite: search panicked expanding state %#x: %v", e.StateHash, e.Panic)
}

// Unwrap exposes a panic value that was itself an error to errors.Is/As
// chains.
func (e *SearchError) Unwrap() error {
	err, _ := e.Panic.(error)
	return err
}
