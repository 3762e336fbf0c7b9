// Package rewrite is a miniature Maude: a term rewriting engine providing
// the object-configuration fragment of Maude 2.7 that the paper's ROSA
// bounded model checker uses (§IV, §VI). It supports constructor terms with
// sorts, variables, conditional rewrite rules with computed right-hand
// sides applied at the root of an object configuration (the Object Maude
// "soup" of objects and messages) by associative-commutative matching, and
// a bounded breadth-first search command with canonical-state
// deduplication — the counterpart of Maude's `search` used in the paper's
// Figure 4. There are no equations: interning alone makes states
// canonical.
package rewrite

import (
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
)

// Kind discriminates term shapes.
type Kind uint8

// Term kinds.
const (
	// Int is an integer constant.
	Int Kind = iota + 1
	// Str is a string constant.
	Str
	// Op is a constructor application: a symbol with zero or more argument
	// terms. A zero-argument Op is a constant symbol.
	Op
	// Var is a named variable, optionally constrained to a sort; it appears
	// only in patterns.
	Var
	// Config is an associative-commutative multiset of terms — Object
	// Maude's configuration of objects and messages.
	Config
)

// Term is an immutable term. Construct terms with the helper functions and
// never mutate fields after construction; the engine shares subterms freely.
// String and Hash memoize their results atomically, so terms may be shared
// between concurrent searches. Always handle terms as *Term — the
// memo fields make the struct non-copyable.
type Term struct {
	Kind Kind
	// Sym is the constructor symbol (Op) or variable name (Var).
	Sym string
	// Sort constrains a Var; empty matches any sort.
	Sort string
	// IntVal is the value of an Int term.
	IntVal int64
	// StrVal is the value of a Str term.
	StrVal string
	// Args are the arguments of an Op or the elements of a Config.
	Args []*Term

	str      atomic.Pointer[string] // memoized canonical rendering
	hash     atomic.Uint64          // memoized structural hash; 0 = unset
	interned atomic.Bool            // set once by Intern on the canonical copy
}

// smallInts caches the canonical terms for small non-negative integers —
// the ids, uids/gids, modes, and capability indices the ROSA models build
// on every rule firing. Sharing them is safe because terms are immutable,
// and profitable twice over: the rule callbacks stop allocating for their
// hottest constructor, and after the first Intern of each value the shared
// pointer carries the interned flag, so successor interning takes the
// one-atomic-load fast path on every integer argument.
var smallInts = func() [4096]*Term {
	var ts [4096]*Term
	for i := range ts {
		ts[i] = &Term{Kind: Int, IntVal: int64(i)}
	}
	return ts
}()

// NewInt returns an integer term.
func NewInt(v int64) *Term {
	if 0 <= v && v < int64(len(smallInts)) {
		return smallInts[v]
	}
	return &Term{Kind: Int, IntVal: v}
}

// NewStr returns a string term.
func NewStr(s string) *Term { return &Term{Kind: Str, StrVal: s} }

// NewOp returns a constructor application.
func NewOp(sym string, args ...*Term) *Term {
	return &Term{Kind: Op, Sym: sym, Args: args}
}

// NewVar returns a variable with an optional sort constraint (empty sort
// matches anything), e.g. NewVar("Z", "Configuration").
func NewVar(name, sort string) *Term {
	return &Term{Kind: Var, Sym: name, Sort: sort}
}

// NewConfig returns a configuration holding the given elements. Nested
// configurations are flattened (associativity).
func NewConfig(elems ...*Term) *Term {
	// Exact capacity up front: rule rebuilds splice a whole remainder
	// configuration in as one element, so sizing by len(elems) alone would
	// grow-copy on nearly every successor construction.
	n := 0
	for _, e := range elems {
		if e == nil {
			continue
		}
		if e.Kind == Config {
			n += len(e.Args)
		} else {
			n++
		}
	}
	flat := make([]*Term, 0, n)
	for _, e := range elems {
		if e == nil {
			continue
		}
		if e.Kind == Config {
			flat = append(flat, e.Args...)
		} else {
			flat = append(flat, e)
		}
	}
	// Configurations are born in the canonical engine order (ascending
	// structural hash; see sortConfigArgs). Rule rebuilds splice an
	// already-sorted remainder plus a few fresh objects, so this is O(n)
	// in the common case — and it makes the interner's probe and the
	// canonicalization pass order-checks instead of sort-and-copy work.
	if len(flat) > 1 {
		sortConfigArgs(flat)
	}
	return &Term{Kind: Config, Args: flat}
}

// IsInt reports whether t is an integer term.
func (t *Term) IsInt() bool { return t != nil && t.Kind == Int }

// Equal reports structural equality modulo configuration element order.
// It compares structurally (with hash-guided alignment of configuration
// elements) and never renders, so it is cheap and safe under concurrency.
// Interned terms (hash-consed by Intern) compare by pointer alone: the
// interner maps each equivalence class to one canonical term.
func (t *Term) Equal(u *Term) bool {
	if t == u {
		return true
	}
	if t == nil || u == nil {
		return false
	}
	if t.interned.Load() && u.interned.Load() {
		return false // distinct canonical representatives
	}
	if t.Hash() != u.Hash() {
		return false
	}
	return structEqual(t, u)
}

// String renders the term canonically: configurations print their elements
// sorted, so equal configurations render identically. The rendering is
// memoized atomically; concurrent first renderings both compute the same
// string and one wins.
func (t *Term) String() string {
	if t == nil {
		return "<nil>"
	}
	if s := t.str.Load(); s != nil {
		return *s
	}
	var b strings.Builder
	t.render(&b)
	s := b.String()
	t.str.Store(&s)
	return s
}

func (t *Term) render(b *strings.Builder) {
	switch t.Kind {
	case Int:
		b.WriteString(strconv.FormatInt(t.IntVal, 10))
	case Str:
		b.WriteString(strconv.Quote(t.StrVal))
	case Var:
		b.WriteString(t.Sym)
		b.WriteByte(':')
		if t.Sort == "" {
			b.WriteString("Universal")
		} else {
			b.WriteString(t.Sort)
		}
	case Op:
		b.WriteString(t.Sym)
		if len(t.Args) > 0 {
			b.WriteByte('(')
			for i, a := range t.Args {
				if i > 0 {
					b.WriteByte(',')
				}
				a.render(b)
			}
			b.WriteByte(')')
		}
	case Config:
		keys := make([]string, len(t.Args))
		for i, a := range t.Args {
			keys[i] = a.String()
		}
		sort.Strings(keys)
		b.WriteByte('{')
		for i, k := range keys {
			if i > 0 {
				b.WriteByte(' ')
			}
			b.WriteString(k)
		}
		b.WriteByte('}')
	default:
		b.WriteString("<bad term>")
	}
}

// HasVars reports whether the term contains any variables.
func (t *Term) HasVars() bool {
	switch t.Kind {
	case Var:
		return true
	case Op, Config:
		for _, a := range t.Args {
			if a.HasVars() {
				return true
			}
		}
	}
	return false
}
