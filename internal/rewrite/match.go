package rewrite

// Signature assigns result sorts to constructor symbols, so sorted variables
// (e.g. G:procState) only match terms of their sort. Integers always have
// sort "Int", strings "String", and configurations "Configuration"; symbols
// absent from the signature have the empty sort, which only unsorted
// variables match.
type Signature map[string]string

// Built-in sort names.
const (
	SortInt    = "Int"
	SortString = "String"
	SortConfig = "Configuration"
)

// SortOf returns the sort of a term under the signature.
func (s Signature) SortOf(t *Term) string {
	switch t.Kind {
	case Int:
		return SortInt
	case Str:
		return SortString
	case Config:
		return SortConfig
	case Op:
		return s[t.Sym]
	default:
		return ""
	}
}

// Env is one match of a rule or goal pattern, as the pattern's callbacks
// (Rule.Cond, Rule.BuildAll, Goal.Cond) see it. Variables are read by
// binding slot — the number SlotsOf assigns, resolved once when the rule is
// built — so a callback on the hot path does no string work: At/IntAt are
// an index, Get/Int a scan of the name table for tests and cold code. The
// remainder variable is built only when asked for (Rest), and Replace
// interns the successor configuration in O(k) from the matched subject.
//
// The compiled matcher hands every callback the same pooled Env over the
// interned state it matched. The test-only oracles (generic_test.go,
// reference_test.go) build theirs from a map binding through the same name
// table, with no subject, so a callback sees identical values either way.
// An Env is valid only during the callback; callbacks must not keep it.
type Env struct {
	names []string // slot -> variable name (SlotsOf numbering)
	slots []*Term  // slot -> bound term; nil = unbound
	rest  int      // slot of the remainder variable; -1 when the pattern has none
	subj  *Term    // matched configuration; nil for a test oracle's view
	used  []bool   // subj elements consumed by the pattern's fixed elements
	restT *Term    // memoized remainder of a compiled match
}

// SlotsOf numbers pattern's variables the way the compiled matcher numbers
// its binding slots: by first occurrence in a pre-order walk. Rules call it
// once, at construction, and read their callbacks' Env with At/IntAt.
func SlotsOf(pattern *Term) map[string]int {
	names, _ := patternSlots(pattern)
	out := make(map[string]int, len(names))
	for i, n := range names {
		out[n] = i
	}
	return out
}

// patternSlots returns pattern's slot -> variable name table (SlotsOf's
// numbering) and the slot of the remainder variable — the first unsorted or
// Configuration-sorted variable element of a configuration root, the one
// the matchers bind to the unmatched elements — or -1 without one.
func patternSlots(pattern *Term) (names []string, rest int) {
	rest = -1
	seen := make(map[string]int)
	var walk func(p *Term)
	walk = func(p *Term) {
		switch p.Kind {
		case Var:
			if _, ok := seen[p.Sym]; !ok {
				seen[p.Sym] = len(names)
				names = append(names, p.Sym)
			}
		case Op, Config:
			for _, a := range p.Args {
				walk(a)
			}
		}
	}
	if pattern == nil {
		return nil, -1
	}
	walk(pattern)
	if pattern.Kind == Config {
		for _, e := range pattern.Args {
			if e.Kind == Var && (e.Sort == "" || e.Sort == SortConfig) {
				rest = seen[e.Sym]
				break
			}
		}
	}
	return names, rest
}

// At returns the term bound to slot, or nil when it is unbound.
func (e *Env) At(slot int) *Term {
	if slot == e.rest {
		return e.Rest()
	}
	return e.slots[slot]
}

// IntAt returns the integer bound to slot, with ok=false when the slot is
// unbound or not an integer.
func (e *Env) IntAt(slot int) (int64, bool) {
	t := e.At(slot)
	if t == nil || t.Kind != Int {
		return 0, false
	}
	return t.IntVal, true
}

// Get returns the term bound to the named variable, or nil.
func (e *Env) Get(name string) *Term {
	for i, n := range e.names {
		if n == name {
			return e.At(i)
		}
	}
	return nil
}

// Int returns the integer bound to the named variable, with ok=false when
// it is unbound or not an integer.
func (e *Env) Int(name string) (int64, bool) {
	t := e.Get(name)
	if t == nil || t.Kind != Int {
		return 0, false
	}
	return t.IntVal, true
}

// Rest returns the configuration bound to the pattern's remainder variable
// — the subject's elements the fixed elements did not consume — or nil when
// the pattern has none. A compiled match builds it on the first call.
func (e *Env) Rest() *Term {
	if e.rest < 0 {
		return nil
	}
	if t := e.slots[e.rest]; t != nil || e.subj == nil {
		return t
	}
	if e.restT == nil {
		// Configurations are born in canonical order (NewConfig, Intern),
		// so the unmatched elements, a subsequence, need no sort.
		rem := make([]*Term, 0, len(e.subj.Args))
		for j, u := range e.used {
			if !u {
				rem = append(rem, e.subj.Args[j])
			}
		}
		e.restT = &Term{Kind: Config, Args: rem}
	}
	return e.restT
}

// Replace returns the canonical (interned) configuration holding the
// unmatched elements plus objs: the successor of a rule whose fixed
// elements are replaced by objs. For a compiled match, whose subject the
// search interned first, this costs O(k) hashing (replaceConfig). The
// other branch, Intern(NewConfig(objs..., Rest())), serves an Env with no
// subject or an uninterned one, which only the test oracles build: the
// reference search, which by design shares no interning with the engine,
// and benchmarks that apply a rule to a fresh NewConfig term.
func (e *Env) Replace(objs ...*Term) *Term {
	if e.subj != nil && e.subj.interned.Load() {
		return replaceConfig(e.subj, e.used, objs)
	}
	elems := make([]*Term, 0, len(objs)+1)
	elems = append(append(elems, objs...), e.Rest())
	return Intern(NewConfig(elems...))
}
