package rewrite

import "sync"

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

// Match returns every binding under which pattern matches subject. Matching
// is syntactic for constructor terms and associative-commutative for
// configurations: a configuration pattern's non-variable elements match an
// injective selection of subject elements in any order, and at most one
// configuration-sorted variable absorbs the remainder (Maude's
// "Z:Configuration rest" idiom). Variables bound earlier must match equal
// terms when reused (non-linear patterns).
func Match(pattern, subject *Term, sig Signature) []Binding {
	var out []Binding
	b := getBinding()
	match(pattern, subject, b, sig, func(b Binding) { out = append(out, b.clone()) })
	putBinding(b)
	return out
}

// Matches reports whether pattern matches subject under at least one
// binding.
func Matches(pattern, subject *Term, sig Signature) bool {
	found := false
	b := getBinding()
	match(pattern, subject, b, sig, func(Binding) { found = true })
	putBinding(b)
	return found
}

// bindingPool recycles the scratch Binding the matcher extends in place.
// The backtracker leaves the map empty when enumeration finishes, so a
// pooled map is indistinguishable from a fresh one; putBinding clears
// defensively anyway. Callers of match hand the map to yield by reference —
// the long-standing in-place contract — so yields (and rule callbacks) must
// copy what they keep; pooling only recycles what was already scratch.
var bindingPool = sync.Pool{New: func() any { return make(Binding, 8) }}

func getBinding() Binding { return bindingPool.Get().(Binding) }

func putBinding(b Binding) {
	clear(b)
	bindingPool.Put(b)
}

// configScratch holds matchConfig's per-invocation buffers: the fixed
// element split, the injective-selection bitmap, and the remainder
// collector. Pooled because matchConfig runs once per rule attempt at every
// Config position — the interpreter's hottest allocation site before this
// existed. Nested configuration patterns recurse into a second Get, so each
// live invocation owns its scratch exclusively.
type configScratch struct {
	fixed []*Term
	used  []bool
	rem   []*Term
}

var configScratchPool = sync.Pool{New: func() any { return new(configScratch) }}

// match enumerates bindings, invoking yield for each complete solution. The
// binding passed in is extended in place and restored on backtrack.
func match(pat, subj *Term, b Binding, sig Signature, yield func(Binding)) {
	switch pat.Kind {
	case Int:
		if subj.Kind == Int && subj.IntVal == pat.IntVal {
			yield(b)
		}
	case Str:
		if subj.Kind == Str && subj.StrVal == pat.StrVal {
			yield(b)
		}
	case Var:
		if pat.Sort != "" && sig.SortOf(subj) != pat.Sort {
			return
		}
		if prev, ok := b[pat.Sym]; ok {
			if prev.Equal(subj) {
				yield(b)
			}
			return
		}
		b[pat.Sym] = subj
		yield(b)
		delete(b, pat.Sym)
	case Op:
		if subj.Kind != Op || subj.Sym != pat.Sym || len(subj.Args) != len(pat.Args) {
			return
		}
		matchSeq(pat.Args, subj.Args, 0, b, sig, yield)
	case Config:
		if subj.Kind != Config {
			return
		}
		matchConfig(pat, subj, b, sig, yield)
	}
}

// matchSeq matches pattern arguments positionally.
func matchSeq(pats, subjs []*Term, i int, b Binding, sig Signature, yield func(Binding)) {
	if i == len(pats) {
		yield(b)
		return
	}
	match(pats[i], subjs[i], b, sig, func(b2 Binding) {
		matchSeq(pats, subjs, i+1, b2, sig, yield)
	})
}

// matchConfig implements AC matching of a configuration pattern: fixed
// elements are matched against distinct subject elements in any order; at
// most one configuration-sorted (or unsorted) variable element captures the
// remainder.
func matchConfig(pat, subj *Term, b Binding, sig Signature, yield func(Binding)) {
	sc := configScratchPool.Get().(*configScratch)
	defer configScratchPool.Put(sc)
	fixed := sc.fixed[:0]
	var rest *Term
	for _, e := range pat.Args {
		if e.Kind == Var && (e.Sort == "" || e.Sort == SortConfig) {
			if rest != nil {
				// Two remainder variables are ambiguous; treat the second
				// as unmatchable rather than guessing.
				sc.fixed = fixed
				return
			}
			rest = e
			continue
		}
		fixed = append(fixed, e)
	}
	sc.fixed = fixed // keep grown capacity for the next pooled use
	if rest == nil && len(fixed) != len(subj.Args) {
		return
	}
	if len(fixed) > len(subj.Args) {
		return
	}

	used := sc.used[:0]
	for range subj.Args {
		used = append(used, false)
	}
	sc.used = used
	var assign func(i int)
	assign = func(i int) {
		if i == len(fixed) {
			if rest == nil {
				yield(b)
				return
			}
			remainder := sc.rem[:0]
			for j, u := range used {
				if !u {
					remainder = append(remainder, subj.Args[j])
				}
			}
			sc.rem = remainder
			remTerm := NewConfig(remainder...) // copies; the scratch is free to reuse
			if prev, ok := b[rest.Sym]; ok {
				if prev.Equal(remTerm) {
					yield(b)
				}
				return
			}
			b[rest.Sym] = remTerm
			yield(b)
			delete(b, rest.Sym)
			return
		}
		for j := range subj.Args {
			if used[j] {
				continue
			}
			used[j] = true
			match(fixed[i], subj.Args[j], b, sig, func(b2 Binding) {
				assign(i + 1)
			})
			used[j] = false
		}
	}
	assign(0)
}

// Env is one match of a rule or goal pattern, as the pattern's callbacks
// (Rule.Cond, Rule.Build, Rule.BuildAll, Goal.Cond) see it. Variables are
// read by binding slot — the number SlotsOf assigns, resolved once when the
// rule is built — so a callback on the hot path does no string work:
// At/IntAt are an index, Get/Int a scan of the name table for tests and
// cold code. The remainder variable is built only when asked for (Rest),
// and Replace interns the successor configuration in O(k) from the matched
// subject.
//
// The compiled matcher hands every callback the same pooled Env, and the
// generic matcher builds one from its Binding through the same name table,
// so a callback sees identical values either way. An Env is valid only
// during the callback; callbacks must not keep it.
type Env struct {
	names []string // slot -> variable name (SlotsOf numbering)
	slots []*Term  // slot -> bound term; nil = unbound
	rest  int      // slot of the remainder variable; -1 when the pattern has none
	subj  *Term    // matched configuration; nil for a view over a Binding
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

// bindingEnv returns an Env over pattern's name table with no subject, for
// the generic matcher to fill from its Binding (fill).
func bindingEnv(pattern *Term) *Env {
	names, rest := patternSlots(pattern)
	return &Env{names: names, rest: rest, slots: make([]*Term, len(names))}
}

// fill loads b into the slots through the name table.
func (e *Env) fill(b Binding) {
	for i, n := range e.names {
		e.slots[i] = b[n]
	}
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
// elements are replaced by objs. For a compiled match on an interned
// subject this costs O(k) hashing (replaceConfig); otherwise it is
// Intern(NewConfig(objs..., Rest())).
func (e *Env) Replace(objs ...*Term) *Term {
	if e.subj != nil && e.subj.interned.Load() {
		return replaceConfig(e.subj, e.used, objs)
	}
	elems := make([]*Term, 0, len(objs)+1)
	elems = append(append(elems, objs...), e.Rest())
	return Intern(NewConfig(elems...))
}

// binding materializes the match as a Binding, for Subst.
func (e *Env) binding() Binding {
	b := make(Binding, len(e.names))
	for i, n := range e.names {
		if t := e.At(i); t != nil {
			b[n] = t
		}
	}
	return b
}
