package rewrite

import "sync"

// The generic matcher: syntactic matching for constructor terms and AC
// matching for configurations, through a map Binding and a backtracking
// enumeration. The engine runs only compiled matchers (compile.go); this one
// is the oracle they are held to. The reference search (reference_test.go)
// applies rules and checks goals through it, and the equivalence tests and
// FuzzCompileEquivalence compare its bindings, in enumeration order, with
// the compiled matcher's (matchCompiled).

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

// slotLayout is a pattern's slot table — patternSlots' slot -> name list
// and remainder slot — shared read-only by every Env over the pattern.
type slotLayout struct {
	names []string
	rest  int
}

// layoutOf builds pattern's slot table. The generic matcher fills an Env
// through it on every match, so callers that match one pattern repeatedly
// build it once and pass it along.
func layoutOf(pattern *Term) *slotLayout {
	names, rest := patternSlots(pattern)
	return &slotLayout{names: names, rest: rest}
}

// envOver returns an Env over l with no subject, for the generic matcher to
// fill from its Binding (fill); a nil l is built from pattern.
func envOver(l *slotLayout, pattern *Term) *Env {
	if l == nil {
		l = layoutOf(pattern)
	}
	return &Env{names: l.names, rest: l.rest, slots: make([]*Term, len(l.names))}
}

// fill loads b into the slots through the name table.
func (e *Env) fill(b Binding) {
	for i, n := range e.names {
		e.slots[i] = b[n]
	}
}

// matches reports whether state satisfies the goal. l is the pattern's
// slot table, as for Rule.apply.
func (g Goal) matches(state *Term, sig Signature, l *slotLayout) bool {
	ok := false
	scratch := getBinding()
	defer putBinding(scratch)
	var env *Env
	match(g.Pattern, state, scratch, sig, func(b Binding) {
		if g.Cond == nil {
			ok = true
			return
		}
		if env == nil {
			env = envOver(l, g.Pattern)
		}
		env.fill(b)
		if g.Cond(env) {
			ok = true
		}
	})
	return ok
}

// clone copies a binding for backtracking.
func (b Binding) clone() Binding {
	out := make(Binding, len(b)+2)
	for k, v := range b {
		out[k] = v
	}
	return out
}

// matchCompiled returns every binding the compiled rule's LHS admits against
// subj, in enumeration order — the compiled counterpart of Match(lhs, subj),
// used by the equivalence tests and fuzzer to compare the two matchers
// directly, without the rule callbacks in the way.
func (cr *compiledRule) matchCompiled(subj *Term, sig Signature, m *matcherScratch) []Binding {
	// Reuse apply's enumeration through a shadow rule whose BuildAll records
	// the binding instead of building a replacement.
	var outB []Binding
	probe := Rule{LHS: cr.rule.LHS, BuildAll: func(e *Env) []*Term {
		outB = append(outB, e.binding())
		return nil
	}}
	shadow := *cr
	shadow.rule = &probe
	shadow.apply(subj, sig, m, nil)
	return outB
}
