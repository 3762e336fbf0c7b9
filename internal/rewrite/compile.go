package rewrite

// Rule compilation. Every ROSA rule has one shape — a Config-rooted LHS whose
// elements are constructor terms over literals and first-order variables,
// plus at most one free multiset ("rest") variable absorbing the remainder.
// For that fragment the whole match is decidable by a flat sequence of
// constant-time tests, and variable bindings fit in a preallocated slot
// array instead of a map. It is the only rule shape the engine runs.
//
// Compile lowers each rule into such a specialized matcher:
//
//   - every fixed element becomes a flattened decision-tree program — a
//     pre-order instruction list of constructor-symbol/arity tests, literal
//     comparisons, and sort-checked slot binds — executed in lockstep with a
//     pre-order walk of the candidate subject element;
//   - variables get array-indexed binding slots computed at compile time;
//     non-linear occurrences (the same variable in two positions) compile to
//     a slot-equality check instead of a map probe;
//   - guard evaluation (Cond) and replacement construction (BuildAll /
//     Build / RHS substitution) are fused into the enumeration loop; the
//     callbacks read the slot array through a pooled Env, and the
//     remainder configuration is built only if a callback asks for it —
//     neither failed candidates nor guard checks allocate.
//
// A rule outside the fragment (a non-Config root, two rest variables, a
// configuration nested inside an element) is an error naming the rule, and
// a goal pattern outside it is an error naming the goal. The generic
// matcher (generic_test.go) belongs to the test-only reference search, and
// a compiled rule enumerates matches — and therefore replacement terms — in
// exactly its order (fixed elements in pattern order, subject candidates in
// ascending index order, lexicographic backtracking, remainder in subject
// order), so successor sets and witnesses equal the reference's. The
// differential suite (compile_test.go, core/differential_test.go) pins
// this; the FuzzCompileEquivalence harness shakes the fragment boundary.

import (
	"errors"
	"fmt"
	"sync"
)

// copKind discriminates the instructions of a compiled element program.
type copKind uint8

const (
	// cOp: subject node must be an Op with the instruction's symbol and
	// arity; its arguments become the next nodes of the pre-order walk.
	cOp copKind = iota + 1
	// cInt: subject node must be an integer literal with the given value.
	cInt
	// cStr: subject node must be a string literal with the given value.
	cStr
	// cBind: subject node binds the instruction's slot — after the sort
	// check, and as an equality test instead when the slot is already bound
	// (non-linear occurrence).
	cBind
)

// cop is one instruction of a compiled element program. Exactly one
// instruction is executed per pattern node, in pattern pre-order.
type cop struct {
	kind  copKind
	sym   string // cOp: required constructor symbol
	sort  string // cBind: required sort; "" accepts any
	sval  string // cStr: required string value
	ival  int64  // cInt: required integer value
	slot  int32  // cBind: binding slot index
	arity int32  // cOp: required argument count
}

// celem is one fixed configuration element, compiled.
type celem struct {
	prog []cop
}

// compiledRule is one rule lowered to a specialized matcher.
type compiledRule struct {
	rule  *Rule
	fixed []celem // fixed elements, in pattern order
	rest  int     // slot of the remainder variable; -1 when the pattern has none
	names []string
	// names maps slot index -> variable name: the SlotsOf numbering the rule
	// callbacks index their Env with, and the keys Subst needs.
}

// CompiledRules is a rule set's compiled matchers, built once per System by
// Compile and cached alongside the rule index (System.compiled), so servers
// holding a Checker amortize compilation across every query. Entries are
// parallel to the source rule slice.
type CompiledRules struct {
	rules    []*compiledRule
	maxSlots int
	maxFixed int
	pool     sync.Pool // *matcherScratch, sized for the largest rule
}

// Compile lowers every rule to a specialized matcher, or returns an error
// naming the first rule outside the compilable fragment. The rules slice
// must not change afterwards (the same contract the rule index imposes).
func Compile(rules []Rule) (*CompiledRules, error) {
	c := &CompiledRules{rules: make([]*compiledRule, len(rules))}
	for i := range rules {
		cr, err := compileRule(&rules[i])
		if err != nil {
			return nil, fmt.Errorf("rewrite: rule %q: %w", rules[i].Name, err)
		}
		c.rules[i] = cr
		c.maxSlots = max(c.maxSlots, len(cr.names))
		c.maxFixed = max(c.maxFixed, len(cr.fixed))
	}
	c.pool.New = func() any {
		return &matcherScratch{
			slots:  make([]*Term, c.maxSlots),
			choice: make([]int, c.maxFixed),
			marks:  make([]int, c.maxFixed),
		}
	}
	return c, nil
}

// getScratch and putScratch recycle matcher state across expansions; slots
// are all nil between uses (the backtracker's trail discipline restores
// them), so a pooled scratch is indistinguishable from a fresh one.
func (c *CompiledRules) getScratch() *matcherScratch  { return c.pool.Get().(*matcherScratch) }
func (c *CompiledRules) putScratch(m *matcherScratch) { c.pool.Put(m) }

// compileRule lowers one rule, or reports why it is outside the fragment:
// a Config-rooted LHS with at most one rest variable (an unsorted or
// Configuration-sorted variable element) whose fixed elements are
// constructor terms over literals, variables, and nested constructor terms
// — no configurations below the root.
func compileRule(r *Rule) (*compiledRule, error) {
	lhs := r.LHS
	if lhs == nil || lhs.Kind != Config {
		return nil, fmt.Errorf("LHS %v is not a configuration", lhs)
	}
	// Slots are numbered by patternSlots, the table SlotsOf exposes, so the
	// slot numbers rules resolve at construction index this matcher's
	// slot array directly.
	cr := &compiledRule{rule: r}
	cr.names, cr.rest = patternSlots(lhs)
	slots := SlotsOf(lhs)
	slotOf := func(name string) int { return slots[name] }
	restSeen := false
	for _, e := range lhs.Args {
		if e.Kind == Var && (e.Sort == "" || e.Sort == SortConfig) {
			if restSeen {
				return nil, fmt.Errorf("LHS %v has two remainder variables", lhs)
			}
			restSeen = true
			continue
		}
		prog := compileElem(e, slotOf)
		if prog == nil {
			return nil, fmt.Errorf("LHS element %v nests a configuration", e)
		}
		cr.fixed = append(cr.fixed, celem{prog: prog})
	}
	return cr, nil
}

// compileElem flattens one fixed element pattern into its pre-order
// instruction program, or returns nil when the element leaves the fragment
// (a nested configuration).
func compileElem(pat *Term, slotOf func(string) int) []cop {
	var prog []cop
	var walk func(p *Term) bool
	walk = func(p *Term) bool {
		switch p.Kind {
		case Int:
			prog = append(prog, cop{kind: cInt, ival: p.IntVal})
		case Str:
			prog = append(prog, cop{kind: cStr, sval: p.StrVal})
		case Var:
			prog = append(prog, cop{kind: cBind, slot: int32(slotOf(p.Sym)), sort: p.Sort})
		case Op:
			prog = append(prog, cop{kind: cOp, sym: p.Sym, arity: int32(len(p.Args))})
			for _, a := range p.Args {
				if !walk(a) {
					return false
				}
			}
		default: // nested Config
			return false
		}
		return true
	}
	if !walk(pat) {
		return nil
	}
	return prog
}

// matcherScratch is the mutable state of one compiled-match execution:
// binding slots, the undo trail, the injective-selection bookkeeping, and
// the walk/remainder buffers. Pooled per CompiledRules and sized for the
// largest compiled rule, so steady-state matching allocates only what the
// callbacks build (replacements, and the remainder if they ask for it).
type matcherScratch struct {
	slots  []*Term // slot -> bound term; nil = unbound
	trail  []int   // slots bound since the start of the current match, in order
	used   []bool  // subject elements consumed by fixed elements
	nodes  []*Term // pre-order walk stack for matchElem
	rem    []*Term // remainder element buffer (non-linear remainder checks)
	choice []int   // per-level chosen subject index (iterative backtracker)
	marks  []int   // per-level trail mark
	env    Env     // pooled view handed to Cond/Build/BuildAll
}

// undo unbinds every slot bound after mark.
func (m *matcherScratch) undo(mark int) {
	for len(m.trail) > mark {
		m.slots[m.trail[len(m.trail)-1]] = nil
		m.trail = m.trail[:len(m.trail)-1]
	}
}

// matchElem runs one element program against one subject element, walking
// the subject in pre-order lockstep with the instructions. Bindings made
// before a failure stay on the trail — the caller rewinds to its mark — so
// a partial match never leaks state.
func (m *matcherScratch) matchElem(ce *celem, subj *Term, sig Signature) bool {
	stack := m.nodes[:0]
	cur := subj
	ok := true
	prog := ce.prog
	for pc := 0; pc < len(prog); pc++ {
		ins := &prog[pc]
		switch ins.kind {
		case cOp:
			if cur.Kind != Op || len(cur.Args) != int(ins.arity) || cur.Sym != ins.sym {
				ok = false
			} else {
				for i := len(cur.Args) - 1; i >= 0; i-- {
					stack = append(stack, cur.Args[i])
				}
			}
		case cInt:
			ok = cur.Kind == Int && cur.IntVal == ins.ival
		case cStr:
			ok = cur.Kind == Str && cur.StrVal == ins.sval
		case cBind:
			if ins.sort != "" && sig.SortOf(cur) != ins.sort {
				ok = false
			} else if prev := m.slots[ins.slot]; prev != nil {
				ok = prev.Equal(cur) // non-linear occurrence: slot equality
			} else {
				m.slots[ins.slot] = cur
				m.trail = append(m.trail, int(ins.slot))
			}
		}
		if !ok {
			break
		}
		if pc+1 < len(prog) {
			cur = stack[len(stack)-1]
			stack = stack[:len(stack)-1]
		}
	}
	m.nodes = stack[:0] // keep grown capacity
	return ok
}

// apply enumerates every replacement the compiled rule produces at the root
// of subj, appending to out. The enumeration replays the generic matcher
// (the reference search's Rule.apply) exactly: fixed elements in pattern
// order, subject candidates in ascending index order with lexicographic
// backtracking, remainder elements in subject order.
func (cr *compiledRule) apply(subj *Term, sig Signature, m *matcherScratch, out []*Term) []*Term {
	if subj.Kind != Config {
		return out
	}
	n := len(subj.Args)
	k := len(cr.fixed)
	if (cr.rest < 0 && k != n) || k > n {
		return out
	}
	used := m.used[:0]
	for j := 0; j < n; j++ {
		used = append(used, false)
	}
	m.used = used
	if k == 0 {
		return cr.complete(subj, m, out)
	}

	// Iterative backtracking over the injective assignment of fixed elements
	// to subject elements. level is the fixed element being placed, j the
	// next subject candidate to try for it.
	level, j := 0, 0
	for {
		placed := false
		for ; j < n; j++ {
			if used[j] {
				continue
			}
			mark := len(m.trail)
			used[j] = true
			if m.matchElem(&cr.fixed[level], subj.Args[j], sig) {
				m.choice[level] = j
				m.marks[level] = mark
				placed = true
				break
			}
			used[j] = false
			m.undo(mark)
		}
		if placed {
			if level < k-1 {
				level++
				j = 0
				continue
			}
			// Complete assignment: emit, then resume this level at the next
			// candidate (the generic matcher's yield-then-continue).
			out = cr.complete(subj, m, out)
			jj := m.choice[level]
			used[jj] = false
			m.undo(m.marks[level])
			j = jj + 1
			continue
		}
		if level == 0 {
			return out
		}
		level--
		jj := m.choice[level]
		used[jj] = false
		m.undo(m.marks[level])
		j = jj + 1
	}
}

// restOK checks a non-linear remainder: when a fixed element already bound
// the remainder variable, the unmatched elements must equal that binding. A
// linear remainder always matches and is left to Env.Rest to build on
// demand.
func (cr *compiledRule) restOK(subj *Term, m *matcherScratch) bool {
	if cr.rest < 0 || m.slots[cr.rest] == nil {
		return true
	}
	rem := m.rem[:0]
	for j, u := range m.used {
		if !u {
			rem = append(rem, subj.Args[j])
		}
	}
	m.rem = rem
	return m.slots[cr.rest].Equal(NewConfig(rem...))
}

// view points the pooled Env at the current assignment.
func (cr *compiledRule) view(subj *Term, m *matcherScratch) *Env {
	m.env = Env{names: cr.names, slots: m.slots, rest: cr.rest, subj: subj, used: m.used}
	return &m.env
}

// complete handles one full assignment: check a non-linear remainder, then
// run the fused guard + replacement construction over the slot view — the
// body of Rule.apply's yield.
func (cr *compiledRule) complete(subj *Term, m *matcherScratch, out []*Term) []*Term {
	if !cr.restOK(subj, m) {
		return out
	}
	env := cr.view(subj, m)
	r := cr.rule
	if r.Cond == nil || r.Cond(env) {
		switch {
		case r.BuildAll != nil:
			out = append(out, r.BuildAll(env)...)
		case r.Build != nil:
			if nt, ok := r.Build(env); ok {
				out = append(out, nt)
			}
		default:
			out = append(out, Subst(r.RHS, env.binding()))
		}
	}
	m.env = Env{} // drop the subject and the remainder memo
	return out
}

// matchAny reports whether the compiled pattern admits at least one binding
// satisfying the rule's Cond — the compiled form of a goal check. Unlike
// apply it stops at the first success, and it never materializes the
// remainder unless the guard reads it (or the remainder is non-linear), so
// per-state goal checks are allocation-free.
func (cr *compiledRule) matchAny(subj *Term, sig Signature, m *matcherScratch) bool {
	if subj.Kind != Config {
		return false
	}
	n := len(subj.Args)
	k := len(cr.fixed)
	if (cr.rest < 0 && k != n) || k > n {
		return false
	}
	used := m.used[:0]
	for j := 0; j < n; j++ {
		used = append(used, false)
	}
	m.used = used
	if k == 0 {
		return cr.completeAny(subj, m)
	}
	level, j := 0, 0
	for {
		placed := false
		for ; j < n; j++ {
			if used[j] {
				continue
			}
			mark := len(m.trail)
			used[j] = true
			if m.matchElem(&cr.fixed[level], subj.Args[j], sig) {
				m.choice[level] = j
				m.marks[level] = mark
				placed = true
				break
			}
			used[j] = false
			m.undo(mark)
		}
		if placed {
			if level < k-1 {
				level++
				j = 0
				continue
			}
			if cr.completeAny(subj, m) {
				m.undo(0) // leave the pooled scratch clean
				return true
			}
			jj := m.choice[level]
			used[jj] = false
			m.undo(m.marks[level])
			j = jj + 1
			continue
		}
		if level == 0 {
			return false
		}
		level--
		jj := m.choice[level]
		used[jj] = false
		m.undo(m.marks[level])
		j = jj + 1
	}
}

// completeAny is complete's boolean twin: guard-check one full assignment
// without constructing replacements.
func (cr *compiledRule) completeAny(subj *Term, m *matcherScratch) bool {
	if !cr.restOK(subj, m) {
		return false
	}
	if cr.rule.Cond == nil {
		return true
	}
	ok := cr.rule.Cond(cr.view(subj, m))
	m.env = Env{}
	return ok
}

// goalChecker compiles the goal into the per-state predicate one search
// runs, or reports why the goal pattern is outside the compilable fragment.
// The check runs through matchAny — first-match early exit, pooled scratch —
// and profiles show it matters: the goal runs once per explored state,
// which for exhaustive (Safe-verdict) searches is every state in the space.
func (e *engine) goalChecker(goal Goal) (func(*Term) bool, error) {
	gc, err := Compile([]Rule{{LHS: goal.Pattern, Cond: goal.Cond}})
	if err != nil {
		return nil, fmt.Errorf("rewrite: goal %v: %w", goal.Pattern, errors.Unwrap(err))
	}
	cr := gc.rules[0]
	m := gc.getScratch() // single caller goroutine; keep one scratch for the search
	return func(t *Term) bool { return cr.matchAny(t, e.sys.Sig, m) }, nil
}
