package rewrite

import (
	"fmt"
	"strings"
	"testing"
)

// The reference search: the oracle the engine's differential tests compare
// against. It is Maude's `search init =>* goal` written as plainly as the
// semantics allow, and shares none of the engine's machinery — no rule
// index, no compiled matchers, no transition cache, no interning, no
// pointer-keyed visited set. Every rule is tried through
// the generic Rule.apply at every position — the root and, recursively,
// every argument below it, as Maude's congruence rewriting does — and
// visited states are kept in a structural set. The engine's results —
// verdict, witness, state count, frontier shape, rule firings, dedup hits —
// must equal the reference's exactly. The engine tries rules at the root
// only; the reference counts the successors it finds below the root
// (refResult.BelowRoot), and the tests that compare the two also check
// that count is 0, which is what makes root-only rewriting lose nothing.
//
// Enumeration order matches the engine's without sorting anything here:
// configurations are born in canonical element order (NewConfig), so a
// state's successors come out in the same rule-then-position order the
// engine's walk produces.

// apply returns every replacement term the rule produces at the root of t —
// the generic matcher's path. Callbacks get an Env filled from each
// Binding through l, the LHS's slot table (layoutOf); callers that apply
// the rule repeatedly build it once, and nil builds it at the first match.
func (r *Rule) apply(t *Term, sig Signature, l *slotLayout) []*Term {
	if k := r.LHS.Kind; k != Var && (k != t.Kind || k == Op && r.LHS.Sym != t.Sym) {
		return nil // the root cannot match; skip the matcher's allocations
	}
	var out []*Term
	scratch := getBinding()
	defer putBinding(scratch)
	var env *Env
	match(r.LHS, t, scratch, sig, func(b Binding) {
		if env == nil {
			env = envOver(l, r.LHS)
		}
		env.fill(b)
		if r.Cond == nil || r.Cond(env) {
			out = append(out, r.BuildAll(env)...)
		}
	})
	return out
}

// refOptions are the reference search's knobs: the bounds it shares with
// Options, plus the two ablations (no deduplication, LIFO frontier) the
// engine does not offer.
type refOptions struct {
	// MaxStates and MaxDepth bound the search as in Options; 0 means
	// unbounded.
	MaxStates, MaxDepth int
	// NoDedup disables the visited set: every generated successor is a new
	// state, so a bound is needed to terminate.
	NoDedup bool
	// DepthFirst pops the newest state instead of the oldest. Frontier and
	// Depth stay unset, since DFS has no levels.
	DepthFirst bool
	// MaxExpansions stops the search, Interrupted, where the engine stops
	// when expansion MaxExpansions+1 panics; 0 means unbounded.
	MaxExpansions int
}

// refNode is a worklist entry with a parent link for the witness.
type refNode struct {
	state  *Term
	rule   string
	parent *refNode
	depth  int
}

// refResult is a reference search's outcome: the result the engine's is
// compared with, plus two counts only the every-position walk can take.
type refResult struct {
	*SearchResult
	// RootAttempts counts the rules tried at the root of an expanded state
	// — the attempts the engine makes or its index skips.
	RootAttempts int64
	// BelowRoot counts the replacements rules produced at positions below
	// an expanded state's root, before deduplication. The engine never
	// looks there, so it must be 0 wherever the two are compared.
	BelowRoot int64
}

// referenceSearch runs the reference search. Stats carries Frontier, Depth,
// RuleFirings and DedupHits with the engine's meanings.
func referenceSearch(sys *System, init *Term, goal Goal, o refOptions) (*refResult, error) {
	start := init
	stats := &SearchStats{RuleFirings: make(map[string]int)}
	res := &refResult{SearchResult: &SearchResult{StatesExplored: 1, Stats: stats}}
	layouts, goalLayout := ruleLayouts(sys), layoutOf(goal.Pattern)
	if goal.matches(start, sys.Sig, goalLayout) {
		res.Found, res.Final = true, start
		return res, nil
	}
	visited := newStateSet()
	visited.add(start)
	work := []*refNode{{state: start}}
	expanded := 0
	for len(work) > 0 {
		var n *refNode
		if o.DepthFirst {
			n, work = work[len(work)-1], work[:len(work)-1]
		} else {
			n, work = work[0], work[1:]
		}
		if o.MaxDepth > 0 && n.depth >= o.MaxDepth {
			continue
		}
		if !o.DepthFirst && n.depth == len(stats.Frontier) {
			// The first state of a level: the rest of the level is queued
			// behind it, and nothing deeper is queued yet.
			stats.Frontier = append(stats.Frontier, len(work)+1)
			stats.Depth = n.depth
		}
		if o.MaxExpansions > 0 && expanded == o.MaxExpansions {
			res.Interrupted = true
			return res, nil
		}
		expanded++
		succs, counts := referenceSuccessors(sys, layouts, n.state)
		res.RootAttempts += counts.RootAttempts
		res.BelowRoot += counts.BelowRoot
		for _, st := range succs {
			stats.RuleFirings[st.Rule]++
			if !o.NoDedup && !visited.add(st.Result) {
				stats.DedupHits++
				continue
			}
			if o.MaxStates > 0 && res.StatesExplored >= o.MaxStates {
				res.Truncated = true
				return res, nil
			}
			res.StatesExplored++
			child := &refNode{state: st.Result, rule: st.Rule, parent: n, depth: n.depth + 1}
			if goal.matches(st.Result, sys.Sig, goalLayout) {
				res.Found, res.Final = true, st.Result
				for c := child; c.parent != nil; c = c.parent {
					res.Witness = append([]Step{{Rule: c.rule, Result: c.state}}, res.Witness...)
				}
				return res, nil
			}
			work = append(work, child)
		}
	}
	return res, nil
}

// ruleLayouts returns the slot table of each of sys's rules, for
// referenceSuccessors.
func ruleLayouts(sys *System) []*slotLayout {
	out := make([]*slotLayout, len(sys.Rules))
	for i := range sys.Rules {
		out[i] = layoutOf(sys.Rules[i].LHS)
	}
	return out
}

// refCounts are referenceSuccessors' attempt and below-root counts for one
// expansion (see refResult).
type refCounts struct {
	RootAttempts, BelowRoot int64
}

// referenceSuccessors returns t's one-step successors: every rule at every
// position (the position itself first, then its arguments left to right),
// each replacement rebuilt into t, structural duplicates dropped. layouts
// holds the rules' slot tables (ruleLayouts).
func referenceSuccessors(sys *System, layouts []*slotLayout, t *Term) (steps []Step, c refCounts) {
	seen := newStateSet()
	var walk func(t *Term, root bool, rebuild func(*Term) *Term)
	walk = func(t *Term, root bool, rebuild func(*Term) *Term) {
		for i := range sys.Rules {
			if root {
				c.RootAttempts++
			}
			for _, rep := range sys.Rules[i].apply(t, sys.Sig, layouts[i]) {
				if !root {
					c.BelowRoot++
				}
				if nt := rebuild(rep); seen.add(nt) {
					steps = append(steps, Step{Rule: sys.Rules[i].Name, Result: nt})
				}
			}
		}
		if t.Kind != Op && t.Kind != Config {
			return
		}
		for i := range t.Args {
			walk(t.Args[i], false, func(na *Term) *Term {
				args := append([]*Term(nil), t.Args...)
				args[i] = na
				if t.Kind == Op {
					return rebuild(NewOp(t.Sym, args...))
				}
				return rebuild(NewConfig(args...))
			})
		}
	}
	walk(t, true, func(nt *Term) *Term { return nt })
	return steps, c
}

// stateSet is the reference's visited set: terms bucketed by structural
// hash, membership confirmed with Equal, so a hash collision costs a
// comparison but never merges distinct states.
type stateSet struct {
	buckets map[uint64][]*Term
}

func newStateSet() *stateSet {
	return &stateSet{buckets: make(map[uint64][]*Term)}
}

// add inserts t and reports whether it was absent (true = newly added).
func (s *stateSet) add(t *Term) bool {
	h := t.Hash()
	for _, u := range s.buckets[h] {
		if t.Equal(u) {
			return false
		}
	}
	s.buckets[h] = append(s.buckets[h], t)
	return true
}

// refDiff describes how an engine result departs from the reference's on
// the outcome the two must share — found, truncated, state count, witness
// rendering, frontier shape, rule firings, dedup hits — or returns "" when
// they agree.
func refDiff(got, ref *SearchResult) string {
	var d []string
	if got.Found != ref.Found || got.Truncated != ref.Truncated || got.StatesExplored != ref.StatesExplored {
		d = append(d, fmt.Sprintf("(found=%v truncated=%v states=%d), reference (%v %v %d)",
			got.Found, got.Truncated, got.StatesExplored, ref.Found, ref.Truncated, ref.StatesExplored))
	}
	if g, r := FormatWitness(got.Witness), FormatWitness(ref.Witness); g != r {
		d = append(d, fmt.Sprintf("witness:\n%s\nreference:\n%s", g, r))
	}
	gs, rs := got.Stats, ref.Stats
	if fmt.Sprint(gs.Frontier) != fmt.Sprint(rs.Frontier) {
		d = append(d, fmt.Sprintf("frontier %v, reference %v", gs.Frontier, rs.Frontier))
	}
	if fmt.Sprint(gs.RuleFirings) != fmt.Sprint(rs.RuleFirings) {
		d = append(d, fmt.Sprintf("rule firings %v, reference %v", gs.RuleFirings, rs.RuleFirings))
	}
	if gs.DedupHits != rs.DedupHits {
		d = append(d, fmt.Sprintf("dedup hits %d, reference %d", gs.DedupHits, rs.DedupHits))
	}
	return strings.Join(d, "; ")
}

// refOf runs the reference search for an equivalence case, under the
// case's bounds, and fails the test if the reference found a successor
// below the root, where the engine never looks.
func refOf(t testing.TB, tc equivCase) *SearchResult {
	t.Helper()
	ref, err := referenceSearch(tc.sys, tc.init, tc.goal,
		refOptions{MaxStates: tc.opts.MaxStates, MaxDepth: tc.opts.MaxDepth})
	if err != nil {
		t.Fatal(err)
	}
	if ref.BelowRoot != 0 {
		t.Fatalf("%s: the reference found %d successors below the root", tc.name, ref.BelowRoot)
	}
	return ref.SearchResult
}
