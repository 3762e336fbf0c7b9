package rewrite

import (
	"context"
	"fmt"
	"testing"
)

// Matching micro-benchmarks and their allocation pins. The interesting
// numbers are allocs/op: the pooled scratch (bindingPool, configScratchPool,
// the compiled matcherScratch) is supposed to make failed match attempts —
// the overwhelming majority during a search — allocation-free, and
// successful attempts allocate only per solution (the remainder
// configuration, plus the materialized Binding on the compiled path).

func benchTokens(n int) *Term {
	elems := make([]*Term, n)
	for i := range elems {
		elems[i] = NewOp("c", NewInt(int64(i%3)))
	}
	return NewConfig(elems...)
}

var incLHSBench = NewConfig(NewOp("c", NewVar("N", SortInt)), NewVar("Z", SortConfig))
var mergeLHSBench = NewConfig(
	NewOp("c", NewVar("N", SortInt)),
	NewOp("c", NewVar("M", SortInt)),
	NewVar("Z", SortConfig))

// BenchmarkMatch pins the interpreter's pattern-match cost over AC
// configurations (the pooled-scratch path).
func BenchmarkMatch(b *testing.B) {
	for _, n := range []int{4, 16} {
		subj := benchTokens(n)
		miss := NewConfig(NewOp("d"), NewOp("d"), NewOp("d"), NewOp("d"))
		b.Run(fmt.Sprintf("inc/hit/%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				Matches(incLHSBench, subj, nil)
			}
		})
		b.Run(fmt.Sprintf("merge/hit/%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				Matches(mergeLHSBench, subj, nil)
			}
		})
		b.Run(fmt.Sprintf("inc/miss/%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				Matches(incLHSBench, miss, nil)
			}
		})
	}
}

// BenchmarkApply compares the two full apply paths — match, guard,
// replacement construction — on the tokens system's rules.
func BenchmarkApply(b *testing.B) {
	sys := tokens(4)
	comp, err := Compile(sys.Rules)
	if err != nil {
		b.Fatal(err)
	}
	for _, n := range []int{4, 16} {
		subj := benchTokens(n)
		for i := range sys.Rules {
			rule := &sys.Rules[i]
			b.Run(fmt.Sprintf("interpreted/%s/%d", rule.Name, n), func(b *testing.B) {
				b.ReportAllocs()
				l := layoutOf(rule.LHS)
				for k := 0; k < b.N; k++ {
					rule.apply(subj, sys.Sig, l)
				}
			})
			cr := comp.rules[i]
			b.Run(fmt.Sprintf("compiled/%s/%d", rule.Name, n), func(b *testing.B) {
				b.ReportAllocs()
				m := comp.getScratch()
				defer comp.putScratch(m)
				var out []*Term
				for k := 0; k < b.N; k++ {
					out = cr.apply(subj, sys.Sig, m, out[:0])
				}
			})
		}
	}
}

// BenchmarkSearchCompiled pins the end-to-end engine effect: the same
// exhaustive tokens search through the engine and through the reference
// search, which runs every rule through the generic matcher.
func BenchmarkSearchCompiled(b *testing.B) {
	init := NewConfig(NewOp("c", NewInt(0)), NewOp("c", NewInt(0)), NewOp("c", NewInt(0)))
	never := Goal{Pattern: NewConfig(NewOp("nope"), NewVar("Z", SortConfig))}
	b.Run("compiled", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := tokens(5).SearchContext(context.Background(), init, never, Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("reference", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := referenceSearch(tokens(5), init, never, refOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestMatchSteadyStateAllocs is the allocation regression pin for the
// pooled interpreter scratch (bindingPool + configScratchPool). The
// recursive matcher still allocates its backtracking closures — that is
// inherent to its shape and what the compiled path eliminates — but the
// map and slice buffers must come from the pools: a failed configuration
// match costs only the closures (7 allocs at go1.22), and a successful
// enumeration adds only the per-solution remainder Config. Before pooling
// these were 11+/op (Binding map, fixed/used slices per call); a bound
// breach means a pooled buffer regressed to per-call allocation.
func TestMatchSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc pins run without -race")
	}
	miss := NewConfig(NewOp("d"), NewOp("d"), NewOp("d"))
	hit := benchTokens(3)           // 3 candidate tokens -> 3 solutions for inc
	Matches(incLHSBench, miss, nil) // warm the pools
	Matches(incLHSBench, hit, nil)

	if got := testing.AllocsPerRun(200, func() { Matches(incLHSBench, miss, nil) }); got > 7 {
		t.Errorf("failed match: %.1f allocs/op, want <= 7 (closures only)", got)
	}
	if got := testing.AllocsPerRun(200, func() { Matches(incLHSBench, hit, nil) }); got > 16 {
		t.Errorf("successful match: %.1f allocs/op, want <= 16 (closures + 3 per solution)", got)
	}
}

// TestCompiledApplyAllocs: the compiled matcher's failed candidates are
// allocation-free, and firing attempts allocate only per produced
// replacement (Binding materialization + replacement construction).
func TestCompiledApplyAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc pins run without -race")
	}
	sys := tokens(4)
	comp, err := Compile(sys.Rules)
	if err != nil {
		t.Fatal(err)
	}
	inc := comp.rules[0]
	miss := NewConfig(NewOp("d"), NewOp("d"), NewOp("d"))
	m := comp.getScratch()
	defer comp.putScratch(m)
	inc.apply(miss, sys.Sig, m, nil) // warm

	if got := testing.AllocsPerRun(200, func() { inc.apply(miss, sys.Sig, m, nil) }); got != 0 {
		t.Errorf("failed compiled apply: %.1f allocs/op, want 0", got)
	}
}
