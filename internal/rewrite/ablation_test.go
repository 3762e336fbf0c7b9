package rewrite_test

import (
	"testing"

	"privanalyzer/internal/attacks"
	"privanalyzer/internal/caps"
	"privanalyzer/internal/programs"
	"privanalyzer/internal/rewrite"
	"privanalyzer/internal/rosa"
)

// BenchmarkAblation measures two design choices of the search (DESIGN.md
// §5) on the reference search, whose knobs switch them off: visited-state
// deduplication and breadth-first order. Each reports the states explored.
func BenchmarkAblation(b *testing.B) {
	p, err := programs.ByName("suRef")
	if err != nil {
		b.Fatal(err)
	}
	phase := func(name string) programs.PhaseSpec {
		for _, ph := range p.Phases {
			if ph.Name == name {
				return ph
			}
		}
		b.Fatalf("no phase %s", name)
		return programs.PhaseSpec{}
	}
	run := func(b *testing.B, ph programs.PhaseSpec, privs caps.Set, o rewrite.RefOptions) {
		q := attacks.Build(attacks.ReadDevMem, p.Syscalls(), phaseCreds(ph), privs)
		var states int
		for i := 0; i < b.N; i++ {
			res, err := rewrite.ReferenceSearch(rosa.NewSystem(), q.InitialState(), q.Goal, o)
			if err != nil {
				b.Fatal(err)
			}
			states = res.StatesExplored
		}
		b.ReportMetric(float64(states), "states")
	}

	// A mid-size impossible query: the refactored su's three-identity
	// empty-privilege phase (suRef_priv6) against the read-/dev/mem attack —
	// the case whose credential-triple space made the paper's ROSA time out
	// (§VII-D2); the search must exhaust it. Without deduplication the
	// commuting syscall interleavings are re-explored; a state cap bounds
	// the damage and the benchmark reports how far the budget got.
	empty := phase("suRef_priv6")
	b.Run("dedup/on", func(b *testing.B) { run(b, empty, caps.EmptySet, rewrite.RefOptions{}) })
	b.Run("dedup/off", func(b *testing.B) {
		run(b, empty, caps.EmptySet, rewrite.RefOptions{NoDedup: true, MaxStates: 50_000})
	})

	// BFS vs DFS on a possible attack with wide wildcard branching
	// (suRef_priv1: CapSetuid+CapSetgid, setres* over every user/group).
	// BFS guarantees the shortest witness; DFS may win or lose depending on
	// which groundings it dives into first — the benchmark reports both.
	vulnerable := phase("suRef_priv1")
	b.Run("frontier/bfs", func(b *testing.B) { run(b, vulnerable, vulnerable.Privs, rewrite.RefOptions{}) })
	b.Run("frontier/dfs", func(b *testing.B) {
		run(b, vulnerable, vulnerable.Privs, rewrite.RefOptions{DepthFirst: true})
	})
}
