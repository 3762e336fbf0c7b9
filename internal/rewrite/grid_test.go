package rewrite_test

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"privanalyzer/internal/attacks"
	"privanalyzer/internal/core"
	"privanalyzer/internal/programs"
	"privanalyzer/internal/rewrite"
	"privanalyzer/internal/rosa"
)

// gridKey names one Figure 5-11 cell.
type gridKey struct {
	program, phase string
	attack         attacks.ID
}

// phaseCreds is the credential triple a phase runs with.
func phaseCreds(ph programs.PhaseSpec) rosa.Creds {
	return rosa.Creds{
		RUID: ph.UID[0], EUID: ph.UID[1], SUID: ph.UID[2],
		RGID: ph.GID[0], EGID: ph.GID[1], SGID: ph.GID[2],
	}
}

// referenceGrid is the reference search's answer for every cell of the
// Figure 5-11 grid, built as the analysis builds its queries and run
// one-shot at the analysis budget. It is computed once per test binary.
var referenceGrid = sync.OnceValues(func() (map[gridKey]*rewrite.SearchResult, error) {
	out := make(map[gridKey]*rewrite.SearchResult)
	for _, name := range programs.Names() {
		p, err := programs.ByName(name)
		if err != nil {
			return nil, err
		}
		inv := p.Syscalls()
		for _, ph := range p.Phases {
			for _, id := range attacks.All {
				q := attacks.Build(id, inv, phaseCreds(ph), ph.Privs)
				sys := rosa.NewSystem()
				if q.Extended {
					sys = rosa.NewExtendedSystem()
				}
				res, err := rewrite.ReferenceSearch(sys, q.InitialState(), q.Goal,
					rewrite.RefOptions{MaxStates: core.DefaultMaxStates})
				if err != nil {
					return nil, fmt.Errorf("%s %s %s: %w", name, ph.Name, id, err)
				}
				out[gridKey{name, ph.Name, id}] = res
			}
		}
	}
	return out, nil
})

// referenceVerdict maps a reference result to the ROSA verdict, as the
// query supervisor maps an engine result.
func referenceVerdict(res *rewrite.SearchResult) rosa.Verdict {
	switch {
	case res.Found:
		return rosa.Vulnerable
	case res.Truncated:
		return rosa.Unknown
	default:
		return rosa.Safe
	}
}

// TestReferenceGrid is the pipeline-level optimization contract: the
// indexed, interned, transition-cached, compiled, parallel engine must
// reproduce the reference search on every program, phase, and attack of the
// Figure 5-11 grid, at Workers 1 and 4 — verdict, state count, witness
// rendering, frontier shape, rule firings, and dedup hits. The engine side
// goes through core.AnalyzeContext, so it exercises the full stack the CLIs
// use, including escalation and the per-program rosa.Checker whose shared
// cache serves all of a program's queries.
func TestReferenceGrid(t *testing.T) {
	if testing.Short() {
		t.Skip("full-grid reference comparison; skipped with -short")
	}
	ref, err := referenceGrid()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	compared := 0
	for _, name := range programs.Names() {
		p, err := programs.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range []int{1, 4} {
			a, err := core.AnalyzeContext(ctx, p, core.Options{Search: rewrite.Options{Workers: w}})
			if err != nil {
				t.Fatal(err)
			}
			for _, pr := range a.Phases {
				for i, id := range attacks.All {
					cell := fmt.Sprintf("%s %s %s workers=%d", name, pr.Spec.Name, id, w)
					want, ok := ref[gridKey{name, pr.Spec.Name, id}]
					if !ok {
						t.Errorf("%s: no reference result", cell)
						continue
					}
					compared++
					if v := referenceVerdict(want); pr.Verdicts[i] != v || pr.States[i] != want.StatesExplored {
						t.Errorf("%s: engine (%s, %d states), reference (%s, %d states)",
							cell, pr.Verdicts[i], pr.States[i], v, want.StatesExplored)
					}
					if got, exp := rewrite.FormatWitness(pr.Witnesses[i]), rewrite.FormatWitness(want.Witness); got != exp {
						t.Errorf("%s: witness\n%s\nreference:\n%s", cell, got, exp)
					}
					st := pr.Stats[i]
					if st == nil {
						t.Errorf("%s: no search stats", cell)
						continue
					}
					if fmt.Sprint(st.Frontier) != fmt.Sprint(want.Stats.Frontier) ||
						fmt.Sprint(st.RuleFirings) != fmt.Sprint(want.Stats.RuleFirings) ||
						st.DedupHits != want.Stats.DedupHits {
						t.Errorf("%s: stats diverge: frontier %v firings %v dedup %d, reference %v %v %d",
							cell, st.Frontier, st.RuleFirings, st.DedupHits,
							want.Stats.Frontier, want.Stats.RuleFirings, want.Stats.DedupHits)
					}
				}
			}
		}
	}
	if want := 2 * len(ref); compared != want {
		t.Errorf("compared %d cells, want %d (every reference cell at 2 worker counts)", compared, want)
	}
	if len(ref) != 140 {
		t.Errorf("reference grid has %d cells, want the 140 of Figures 5-11", len(ref))
	}
}
