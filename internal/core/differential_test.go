package core

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"privanalyzer/internal/attacks"
	"privanalyzer/internal/programs"
	"privanalyzer/internal/rewrite"
	"privanalyzer/internal/rosa"
)

// The pipeline differential tests hold AnalyzeContext — escalation, and the
// per-program rosa.Checker whose shared transition cache serves all of a
// program's queries — to the engine run cold: each Figure 5-11 cell built
// with attacks.Build and searched once at DefaultMaxStates on a fresh
// System, with no escalation and no transition cache. The engine itself is
// held to the test-only reference search by rewrite.TestReferenceGrid;
// these tests separate what the pipeline adds from what the engine does.

// cellKey names one Figure 5-11 cell.
type cellKey struct {
	program, phase string
	attack         attacks.ID
}

// oneShotGrid is the cold engine's answer for every cell, computed once per
// test binary.
var oneShotGrid = sync.OnceValues(func() (map[cellKey]*rosa.Result, error) {
	out := make(map[cellKey]*rosa.Result)
	for _, name := range programs.Names() {
		p, err := programs.ByName(name)
		if err != nil {
			return nil, err
		}
		inv := p.Syscalls()
		for _, ph := range p.Phases {
			creds := rosa.Creds{
				RUID: ph.UID[0], EUID: ph.UID[1], SUID: ph.UID[2],
				RGID: ph.GID[0], EGID: ph.GID[1], SGID: ph.GID[2],
			}
			for _, id := range attacks.All {
				q := attacks.Build(id, inv, creds, ph.Privs)
				q.MaxStates = DefaultMaxStates
				q.NoEscalate = true
				q.Workers = 1
				res, err := q.Run()
				if err != nil {
					return nil, fmt.Errorf("%s %s %s: %w", name, ph.Name, id, err)
				}
				out[cellKey{name, ph.Name, id}] = res
			}
		}
	}
	return out, nil
})

// pipelineWorkers are the worker counts the pipeline is compared at.
var pipelineWorkers = []int{1, 4}

// pipelineGrid is AnalyzeContext's analysis of every program at each of
// pipelineWorkers, computed once per test binary and indexed [worker
// count][program].
var pipelineGrid = sync.OnceValues(func() (map[int]map[string]*Analysis, error) {
	out := make(map[int]map[string]*Analysis)
	for _, w := range pipelineWorkers {
		out[w] = make(map[string]*Analysis)
		for _, name := range programs.Names() {
			p, err := programs.ByName(name)
			if err != nil {
				return nil, err
			}
			a, err := AnalyzeContext(context.Background(), p, Options{Search: rewrite.Options{Workers: w}})
			if err != nil {
				return nil, fmt.Errorf("%s workers=%d: %w", name, w, err)
			}
			out[w][name] = a
		}
	}
	return out, nil
})

// eachGridCell calls check for every pipeline cell at every worker count
// with the cold engine's result for the cell, and fails unless all 140
// cells were visited at each worker count.
func eachGridCell(t *testing.T, check func(cell string, pr *PhaseResult, i int, cold *rosa.Result)) {
	t.Helper()
	cold, err := oneShotGrid()
	if err != nil {
		t.Fatal(err)
	}
	grid, err := pipelineGrid()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range pipelineWorkers {
		visited := 0
		for _, name := range programs.Names() {
			for pi := range grid[w][name].Phases {
				pr := &grid[w][name].Phases[pi]
				for i, id := range attacks.All {
					cell := fmt.Sprintf("%s %s %s workers=%d", name, pr.Spec.Name, id, w)
					c, ok := cold[cellKey{name, pr.Spec.Name, id}]
					if !ok {
						t.Errorf("%s: no cold engine result", cell)
						continue
					}
					visited++
					check(cell, pr, i, c)
				}
			}
		}
		if visited != len(cold) || visited != 140 {
			t.Errorf("workers=%d: compared %d cells of %d, want the 140 of Figures 5-11", w, visited, len(cold))
		}
	}
}

// TestDifferentialGrid: escalation and the shared per-program transition
// cache change nothing the search reports — on every cell, at Workers 1 and
// 4, the pipeline's verdict, state count, frontier shape, rule firings and
// dedup hits equal the cold engine's.
func TestDifferentialGrid(t *testing.T) {
	if testing.Short() {
		t.Skip("full-grid differential test; skipped with -short")
	}
	eachGridCell(t, func(cell string, pr *PhaseResult, i int, cold *rosa.Result) {
		if pr.Verdicts[i] != cold.Verdict || pr.States[i] != cold.StatesExplored {
			t.Errorf("%s: pipeline (%s, %d states), cold engine (%s, %d states)",
				cell, pr.Verdicts[i], pr.States[i], cold.Verdict, cold.StatesExplored)
		}
		st, cst := pr.Stats[i], cold.Stats
		if st == nil || cst == nil {
			t.Errorf("%s: missing search stats (pipeline %v, cold engine %v)", cell, st != nil, cst != nil)
			return
		}
		if fmt.Sprint(st.Frontier) != fmt.Sprint(cst.Frontier) ||
			fmt.Sprint(st.RuleFirings) != fmt.Sprint(cst.RuleFirings) ||
			st.DedupHits != cst.DedupHits {
			t.Errorf("%s: stats diverge: frontier %v firings %v dedup %d, cold engine %v %v %d",
				cell, st.Frontier, st.RuleFirings, st.DedupHits,
				cst.Frontier, cst.RuleFirings, cst.DedupHits)
		}
	})
}

// TestDifferentialWitnesses: the pipeline's witness for every cell, at
// Workers 1 and 4, renders byte-identically to the cold engine's — the
// shortest attack a warm cache or an escalated budget reports is the one a
// one-shot search finds.
func TestDifferentialWitnesses(t *testing.T) {
	if testing.Short() {
		t.Skip("full-grid differential test; skipped with -short")
	}
	witnesses := 0
	eachGridCell(t, func(cell string, pr *PhaseResult, i int, cold *rosa.Result) {
		got, want := rewrite.FormatWitness(pr.Witnesses[i]), rewrite.FormatWitness(cold.Witness)
		if got != want {
			t.Errorf("%s: witness\n%s\ncold engine:\n%s", cell, got, want)
		}
		if len(pr.Witnesses[i]) > 0 {
			witnesses++
		}
	})
	if witnesses == 0 {
		t.Error("no cell reported a witness; the comparison rendered only empty witnesses")
	}
}

// TestDifferentialCompileGrid: every rule attempt of every cell, in the
// pipeline at Workers 1 and 4 and in the cold engine, runs on a compiled
// matcher, none on the generic fallback. (A cell whose initial state
// already matches the goal attempts no rule at all.)
// rewrite.TestReferenceGrid compares the engine with a reference that runs
// every rule on the generic matcher; this test is what makes that
// comparison compiled against interpreted on all 140 cells, rather than
// generic against generic wherever compilation silently fell back.
func TestDifferentialCompileGrid(t *testing.T) {
	if testing.Short() {
		t.Skip("full-grid differential test; skipped with -short")
	}
	var compiled int64
	compiledOnly := func(cell, side string, st *rewrite.SearchStats) {
		if st == nil {
			t.Errorf("%s: %s has no search stats", cell, side)
			return
		}
		if st.CompiledRules == 0 || st.FallbackMatches != 0 {
			t.Errorf("%s: %s ran %d compiled rules, %d compiled and %d fallback matches; want every attempt compiled",
				cell, side, st.CompiledRules, st.CompiledMatches, st.FallbackMatches)
		}
		compiled += st.CompiledMatches
	}
	eachGridCell(t, func(cell string, pr *PhaseResult, i int, cold *rosa.Result) {
		compiledOnly(cell, "pipeline", pr.Stats[i])
		compiledOnly(cell, "cold engine", cold.Stats)
	})
	if compiled == 0 {
		t.Error("no cell attempted a compiled match")
	}
}
