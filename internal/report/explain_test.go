package report

import (
	"context"
	"runtime"
	"strings"
	"testing"

	"privanalyzer/internal/core"
	"privanalyzer/internal/programs"
	"privanalyzer/internal/rosa"
)

// explainGrid analyses every program with core.AnalyzeAll at GOMAXPROCS
// procs and renders ExplainWitness for each vulnerable cell, in grid order.
func explainGrid(t *testing.T, procs int) []string {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	analyses, err := core.AnalyzeAll(context.Background(), programs.Names(), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, a := range analyses {
		for _, ph := range a.Phases {
			for i, v := range ph.Verdicts {
				if v != rosa.Vulnerable {
					continue
				}
				res := &rosa.Result{Verdict: v, Witness: ph.Witnesses[i], StatesExplored: ph.States[i], Stats: ph.Stats[i]}
				out = append(out, a.Program.Name+"/"+ph.Spec.Name+"\n"+ExplainWitness(res))
			}
		}
	}
	return out
}

// TestExplainGridDeterminism: -explain is a pure function of the query.
// Every vulnerable cell of the program×phase×attack grid renders the same
// text on one CPU and on four, and every step row of it carries a
// discovery ordinal.
func TestExplainGridDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("analyses the full grid twice; skipped with -short")
	}
	one, four := explainGrid(t, 1), explainGrid(t, 4)
	if len(one) == 0 {
		t.Fatal("no vulnerable cell in the grid")
	}
	if len(one) != len(four) {
		t.Fatalf("%d vulnerable cells on one CPU, %d on four", len(one), len(four))
	}
	for i := range one {
		if one[i] != four[i] {
			t.Errorf("explanation differs between one CPU and four:\n%s\nvs\n%s", one[i], four[i])
		}
		if !strings.Contains(one[i], "goal matched after") {
			t.Errorf("explanation lacks its goal line:\n%s", one[i])
		}
		_, rows, _ := strings.Cut(one[i], "state\n")
		for _, row := range strings.Split(rows, "\n") {
			if f := strings.Fields(row); row != "" && (len(f) < 5 || f[3] == "-" || !strings.HasPrefix(f[4], "#")) {
				t.Errorf("step row lacks its frontier or discovery ordinal: %q", row)
			}
		}
	}
}
