package core

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"privanalyzer/internal/faultinject"
	"privanalyzer/internal/programs"
	"privanalyzer/internal/rewrite"
)

// TestAnalyzeAllMatchesSequential: analysing every program and every attack
// column concurrently yields, program by program and at Workers 1 and 4 (a
// setting the engine ignores), exactly what the one-program-at-a-time
// pipeline reports — instruction counts, verdicts, state counts, witnesses,
// vulnerable shares and search statistics, transition-cache hits and misses
// included: the figures a schedule could move, which hold because no two
// columns reach a common state.
func TestAnalyzeAllMatchesSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("analyses every program twice; skipped with -short")
	}
	grid, err := pipelineGrid()
	if err != nil {
		t.Fatal(err)
	}
	names := programs.Names()
	for _, w := range pipelineWorkers {
		all, err := AnalyzeAll(context.Background(), names, Options{Search: rewrite.Options{Workers: w}})
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if len(all) != len(names) {
			t.Fatalf("workers=%d: %d analyses for %d programs", w, len(all), len(names))
		}
		for i, name := range names {
			got, want := all[i], grid[w][name]
			where := fmt.Sprintf("%s workers=%d", name, w)
			if got.Program.Name != name {
				t.Errorf("%s: analysis %d is of %s; results must come back in input order", where, i, got.Program.Name)
				continue
			}
			if got.Report.Total != want.Report.Total || got.VulnerableShare != want.VulnerableShare {
				t.Errorf("%s: total %d, shares %v; sequential: %d, %v",
					where, got.Report.Total, got.VulnerableShare, want.Report.Total, want.VulnerableShare)
			}
			if len(got.Phases) != len(want.Phases) || len(got.Errors) != len(want.Errors) {
				t.Errorf("%s: %d phases and %d faults; sequential: %d and %d",
					where, len(got.Phases), len(got.Errors), len(want.Phases), len(want.Errors))
				continue
			}
			for pi := range got.Phases {
				g, s := &got.Phases[pi], &want.Phases[pi]
				if g.Measured.Instructions != s.Measured.Instructions || g.Verdicts != s.Verdicts || g.States != s.States {
					t.Errorf("%s %s: (%d instructions, verdicts %v, states %v); sequential: (%d, %v, %v)",
						where, g.Spec.Name, g.Measured.Instructions, g.Verdicts, g.States,
						s.Measured.Instructions, s.Verdicts, s.States)
				}
				for a := range g.Witnesses {
					if gw, sw := rewrite.FormatWitness(g.Witnesses[a]), rewrite.FormatWitness(s.Witnesses[a]); gw != sw {
						t.Errorf("%s %s attack %d: witness\n%s\nsequential:\n%s", where, g.Spec.Name, a+1, gw, sw)
					}
					if gs, ss := timeless(g.Stats[a]), timeless(s.Stats[a]); !reflect.DeepEqual(gs, ss) {
						t.Errorf("%s %s attack %d: stats\n%+v\nsequential:\n%+v", where, g.Spec.Name, a+1, gs, ss)
					}
				}
			}
		}
	}
}

// timeless is a copy of s without its wall-clock fields.
func timeless(s *rewrite.SearchStats) *rewrite.SearchStats {
	if s == nil {
		return nil
	}
	c := s.Clone()
	c.Elapsed, c.RuleProfile = 0, nil
	return c
}

// TestAnalyzeAllFirstErrorCancels: a program that fails cancels the others
// — suRef's search, slowed to minutes by injected expansion latency, gives
// up within seconds — and the error returned is the first failing
// program's in input order, whichever failed first in time.
func TestAnalyzeAllFirstErrorCancels(t *testing.T) {
	opts := Options{Search: rewrite.Options{
		Faults: &faultinject.Plan{ExpansionLatency: 20 * time.Millisecond},
	}}
	// Without the cancellation the deadline would end suRef's search.
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	began := time.Now()
	all, err := AnalyzeAll(ctx, []string{"suRef", "no-such-program", "ping", "another-missing-one"}, opts)
	if err == nil {
		t.Fatal("unknown programs analysed without error")
	}
	if !strings.Contains(err.Error(), `"no-such-program"`) {
		t.Errorf("error %q; want the first failing program's in input order", err)
	}
	if all != nil {
		t.Errorf("analyses returned alongside the error: %v", all)
	}
	if took := time.Since(began); took > 30*time.Second {
		t.Errorf("AnalyzeAll took %s: the failure did not cancel the slowed suRef analysis", took)
	}
}
