package report

import (
	"strings"
	"testing"
	"time"

	"privanalyzer/internal/rewrite"
)

func TestRateGuardsInstantSearches(t *testing.T) {
	if got := rate(100, 0); got != "-" {
		t.Errorf("rate(100, 0) = %q, want \"-\"", got)
	}
	if got := rate(100, -time.Second); got != "-" {
		t.Errorf("rate(100, -1s) = %q, want \"-\"", got)
	}
	if got := rate(100, 2*time.Second); got != "50" {
		t.Errorf("rate(100, 2s) = %q, want \"50\"", got)
	}
}

func TestSearchStatsText(t *testing.T) {
	if SearchStatsText(nil) != "" {
		t.Error("nil stats should render empty")
	}
	st := &rewrite.SearchStats{
		StatesExplored: 11,
		DedupHits:      5,
		Elapsed:        2 * time.Second,
		Workers:        3,
		Frontier:       []int{1, 4, 6},
		RuleFirings:    map[string]int{"open": 9, "chown": 6},
	}
	out := SearchStatsText(st)
	for _, want := range []string{
		"states explored:  11",
		"6 states/sec", // guarded rate: 11 states / 2s, rounded
		"3 workers",
		"dedup hits:       5",
		"frontier by depth: 0:1 1:4 2:6",
		"chown:6 open:9", // sorted rule firings
	} {
		if !strings.Contains(out, want) {
			t.Errorf("stats text missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "rule profile") {
		t.Errorf("profile table rendered without a profile:\n%s", out)
	}

	st.RuleProfile = map[string]*rewrite.RuleCost{
		"open": {Attempts: 11, Firings: 9, Cumulative: time.Millisecond, Max: 200 * time.Microsecond},
	}
	out = SearchStatsText(st)
	if !strings.Contains(out, "rule profile (by cumulative match latency)") {
		t.Errorf("profiled stats missing the rule table:\n%s", out)
	}
	if strings.Contains(out, "rule firings:") {
		t.Errorf("plain firings line should yield to the profile table:\n%s", out)
	}
}

func TestRuleProfileTableSortedByCost(t *testing.T) {
	prof := map[string]*rewrite.RuleCost{
		"cheap":  {Attempts: 100, Firings: 0, Cumulative: time.Millisecond, Max: 50 * time.Microsecond},
		"costly": {Attempts: 100, Firings: 10, Cumulative: 2 * time.Millisecond, Max: 100 * time.Microsecond},
		"tied":   {Attempts: 4, Firings: 1, Cumulative: time.Millisecond, Max: time.Millisecond},
	}
	out := RuleProfileTable(prof)
	ic, it, ih := strings.Index(out, "costly"), strings.Index(out, "cheap"), strings.Index(out, "tied")
	if ic < 0 || it < 0 || ih < 0 {
		t.Fatalf("table missing rules:\n%s", out)
	}
	if !(ic < it && it < ih) {
		t.Errorf("order should be costly, cheap, tied (cumulative desc, then name):\n%s", out)
	}
	for _, want := range []string{"Attempts", "Firings", "Cumulative", "Max", "Avg", "20µs"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
}

func TestMergeRuleProfiles(t *testing.T) {
	if MergeRuleProfiles(nil) != nil {
		t.Error("no stats should merge to nil")
	}
	if MergeRuleProfiles([]*rewrite.SearchStats{nil, {}}) != nil {
		t.Error("stats without profiles should merge to nil")
	}
	a := &rewrite.SearchStats{RuleProfile: map[string]*rewrite.RuleCost{
		"open": {Attempts: 10, Firings: 2, Cumulative: time.Millisecond, Max: 100 * time.Microsecond},
	}}
	b := &rewrite.SearchStats{RuleProfile: map[string]*rewrite.RuleCost{
		"open":  {Attempts: 5, Firings: 1, Cumulative: time.Millisecond, Max: 300 * time.Microsecond},
		"chown": {Attempts: 5, Firings: 0, Cumulative: time.Microsecond, Max: time.Microsecond},
	}}
	got := MergeRuleProfiles([]*rewrite.SearchStats{a, nil, b})
	open := got["open"]
	if open == nil || open.Attempts != 15 || open.Firings != 3 ||
		open.Cumulative != 2*time.Millisecond || open.Max != 300*time.Microsecond {
		t.Errorf("merged open = %+v", open)
	}
	if got["chown"] == nil || got["chown"].Attempts != 5 {
		t.Errorf("merged chown = %+v", got["chown"])
	}
	if a.RuleProfile["open"].Attempts != 10 {
		t.Error("merge mutated its input profile")
	}
}

func TestCompileSummary(t *testing.T) {
	if CompileSummary(nil) != "" {
		t.Error("no stats should summarize empty")
	}
	if CompileSummary([]*rewrite.SearchStats{nil, {CompiledRules: 17}}) != "" {
		t.Error("stats without attempts should summarize empty")
	}
	got := CompileSummary([]*rewrite.SearchStats{
		{CompiledRules: 17, CompiledMatches: 30, FallbackMatches: 10},
		nil,
		{CompiledRules: 17, CompiledMatches: 45, FallbackMatches: 15},
	})
	for _, want := range []string{
		"17 rules compiled", // per-System max, not 34
		"75 compiled / 25 interpreted attempts",
		"75.0% compiled",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("summary missing %q:\n%s", want, got)
		}
	}
	// NoCompile runs still render: all attempts counted as interpreted.
	got = CompileSummary([]*rewrite.SearchStats{{FallbackMatches: 42}})
	if !strings.Contains(got, "0 rules compiled") || !strings.Contains(got, "0.0% compiled") {
		t.Errorf("interpreter-only summary = %q", got)
	}
}

func TestHotBlocksTableNil(t *testing.T) {
	if HotBlocksTable(nil, 5) != "" {
		t.Error("nil profile should render empty")
	}
}
