package report

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"privanalyzer/internal/interp"
	"privanalyzer/internal/rewrite"
)

// This file is the single rendering path for engine statistics shared by
// cmd/rosa (-stats) and cmd/privanalyzer (-stats): search statistics, the
// per-rule cost profile, and the interpreter's hot-block profile.

// rate renders a states/sec figure, guarding zero/instant searches: a search
// that finished inside the clock's resolution has no meaningful rate, so the
// cell renders "-" instead of +Inf or garbage.
func rate(states int, elapsed time.Duration) string {
	if elapsed <= 0 {
		return "-"
	}
	return fmt.Sprintf("%.0f", float64(states)/elapsed.Seconds())
}

// SearchStatsText renders one search's statistics as a compact multi-line
// report: exploration rate, visited-set effectiveness, frontier shape, rule
// firings, and — when the search ran with Options.Profile — the per-rule
// cost profile.
func SearchStatsText(st *rewrite.SearchStats) string {
	if st == nil {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "states explored:  %d (%s states/sec, %s elapsed)\n",
		st.StatesExplored, rate(st.StatesExplored, st.Elapsed),
		st.Elapsed.Round(time.Microsecond))
	fmt.Fprintf(&b, "dedup hits:       %d (%.1f%% of generated successors)\n",
		st.DedupHits, 100*st.DedupRate())
	if st.RulesSkippedByIndex > 0 || st.SubtreesPruned > 0 {
		fmt.Fprintf(&b, "rule index:       %d attempts skipped, %d subtrees pruned\n",
			st.RulesSkippedByIndex, st.SubtreesPruned)
	}
	if line := CompileSummary([]*rewrite.SearchStats{st}); line != "" {
		b.WriteString(line)
		b.WriteByte('\n')
	}
	if lookups := st.CacheHits + st.CacheMisses; lookups > 0 {
		fmt.Fprintf(&b, "transition cache: %d hits, %d misses (%.1f%% hit rate)\n",
			st.CacheHits, st.CacheMisses, 100*float64(st.CacheHits)/float64(lookups))
	}
	if len(st.Frontier) > 0 {
		b.WriteString("frontier by depth:")
		for d, n := range st.Frontier {
			fmt.Fprintf(&b, " %d:%d", d, n)
		}
		b.WriteByte('\n')
	}
	if len(st.RuleFirings) > 0 && st.RuleProfile == nil {
		names := make([]string, 0, len(st.RuleFirings))
		for name := range st.RuleFirings {
			names = append(names, name)
		}
		sort.Strings(names)
		b.WriteString("rule firings:    ")
		for _, name := range names {
			fmt.Fprintf(&b, " %s:%d", name, st.RuleFirings[name])
		}
		b.WriteByte('\n')
	}
	if st.RuleProfile != nil {
		b.WriteByte('\n')
		b.WriteString(RuleProfileTable(st.RuleProfile))
	}
	return b.String()
}

// RuleProfileTable renders the per-rule cost profile sorted by cumulative
// latency (most expensive first), the search-engine analogue of a query
// profiler's hot list: how often each rule was tried, how often it fired,
// and where the matching time went.
func RuleProfileTable(prof map[string]*rewrite.RuleCost) string {
	names := make([]string, 0, len(prof))
	for name := range prof {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool {
		a, b := prof[names[i]], prof[names[j]]
		if a.Cumulative != b.Cumulative {
			return a.Cumulative > b.Cumulative
		}
		return names[i] < names[j]
	})

	var b strings.Builder
	b.WriteString("rule profile (by cumulative match latency)\n")
	fmt.Fprintf(&b, "%-16s %12s %12s %14s %12s %12s\n",
		"Rule", "Attempts", "Firings", "Cumulative", "Max", "Avg")
	for _, name := range names {
		rc := prof[name]
		avg := time.Duration(0)
		if rc.Attempts > 0 {
			avg = rc.Cumulative / time.Duration(rc.Attempts)
		}
		fmt.Fprintf(&b, "%-16s %12d %12d %14s %12s %12s\n",
			name, rc.Attempts, rc.Firings,
			rc.Cumulative.Round(time.Microsecond),
			rc.Max.Round(time.Microsecond),
			avg.Round(time.Nanosecond))
	}
	return b.String()
}

// CompileSummary renders the compiled-rule count and the rule attempts of
// one or more searches as the one line SearchStatsText prints, for views
// that merge many queries too (privanalyzer -stats). Empty when no rule
// attempts were recorded. CompiledRules is a per-System property, not a
// per-search delta, so the maximum — not the sum — is reported.
func CompileSummary(stats []*rewrite.SearchStats) string {
	var rules int
	var attempts int64
	for _, st := range stats {
		if st == nil {
			continue
		}
		rules = max(rules, st.CompiledRules)
		attempts += st.CompiledMatches
	}
	if attempts == 0 {
		return ""
	}
	return fmt.Sprintf("compiled match:   %d rules compiled; %d attempts", rules, attempts)
}

// MergeRuleProfiles aggregates the per-rule profiles of several searches
// (e.g. every query of an analysis) into one map for RuleProfileTable.
// Searches without a profile contribute nothing; returns nil when none had
// one.
func MergeRuleProfiles(stats []*rewrite.SearchStats) map[string]*rewrite.RuleCost {
	var out map[string]*rewrite.RuleCost
	for _, st := range stats {
		if st == nil {
			continue
		}
		for name, rc := range st.RuleProfile {
			if out == nil {
				out = make(map[string]*rewrite.RuleCost)
			}
			agg := out[name]
			if agg == nil {
				agg = &rewrite.RuleCost{}
				out[name] = agg
			}
			agg.Attempts += rc.Attempts
			agg.Firings += rc.Firings
			agg.Cumulative += rc.Cumulative
			if rc.Max > agg.Max {
				agg.Max = rc.Max
			}
		}
	}
	return out
}

// HotBlocksTable renders the interpreter's hot-block profile top-n table
// (the cmd/chronopriv -hot view).
func HotBlocksTable(p *interp.BlockProfile, n int) string {
	if p == nil {
		return ""
	}
	return p.Table(n)
}
