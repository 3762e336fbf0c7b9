package rewrite

import (
	"context"
	"testing"
)

// profiledSearch exhausts the tokens(4) system (goal never matches) with
// per-rule profiling on and returns the final stats.
func profiledSearch(t *testing.T, opts Options) *SearchStats {
	t.Helper()
	opts.Profile = true
	res, err := tokens(4).SearchContext(context.Background(),
		NewConfig(NewOp("c", NewInt(0)), NewOp("c", NewInt(0))),
		Goal{Pattern: NewConfig(NewOp("nope"), NewVar("Z", SortConfig))}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats == nil {
		t.Fatal("no stats attached to the result")
	}
	return res.Stats
}

func TestRuleProfile(t *testing.T) {
	st := profiledSearch(t, Options{})
	if st.RuleProfile == nil {
		t.Fatal("Options.Profile set but RuleProfile is nil")
	}
	for _, name := range []string{"inc", "merge"} {
		rc := st.RuleProfile[name]
		if rc == nil {
			t.Fatalf("rule %q missing from profile %v", name, st.RuleProfile)
		}
		// Both rules are Config-rooted and anchored on the same "c" symbol,
		// so the index sends them to exactly the same positions: the per-rule
		// attempt counts agree, with at least one attempt per expanded state.
		// One AC attempt can produce several replacements (the pattern matches
		// the multiset several ways), so firings may exceed attempts.
		if rc.Attempts != st.RuleProfile["inc"].Attempts {
			t.Errorf("%s.Attempts = %d, want %d (rules attempt the same positions)",
				name, rc.Attempts, st.RuleProfile["inc"].Attempts)
		}
		if rc.Attempts < int64(st.StatesExplored) {
			t.Errorf("%s.Attempts = %d < %d states explored", name, rc.Attempts, st.StatesExplored)
		}
		if rc.Firings == 0 {
			t.Errorf("%s recorded no firings", name)
		}
		// Profile firings count raw replacements before successor dedup, so
		// they can only exceed the engine's post-dedup RuleFirings count.
		if rc.Firings < int64(st.RuleFirings[name]) {
			t.Errorf("%s profile firings %d < engine firings %d", name, rc.Firings, st.RuleFirings[name])
		}
		if rc.Cumulative < rc.Max {
			t.Errorf("%s cumulative %v < max %v", name, rc.Cumulative, rc.Max)
		}
	}
}

// TestRuleProfileParallelMatchesSequential: the engine ignores Workers, so
// the rule profile's counts at Workers 4 are the default run's.
func TestRuleProfileParallelMatchesSequential(t *testing.T) {
	seq := profiledSearch(t, Options{})
	par := profiledSearch(t, Options{Workers: 4})
	for _, name := range []string{"inc", "merge"} {
		if seq.RuleProfile[name].Attempts != par.RuleProfile[name].Attempts {
			t.Errorf("%s attempts: default %d, workers=4 %d",
				name, seq.RuleProfile[name].Attempts, par.RuleProfile[name].Attempts)
		}
		if seq.RuleProfile[name].Firings != par.RuleProfile[name].Firings {
			t.Errorf("%s firings: default %d, workers=4 %d",
				name, seq.RuleProfile[name].Firings, par.RuleProfile[name].Firings)
		}
	}
}

func TestProfileOffByDefault(t *testing.T) {
	res, err := tokens(3).SearchContext(context.Background(),
		NewConfig(NewOp("c", NewInt(0))),
		Goal{Pattern: NewConfig(NewOp("nope"), NewVar("Z", SortConfig))}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.RuleProfile != nil {
		t.Errorf("RuleProfile = %v without Options.Profile, want nil", res.Stats.RuleProfile)
	}
}

// TestOnStatsSnapshot verifies the OnStats callback receives a deep copy:
// mutating the snapshot's maps and slices must not leak into the result's
// final stats (the callback aliasing bug).
func TestOnStatsSnapshot(t *testing.T) {
	var snapshots []*SearchStats
	res, err := tokens(4).SearchContext(context.Background(),
		NewConfig(NewOp("c", NewInt(0)), NewOp("c", NewInt(0))),
		Goal{Pattern: NewConfig(NewOp("nope"), NewVar("Z", SortConfig))},
		Options{Profile: true, OnStats: func(st *SearchStats) {
			st.RuleFirings["inc"] = -999
			if len(st.Frontier) > 0 {
				st.Frontier[0] = -999
			}
			for _, rc := range st.RuleProfile {
				rc.Attempts = -999
			}
			snapshots = append(snapshots, st)
		}})
	if err != nil {
		t.Fatal(err)
	}
	if len(snapshots) == 0 {
		t.Fatal("OnStats was never called")
	}
	final := res.Stats
	for _, snap := range snapshots {
		if snap == final {
			t.Fatal("OnStats received the live stats struct, not a snapshot")
		}
	}
	if final.RuleFirings["inc"] == -999 {
		t.Error("snapshot RuleFirings map aliases the final stats")
	}
	if len(final.Frontier) > 0 && final.Frontier[0] == -999 {
		t.Error("snapshot Frontier slice aliases the final stats")
	}
	for name, rc := range final.RuleProfile {
		if rc.Attempts == -999 {
			t.Errorf("snapshot RuleProfile[%s] aliases the final stats", name)
		}
	}
}

func TestSearchStatsClone(t *testing.T) {
	var st *SearchStats
	if st.Clone() != nil {
		t.Error("nil.Clone() should be nil")
	}
	st = profiledSearch(t, Options{})
	c := st.Clone()
	if c == st {
		t.Fatal("Clone returned the receiver")
	}
	if c.StatesExplored != st.StatesExplored || c.DedupHits != st.DedupHits {
		t.Error("Clone dropped scalar fields")
	}
	c.RuleFirings["inc"]++
	c.Frontier[0]++
	c.RuleProfile["inc"].Firings++
	if c.RuleFirings["inc"] == st.RuleFirings["inc"] ||
		c.Frontier[0] == st.Frontier[0] ||
		c.RuleProfile["inc"].Firings == st.RuleProfile["inc"].Firings {
		t.Error("Clone shares maps/slices with the receiver")
	}
}
