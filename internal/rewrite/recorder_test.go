package rewrite

import (
	"context"
	"testing"
	"time"

	"privanalyzer/internal/telemetry"
)

// TestStatsIntervalThrottle pins the two OnStats cadences: interval zero
// keeps the historical once-per-level firing (plus the final snapshot), a
// huge interval suppresses everything but the final snapshot.
func TestStatsIntervalThrottle(t *testing.T) {
	run := func(interval time.Duration) (snapshots int, levels int) {
		var last *SearchStats
		res, err := tokens(6).SearchContext(context.Background(),
			NewConfig(NewOp("c", NewInt(0)), NewOp("c", NewInt(0)), NewOp("c", NewInt(0))),
			Goal{Pattern: NewOp("nope")},
			Options{
				StatsInterval: interval,
				OnStats: func(st *SearchStats) {
					snapshots++
					if last != nil && last.Final {
						t.Error("a snapshot arrived after the Final one")
					}
					last = st
				},
			})
		if err != nil {
			t.Fatal(err)
		}
		if last == nil {
			t.Fatal("OnStats never fired")
		}
		// The final snapshot always reflects the finished search and is the
		// only one flagged Final, so progress printers can tell the
		// unconditional end-of-search snapshot from interval ticks.
		if !last.Final {
			t.Error("last snapshot not flagged Final")
		}
		if last.StatesExplored != res.StatesExplored {
			t.Errorf("final snapshot states %d != result states %d",
				last.StatesExplored, res.StatesExplored)
		}
		return snapshots, len(res.Stats.Frontier)
	}

	perLevel, levels := run(0)
	if levels < 3 {
		t.Fatalf("test search only has %d levels; need a deeper one", levels)
	}
	// One firing per completed level plus the final snapshot.
	if perLevel != levels+1 {
		t.Errorf("interval 0: %d snapshots over %d levels, want %d",
			perLevel, levels, levels+1)
	}

	throttled, _ := run(time.Hour)
	if throttled != 1 {
		t.Errorf("interval 1h: %d snapshots, want only the final one", throttled)
	}
}

// TestRecorderSearchEvents runs a successful BFS with the flight recorder
// attached and checks the journal tells the story the search lived through:
// one level_start per frontier level with the right sizes, one state_expanded
// per explored state, rule firings accounting for every generated successor,
// and a goal event carrying the witness's final state hash.
func TestRecorderSearchEvents(t *testing.T) {
	rec := telemetry.NewRecorder(0)
	res, err := tokens(6).SearchContext(context.Background(),
		NewConfig(NewOp("c", NewInt(0)), NewOp("c", NewInt(0)), NewOp("c", NewInt(0))),
		Goal{Pattern: NewConfig(NewOp("c", NewInt(6)), NewVar("Z", SortConfig))},
		Options{Recorder: rec})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found {
		t.Fatal("goal not found")
	}
	if rec.Dropped() != 0 {
		t.Fatalf("ring overflowed (%d dropped) on a tiny search", rec.Dropped())
	}

	journal := rec.Journal()
	counts := map[telemetry.EventKind]int{}
	var levelSizes []int64
	var goal *telemetry.Event
	for i := range journal {
		ev := &journal[i]
		counts[ev.Kind]++
		switch ev.Kind {
		case telemetry.EvLevelStart:
			levelSizes = append(levelSizes, ev.N)
		case telemetry.EvGoalMatched:
			goal = ev
		}
	}

	st := res.Stats
	if len(levelSizes) == 0 || levelSizes[0] != 1 {
		t.Errorf("level sizes %v, want [1 ...]", levelSizes)
	}
	for i, n := range levelSizes {
		if i < len(st.Frontier) && int64(st.Frontier[i]) != n {
			t.Errorf("level %d size %d != stats frontier %d", i, n, st.Frontier[i])
		}
	}
	generated := 0
	for _, n := range st.RuleFirings {
		generated += n
	}
	if counts[telemetry.EvRuleFired] != generated {
		t.Errorf("%d rule_fired events, stats counted %d firings",
			counts[telemetry.EvRuleFired], generated)
	}
	if counts[telemetry.EvDedup] != st.DedupHits {
		t.Errorf("%d dedup events, stats counted %d", counts[telemetry.EvDedup], st.DedupHits)
	}
	if goal == nil {
		t.Fatal("no goal_matched event")
	}
	if want := res.Witness[len(res.Witness)-1].Result.Hash(); goal.Hash != want {
		t.Errorf("goal event hash %x != witness final state %x", goal.Hash, want)
	}
	if goal.Depth != int32(len(res.Witness)) {
		t.Errorf("goal depth %d != witness length %d", goal.Depth, len(res.Witness))
	}
	if goal.N != int64(res.StatesExplored) {
		t.Errorf("goal event N %d != states explored %d", goal.N, res.StatesExplored)
	}
}

// TestRecorderSearchIDs: two queries against one recorder stay separable by
// search id.
func TestRecorderSearchIDs(t *testing.T) {
	rec := telemetry.NewRecorder(0)
	sys := tokens(4)
	for i := 0; i < 2; i++ {
		if _, err := sys.SearchContext(context.Background(),
			NewConfig(NewOp("c", NewInt(0)), NewOp("c", NewInt(0))),
			Goal{Pattern: NewOp("nope")},
			Options{Recorder: rec}); err != nil {
			t.Fatal(err)
		}
	}
	seen := map[int32]bool{}
	for _, ev := range rec.Journal() {
		seen[ev.Search] = true
	}
	if !seen[1] || !seen[2] || len(seen) != 2 {
		t.Errorf("search ids %v, want exactly {1, 2}", seen)
	}
}
