package core

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"testing"

	"privanalyzer/internal/programs"
	"privanalyzer/internal/rewrite"
	"privanalyzer/internal/telemetry"
)

// searchSequences splits a journal into one event sequence per search,
// each event rendered without its timestamp and search id, and sorts the
// sequences. Search ids, timestamps and the interleaving of concurrent
// searches follow the schedule; what each search recorded, and in what
// order, must not.
func searchSequences(journal []telemetry.Event) []string {
	bySearch := map[int32][]string{}
	for _, ev := range journal {
		bySearch[ev.Search] = append(bySearch[ev.Search],
			fmt.Sprintf("%s/%d/%x/%s/%d", ev.Kind, ev.Depth, ev.Hash, ev.Rule, ev.N))
	}
	out := make([]string, 0, len(bySearch))
	for _, evs := range bySearch {
		out = append(out, strings.Join(evs, "\n"))
	}
	sort.Strings(out)
	return out
}

// TestRecorderGridDeterminism is the flight recorder's determinism contract
// over the full program×phase×attack grid: two AnalyzeAll runs — one on one
// CPU at Workers 1, one on four CPUs at Workers 4, a setting the engine
// ignores — record the same event sequence for every search, timestamps and
// search ids aside. Each search runs on one goroutine, so only the
// interleaving of the concurrent columns may differ.
func TestRecorderGridDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("full-grid determinism test; skipped with -short")
	}
	capture := func(procs, workers int) []string {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		rec := telemetry.NewRecorder(1 << 22)
		_, err := AnalyzeAll(context.Background(), programs.Names(), Options{
			Search: rewrite.Options{Workers: workers, Recorder: rec},
		})
		if err != nil {
			t.Fatal(err)
		}
		if rec.Dropped() != 0 {
			t.Fatalf("GOMAXPROCS=%d workers=%d: ring overflowed (%d dropped); raise the test capacity",
				procs, workers, rec.Dropped())
		}
		return searchSequences(rec.Journal())
	}
	one := capture(1, 1)
	four := capture(4, 4)
	if len(one) != 140 {
		t.Errorf("journal covers %d searches, want the grid's 140", len(one))
	}
	if len(one) != len(four) {
		t.Fatalf("%d searches on one CPU, %d on four", len(one), len(four))
	}
	for i := range one {
		if one[i] != four[i] {
			a, b := strings.Split(one[i], "\n"), strings.Split(four[i], "\n")
			k := 0
			for k < len(a) && k < len(b) && a[k] == b[k] {
				k++
			}
			t.Fatalf("search sequence %d diverges at event %d of %d/%d:\none CPU:   %v\nfour CPUs: %v",
				i, k, len(a), len(b), a[min(k, len(a)-1)], b[min(k, len(b)-1)])
		}
	}
}

// TestRecorderJournalNonEmpty: a recorded analysis journals every query (one
// goal or exhaustion story per search id) — the cheap smoke version of the
// grid test for -short runs.
func TestRecorderJournalNonEmpty(t *testing.T) {
	p, err := programs.ByName("passwd")
	if err != nil {
		t.Fatal(err)
	}
	rec := telemetry.NewRecorder(0)
	a, err := AnalyzeContext(context.Background(), p, Options{
		Search: rewrite.Options{Recorder: rec},
	})
	if err != nil {
		t.Fatal(err)
	}
	queries := 0
	for _, ph := range a.Phases {
		queries += len(ph.Verdicts)
	}
	searches := map[int32]bool{}
	for _, ev := range rec.Journal() {
		searches[ev.Search] = true
	}
	if len(searches) != queries {
		t.Errorf("journal covers %d searches, analysis ran %d queries", len(searches), queries)
	}
	for s := 1; s <= queries; s++ {
		if !searches[int32(s)] {
			t.Errorf("no events for search id %d", s)
		}
	}
}
