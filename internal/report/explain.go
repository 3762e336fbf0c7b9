package report

import (
	"fmt"
	"strings"
	"time"

	"privanalyzer/internal/rosa"
	"privanalyzer/internal/telemetry"
)

// This file is the `rosa -explain` rendering path: a vulnerable query's
// witness joined back against the flight-recorder journal, turning the bare
// rule sequence into an annotated attack timeline — when the search first
// generated each step's state, at what depth, against how large a frontier,
// and when the goal was recognised.

// maxExplainState bounds the rendered state column; full states are pages
// long and the timeline is about the shape of the discovery, not the terms.
const maxExplainState = 56

// ExplainWitness renders res's witness as an attack timeline annotated from
// journal (a Recorder.Journal capture of the same run). Steps the journal
// cannot answer for — recorder off, ring overflow, a different run — render
// "-" in the annotated columns, so the timeline degrades to the plain
// witness rather than failing. Non-vulnerable results explain why there is
// no witness.
func ExplainWitness(res *rosa.Result, journal []telemetry.Event) string {
	if res == nil {
		return ""
	}
	var b strings.Builder
	if res.Verdict != rosa.Vulnerable {
		fmt.Fprintf(&b, "verdict %s — no witness to explain (%d states explored, %s elapsed)\n",
			res.Verdict, res.StatesExplored, res.Elapsed.Round(time.Microsecond))
		if res.Verdict == rosa.Unknown {
			b.WriteString(unknownCause(res))
		}
		return b.String()
	}

	// The discovery's goal event pins down which search of a (possibly
	// shared) journal the witness belongs to; everything else is read from
	// that search's events only.
	finalHash := uint64(0)
	if n := len(res.Witness); n > 0 {
		finalHash = res.Witness[n-1].Result.Hash()
	}
	search := int32(-1)
	var goal *telemetry.Event
	for i := range journal {
		ev := &journal[i]
		if ev.Kind == telemetry.EvGoalMatched && (finalHash == 0 || ev.Hash == finalHash) {
			goal = ev
			search = ev.Search
			break
		}
	}

	// Per-depth frontier sizes and the search's timebase (its earliest
	// event, so found-at reads as time into this query's search).
	frontier := make(map[int32]int64)
	var t0 int64
	haveT0 := false
	for _, ev := range journal {
		if search >= 0 && ev.Search != search {
			continue
		}
		if !haveT0 || ev.T < t0 {
			t0, haveT0 = ev.T, true
		}
		if ev.Kind == telemetry.EvLevelStart {
			if _, ok := frontier[ev.Depth]; !ok {
				frontier[ev.Depth] = ev.N
			}
		}
	}

	// First firing per (depth, state, rule): when the search first generated
	// each witness step's state.
	type fireKey struct {
		depth int32
		hash  uint64
		rule  string
	}
	fired := make(map[fireKey]int64)
	for _, ev := range journal {
		if ev.Kind != telemetry.EvRuleFired || (search >= 0 && ev.Search != search) {
			continue
		}
		k := fireKey{depth: ev.Depth, hash: ev.Hash, rule: ev.Rule}
		if _, ok := fired[k]; !ok {
			fired[k] = ev.T
		}
	}

	fmt.Fprintf(&b, "attack found in %d steps (%d states explored, %s elapsed)\n",
		len(res.Witness), res.StatesExplored, res.Elapsed.Round(time.Microsecond))
	if goal != nil {
		fmt.Fprintf(&b, "goal matched at +%s, after %d states, at depth %d\n",
			time.Duration(goal.T-t0).Round(time.Microsecond), goal.N, goal.Depth)
	} else if len(journal) == 0 {
		b.WriteString("(no recorder journal: timeline columns unavailable)\n")
	} else {
		b.WriteString("(goal event not in journal — recorder ring may have overflowed)\n")
	}
	if res.Stats != nil && res.Stats.DroppedEvents > 0 {
		fmt.Fprintf(&b, "(recorder dropped %d events to ring wrap-around: the journal holds the most recent events only, annotations may be incomplete)\n",
			res.Stats.DroppedEvents)
	}
	fmt.Fprintf(&b, "%4s  %-14s %5s %9s %12s  %s\n",
		"step", "syscall", "depth", "frontier", "found-at", "state")
	for i, st := range res.Witness {
		depth := int32(i + 1)
		fr, at := "-", "-"
		// The step's state was generated while expanding level depth-1.
		if n, ok := frontier[depth-1]; ok {
			fr = fmt.Sprintf("%d", n)
		}
		if t, ok := fired[fireKey{depth: depth, hash: st.Result.Hash(), rule: st.Rule}]; ok {
			at = "+" + time.Duration(t-t0).Round(time.Microsecond).String()
		}
		state := st.Result.String()
		if len(state) > maxExplainState {
			state = state[:maxExplainState] + "…"
		}
		fmt.Fprintf(&b, "%4d  %-14s %5d %9s %12s  %s\n",
			i+1, st.Rule, depth, fr, at, state)
	}
	return b.String()
}

// unknownCause names the bound that stopped a ⏱ search, with the flag that
// raises it.
func unknownCause(res *rosa.Result) string {
	switch {
	case res.Err != nil:
		return fmt.Sprintf("the search faulted before reaching a verdict: %v\n", res.Err)
	case res.Interrupted:
		return "the search was interrupted by its deadline or a signal before reaching a verdict; raise -timeout\n"
	default:
		return "the search exceeded its state budget before reaching a verdict; raise -budget\n"
	}
}
