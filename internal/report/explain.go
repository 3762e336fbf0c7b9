package report

import (
	"fmt"
	"strconv"
	"strings"

	"privanalyzer/internal/rosa"
)

// This file is the `rosa -explain` rendering path: a vulnerable query's
// witness annotated from the search's own statistics — the depth of each
// step's state, the frontier it was generated from, and the discovery
// ordinals its breadth-first level spans. Every column is read from the
// witness and SearchStats, so the text is a pure function of the query.

// maxExplainState bounds the rendered state column; full states are pages
// long and the timeline is about the shape of the discovery, not the terms.
const maxExplainState = 56

// ExplainWitness renders res's witness as an attack timeline. Witness step
// i sits at depth d = i+1 and was generated while expanding level d-1, whose
// size is Stats.Frontier[d-1]. The search numbers states in discovery order
// (the root is #1), so an intermediate step is one of its level's ordinals,
// #(ΣFrontier[0..d-1]+1) to #ΣFrontier[0..d], and the goal step, where the
// search stopped, is exactly #StatesExplored. Non-vulnerable results explain
// why there is no witness.
func ExplainWitness(res *rosa.Result) string {
	if res == nil {
		return ""
	}
	var b strings.Builder
	if res.Verdict != rosa.Vulnerable {
		fmt.Fprintf(&b, "verdict %s — no witness to explain (%d states explored)\n",
			res.Verdict, res.StatesExplored)
		if res.Verdict == rosa.Unknown {
			b.WriteString(unknownCause(res))
		}
		return b.String()
	}
	var frontier []int
	if res.Stats != nil {
		frontier = res.Stats.Frontier
	}
	fmt.Fprintf(&b, "attack found in %d steps (%d states explored)\n", len(res.Witness), res.StatesExplored)
	fmt.Fprintf(&b, "goal matched after %d states, at depth %d\n", res.StatesExplored, len(res.Witness))
	fmt.Fprintf(&b, "%4s  %-14s %5s %9s %15s  %s\n",
		"step", "syscall", "depth", "frontier", "discovered", "state")
	before := 0 // states discovered above the step's depth: ΣFrontier[0..d-1]
	for i, st := range res.Witness {
		d := i + 1
		fr, disc := "-", "-"
		if d-1 < len(frontier) {
			fr = strconv.Itoa(frontier[d-1])
			before += frontier[d-1]
		}
		switch {
		case d == len(res.Witness):
			disc = "#" + strconv.Itoa(res.StatesExplored)
		case d < len(frontier):
			disc = fmt.Sprintf("#%d–#%d", before+1, before+frontier[d])
		}
		state := st.Result.String()
		if len(state) > maxExplainState {
			state = state[:maxExplainState] + "…"
		}
		fmt.Fprintf(&b, "%4d  %-14s %5d %9s %15s  %s\n", d, st.Rule, d, fr, disc, state)
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
