package rewrite_test

import (
	"context"
	"fmt"

	"privanalyzer/internal/rewrite"
)

// Example builds a two-rule system over an object configuration and searches
// it — the Maude fragment ROSA is built on. Each rule's BuildAll returns the
// successors of one match, built with Env.Replace: the unmatched elements
// plus the objects that take the matched ones' place.
func Example() {
	// A token game: mint(n) emits n coins one at a time; two coins buy a prize.
	coin := func() *rewrite.Term { return rewrite.NewOp("coin") }
	mint := rewrite.NewConfig(
		rewrite.NewOp("mint", rewrite.NewVar("N", rewrite.SortInt)),
		rewrite.NewVar("Z", rewrite.SortConfig))
	n := rewrite.SlotsOf(mint)["N"]
	sys := &rewrite.System{
		Rules: []rewrite.Rule{
			{
				Name: "mint",
				LHS:  mint,
				Cond: func(e *rewrite.Env) bool { v, _ := e.IntAt(n); return v > 0 },
				BuildAll: func(e *rewrite.Env) []*rewrite.Term {
					v, _ := e.IntAt(n)
					return []*rewrite.Term{e.Replace(rewrite.NewOp("mint", rewrite.NewInt(v-1)), coin())}
				},
			},
			{
				Name: "buy",
				LHS:  rewrite.NewConfig(coin(), coin(), rewrite.NewVar("Z", rewrite.SortConfig)),
				BuildAll: func(e *rewrite.Env) []*rewrite.Term {
					return []*rewrite.Term{e.Replace(rewrite.NewOp("prize"))}
				},
			},
		},
	}
	goal := rewrite.Goal{
		Pattern: rewrite.NewConfig(rewrite.NewOp("prize"), rewrite.NewVar("Z", rewrite.SortConfig)),
	}
	init := rewrite.NewConfig(rewrite.NewOp("mint", rewrite.NewInt(2)))
	res, err := sys.SearchContext(context.Background(), init, goal, rewrite.Options{})
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println("found:", res.Found)
	for _, s := range res.Witness {
		fmt.Println("rule:", s.Rule)
	}
	// Output:
	// found: true
	// rule: mint
	// rule: mint
	// rule: buy
}
