package rewrite_test

import (
	"fmt"

	"privanalyzer/internal/rewrite"
)

// Example builds a two-rule system over an object configuration and searches
// it — the Maude fragment ROSA is built on.
func Example() {
	// A token game: mint(n) emits n coins one at a time; two coins buy a prize.
	coin := func() *rewrite.Term { return rewrite.NewOp("coin") }
	sys := &rewrite.System{
		Rules: []rewrite.Rule{
			{
				Name: "mint",
				LHS: rewrite.NewConfig(
					rewrite.NewOp("mint", rewrite.NewVar("N", rewrite.SortInt)),
					rewrite.NewVar("Z", rewrite.SortConfig)),
				Cond: func(b *rewrite.Env) bool { n, _ := b.Int("N"); return n > 0 },
				Build: func(b *rewrite.Env) (*rewrite.Term, bool) {
					n, _ := b.Int("N")
					return rewrite.NewConfig(
						rewrite.NewOp("mint", rewrite.NewInt(n-1)),
						coin(), b.Get("Z")), true
				},
			},
			{
				Name: "buy",
				LHS:  rewrite.NewConfig(coin(), coin(), rewrite.NewVar("Z", rewrite.SortConfig)),
				RHS:  rewrite.NewConfig(rewrite.NewOp("prize"), rewrite.NewVar("Z", rewrite.SortConfig)),
			},
		},
	}
	goal := rewrite.Goal{
		Pattern: rewrite.NewConfig(rewrite.NewOp("prize"), rewrite.NewVar("Z", rewrite.SortConfig)),
	}
	res, _ := sys.Search(rewrite.NewConfig(rewrite.NewOp("mint", rewrite.NewInt(2))), goal, rewrite.Options{})
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
