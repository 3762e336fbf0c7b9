package rewrite

import (
	"strings"
	"testing"
)

func TestMatchBasics(t *testing.T) {
	sig := Signature{"f": "F", "g": "G"}
	tests := []struct {
		name     string
		pat, sub *Term
		want     int // number of bindings
	}{
		{"same constant", NewOp("f"), NewOp("f"), 1},
		{"different symbol", NewOp("f"), NewOp("g"), 0},
		{"int literal", NewInt(3), NewInt(3), 1},
		{"int mismatch", NewInt(3), NewInt(4), 0},
		{"string literal", NewStr("x"), NewStr("x"), 1},
		{"var binds", NewVar("X", ""), NewOp("f"), 1},
		{"sorted var right sort", NewVar("X", "F"), NewOp("f"), 1},
		{"sorted var wrong sort", NewVar("X", "G"), NewOp("f"), 0},
		{"int sort", NewVar("X", SortInt), NewInt(9), 1},
		{"nested", NewOp("f", NewVar("X", "")), NewOp("f", NewInt(5)), 1},
		{"arity mismatch", NewOp("f", NewVar("X", "")), NewOp("f"), 0},
		{
			"non-linear equal",
			NewOp("f", NewVar("X", ""), NewVar("X", "")),
			NewOp("f", NewInt(1), NewInt(1)), 1,
		},
		{
			"non-linear unequal",
			NewOp("f", NewVar("X", ""), NewVar("X", "")),
			NewOp("f", NewInt(1), NewInt(2)), 0,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := Match(tt.pat, tt.sub, sig)
			if len(got) != tt.want {
				t.Errorf("Match = %d bindings, want %d", len(got), tt.want)
			}
		})
	}
}

func TestMatchBindingValues(t *testing.T) {
	sig := Signature{}
	pat := NewOp("pair", NewVar("A", SortInt), NewVar("B", ""))
	sub := NewOp("pair", NewInt(7), NewStr("hi"))
	bs := Match(pat, sub, sig)
	if len(bs) != 1 {
		t.Fatalf("bindings = %d", len(bs))
	}
	if v, ok := bs[0].Int("A"); !ok || v != 7 {
		t.Errorf("A = %v", bs[0].Get("A"))
	}
	if b := bs[0].Get("B"); b.Kind != Str || b.StrVal != "hi" {
		t.Errorf("B = %v", b)
	}
}

func TestConfigMatching(t *testing.T) {
	sig := Signature{"obj": "Object", "msg": "Msg"}
	conf := NewConfig(
		NewOp("obj", NewInt(1)),
		NewOp("obj", NewInt(2)),
		NewOp("msg", NewInt(1)),
	)

	t.Run("element plus rest", func(t *testing.T) {
		pat := NewConfig(NewOp("msg", NewVar("P", SortInt)), NewVar("Z", SortConfig))
		bs := Match(pat, conf, sig)
		if len(bs) != 1 {
			t.Fatalf("bindings = %d", len(bs))
		}
		rest := bs[0].Get("Z")
		if rest.Kind != Config || len(rest.Args) != 2 {
			t.Errorf("rest = %s", rest)
		}
	})
	t.Run("two elements any order", func(t *testing.T) {
		pat := NewConfig(
			NewOp("obj", NewVar("A", SortInt)),
			NewOp("obj", NewVar("B", SortInt)),
			NewVar("Z", SortConfig),
		)
		bs := Match(pat, conf, sig)
		// (A,B) = (1,2) and (2,1).
		if len(bs) != 2 {
			t.Fatalf("bindings = %d, want 2", len(bs))
		}
	})
	t.Run("exact without rest", func(t *testing.T) {
		pat := NewConfig(
			NewOp("obj", NewVar("A", SortInt)),
			NewOp("obj", NewVar("B", SortInt)),
		)
		if bs := Match(pat, conf, sig); len(bs) != 0 {
			t.Errorf("bindings = %d, want 0 (element counts differ)", len(bs))
		}
	})
	t.Run("non-linear across elements", func(t *testing.T) {
		pat := NewConfig(
			NewOp("obj", NewVar("A", SortInt)),
			NewOp("msg", NewVar("A", SortInt)),
			NewVar("Z", SortConfig),
		)
		bs := Match(pat, conf, sig)
		if len(bs) != 1 {
			t.Fatalf("bindings = %d, want 1 (only id 1 has both)", len(bs))
		}
		if v, _ := bs[0].Int("A"); v != 1 {
			t.Errorf("A = %d", v)
		}
	})
}

func TestConfigCanonicalString(t *testing.T) {
	a := NewConfig(NewOp("x"), NewOp("y"), NewInt(3))
	b := NewConfig(NewInt(3), NewOp("y"), NewOp("x"))
	if a.String() != b.String() {
		t.Errorf("canonical strings differ: %s vs %s", a, b)
	}
	if !a.Equal(b) {
		t.Error("Equal should hold modulo element order")
	}
}

func TestConfigFlattening(t *testing.T) {
	inner := NewConfig(NewOp("a"), NewOp("b"))
	outer := NewConfig(inner, NewOp("c"))
	if len(outer.Args) != 3 {
		t.Errorf("flattened size = %d, want 3", len(outer.Args))
	}
}

// vending builds the classic vending machine: a $ buys a cake (c) or an
// apple (a) with a quarter (q) change... simplified: $ -> c, $ -> a q,
// q q q q -> $.
func vending() *System {
	dollar := func() *Term { return NewOp("$") }
	q := func() *Term { return NewOp("q") }
	return &System{
		Sig: Signature{"$": "Coin", "q": "Coin", "c": "Item", "a": "Item"},
		Rules: []Rule{
			{
				Name: "buy-cake",
				LHS:  NewConfig(dollar(), NewVar("Z", SortConfig)),
				RHS:  NewConfig(NewOp("c"), NewVar("Z", SortConfig)),
			},
			{
				Name: "buy-apple",
				LHS:  NewConfig(dollar(), NewVar("Z", SortConfig)),
				RHS:  NewConfig(NewOp("a"), q(), NewVar("Z", SortConfig)),
			},
			{
				Name: "change",
				LHS:  NewConfig(q(), q(), q(), q(), NewVar("Z", SortConfig)),
				RHS:  NewConfig(dollar(), NewVar("Z", SortConfig)),
			},
		},
	}
}

func countSym(t *Term, sym string) int {
	n := 0
	for _, a := range t.Args {
		if a.Kind == Op && a.Sym == sym {
			n++
		}
	}
	return n
}

func TestVendingSearch(t *testing.T) {
	s := vending()
	// With one dollar and three quarters, can we get an apple and a cake?
	init := NewConfig(NewOp("$"), NewOp("q"), NewOp("q"), NewOp("q"))
	goal := Goal{
		Pattern: NewConfig(NewVar("S", SortConfig)),
		Cond: func(b *Env) bool {
			st := b.Get("S")
			return countSym(st, "a") >= 1 && countSym(st, "c") >= 1
		},
	}
	res, err := s.Search(init, goal, Options{MaxDepth: 10})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found {
		t.Fatalf("goal unreachable; explored %d states", res.StatesExplored)
	}
	// Witness: buy-apple ($ -> a q, now 4 quarters), change (-> $), buy-cake.
	if len(res.Witness) != 3 {
		t.Errorf("witness length = %d, want 3 (BFS shortest)\n%s",
			len(res.Witness), FormatWitness(res.Witness))
	}
}

func TestSearchUnreachableExhausts(t *testing.T) {
	s := vending()
	init := NewConfig(NewOp("q"), NewOp("q"))
	goal := Goal{
		Pattern: NewConfig(NewVar("S", SortConfig)),
		Cond: func(b *Env) bool {
			return countSym(b.Get("S"), "c") >= 1
		},
	}
	res, err := s.Search(init, goal, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Found {
		t.Error("two quarters cannot buy a cake")
	}
	if res.Truncated {
		t.Error("finite space should exhaust, not truncate")
	}
	if res.StatesExplored != 1 {
		t.Errorf("explored %d states, want 1 (no rule applies)", res.StatesExplored)
	}
}

func TestSearchMaxStatesTruncates(t *testing.T) {
	// An infinite counter system: c(n) -> c(n+1).
	s := counter()
	goal := Goal{Pattern: cnt(-1)} // unreachable
	res, err := s.Search(cnt(0), goal, Options{MaxStates: 100})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Truncated {
		t.Error("expected truncation")
	}
	if res.Found {
		t.Error("goal must not be found")
	}
}

func TestSearchMaxDepth(t *testing.T) {
	s := counter()
	goal := Goal{Pattern: cnt(5)}
	res, err := s.Search(cnt(0), goal, Options{MaxDepth: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Found {
		t.Error("goal at depth 5 must be unreachable with MaxDepth 3")
	}
	res2, err := s.Search(cnt(0), goal, Options{MaxDepth: 5})
	if err != nil {
		t.Fatal(err)
	}
	if !res2.Found || len(res2.Witness) != 5 {
		t.Errorf("found=%v witness=%d, want found at depth 5", res2.Found, len(res2.Witness))
	}
}

func TestConditionalRule(t *testing.T) {
	// dec only fires on positive counters.
	s := &System{
		Rules: []Rule{{
			Name: "dec",
			LHS:  NewConfig(NewOp("c", NewVar("N", SortInt))),
			Cond: func(b *Env) bool {
				n, _ := b.Int("N")
				return n > 0
			},
			Build: func(b *Env) (*Term, bool) {
				n, _ := b.Int("N")
				return cnt(n - 1), true
			},
		}},
	}
	succ, err := s.Successors(cnt(0))
	if err != nil {
		t.Fatal(err)
	}
	if len(succ) != 0 {
		t.Errorf("rule fired on zero: %v", succ)
	}
	succ, err = s.Successors(cnt(2))
	if err != nil {
		t.Fatal(err)
	}
	if len(succ) != 1 || !succ[0].Result.Equal(cnt(1)) {
		t.Errorf("successors = %v", succ)
	}
}

func TestBuildVeto(t *testing.T) {
	s := &System{
		Rules: []Rule{{
			Name:  "never",
			LHS:   NewConfig(NewVar("X", SortConfig)),
			Build: func(*Env) (*Term, bool) { return nil, false },
		}},
	}
	succ, err := s.Successors(NewConfig(NewOp("a")))
	if err != nil {
		t.Fatal(err)
	}
	if len(succ) != 0 {
		t.Errorf("vetoed rule produced successors: %v", succ)
	}
}

func TestSubstSplicesConfigs(t *testing.T) {
	b := Binding{"Z": NewConfig(NewOp("x"), NewOp("y"))}
	tmpl := NewConfig(NewOp("a"), NewVar("Z", SortConfig))
	got := Subst(tmpl, b)
	if got.Kind != Config || len(got.Args) != 3 {
		t.Errorf("Subst = %s, want 3 spliced elements", got)
	}
}

func TestFormatWitness(t *testing.T) {
	if got := FormatWitness(nil); !strings.Contains(got, "initial state") {
		t.Errorf("empty witness = %q", got)
	}
	w := []Step{{Rule: "r1", Result: NewOp("a")}}
	if got := FormatWitness(w); !strings.Contains(got, "r1") {
		t.Errorf("witness = %q", got)
	}
}

func TestDedupAblation(t *testing.T) {
	// A two-rule commuting diamond: without dedup the frontier blows up,
	// with dedup the space is polynomial. The engine always deduplicates;
	// the reference search can switch it off. Check that all three find
	// the goal, that the engine explores what the deduplicating reference
	// does, and that dedup explores no more states.
	s := &System{
		Rules: []Rule{
			{
				Name: "incA",
				LHS:  NewConfig(NewOp("p", NewVar("A", SortInt), NewVar("B", SortInt))),
				Cond: func(b *Env) bool { a, _ := b.Int("A"); return a < 4 },
				Build: func(b *Env) (*Term, bool) {
					a, _ := b.Int("A")
					c, _ := b.Int("B")
					return NewConfig(NewOp("p", NewInt(a+1), NewInt(c))), true
				},
			},
			{
				Name: "incB",
				LHS:  NewConfig(NewOp("p", NewVar("A", SortInt), NewVar("B", SortInt))),
				Cond: func(b *Env) bool { c, _ := b.Int("B"); return c < 4 },
				Build: func(b *Env) (*Term, bool) {
					a, _ := b.Int("A")
					c, _ := b.Int("B")
					return NewConfig(NewOp("p", NewInt(a), NewInt(c+1))), true
				},
			},
		},
	}
	goal := Goal{Pattern: NewConfig(NewOp("p", NewInt(4), NewInt(4)))}
	init := NewConfig(NewOp("p", NewInt(0), NewInt(0)))

	on, err := s.Search(init, goal, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := referenceSearch(s, init, goal, refOptions{})
	if err != nil {
		t.Fatal(err)
	}
	no, err := referenceSearch(s, init, goal, refOptions{NoDedup: true})
	if err != nil {
		t.Fatal(err)
	}
	if !on.Found || !ref.Found || !no.Found {
		t.Fatalf("found: engine=%v reference=%v nodedup=%v", on.Found, ref.Found, no.Found)
	}
	if d := refDiff(on, ref.SearchResult); d != "" {
		t.Errorf("engine vs reference: %s", d)
	}
	if on.StatesExplored > no.StatesExplored {
		t.Errorf("dedup explored more states (%d) than no-dedup (%d)",
			on.StatesExplored, no.StatesExplored)
	}
}

func TestRewriteCommand(t *testing.T) {
	s := vending()
	// One dollar: rewrite deterministically follows the first applicable
	// rule until quiescence (buying items until no money is left).
	final, trace, truncated, err := s.Rewrite(NewConfig(NewOp("$")), 100)
	if err != nil {
		t.Fatal(err)
	}
	if truncated {
		t.Error("tiny system should quiesce")
	}
	if len(trace) == 0 {
		t.Fatal("no rules applied")
	}
	// The final state holds an item and no dollars.
	if countSym(final, "$") != 0 {
		t.Errorf("final state still has money: %s", final)
	}
	if countSym(final, "c")+countSym(final, "a") == 0 {
		t.Errorf("final state has no items: %s", final)
	}
}

func TestRewriteBudget(t *testing.T) {
	// The infinite counter never quiesces; the budget stops it.
	s := counter()
	final, trace, truncated, err := s.Rewrite(cnt(0), 7)
	if err != nil {
		t.Fatal(err)
	}
	if !truncated || len(trace) != 7 {
		t.Errorf("truncated=%v steps=%d, want true/7", truncated, len(trace))
	}
	if !final.Equal(cnt(7)) {
		t.Errorf("final = %s, want c(7)", final)
	}
}

func TestRewriteQuiescentImmediately(t *testing.T) {
	s := vending()
	final, trace, truncated, err := s.Rewrite(NewConfig(NewOp("q")), 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(trace) != 0 || truncated {
		t.Errorf("one quarter should be inert: steps=%d", len(trace))
	}
	if countSym(final, "q") != 1 {
		t.Errorf("final = %s", final)
	}
}
