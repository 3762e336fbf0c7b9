package rewrite

import (
	"context"
	"fmt"
	"sync"
	"testing"
)

func TestInternCanonicalizes(t *testing.T) {
	mk := func() *Term {
		return NewConfig(
			NewOp("Process", NewInt(1), NewInt(0), NewStr("a")),
			NewOp("File", NewInt(2)),
		)
	}
	a, b := Intern(mk()), Intern(mk())
	if a != b {
		t.Fatal("structurally equal terms interned to distinct pointers")
	}
	if !a.Equal(b) {
		t.Fatal("interned term not Equal to itself")
	}
	// AC invariance: permuting configuration elements must intern to the
	// same canonical term.
	perm := Intern(NewConfig(
		NewOp("File", NewInt(2)),
		NewOp("Process", NewInt(1), NewInt(0), NewStr("a")),
	))
	if perm != a {
		t.Fatal("permuted configuration interned to a distinct pointer")
	}
	// Distinct terms must stay distinct, and interned inequality must be a
	// pointer compare.
	c := Intern(NewOp("File", NewInt(3)))
	if c == a || c.Equal(a) {
		t.Fatal("distinct terms merged by the interner")
	}
	// Interning is idempotent and does not allocate a new canonical copy.
	if Intern(a) != a {
		t.Fatal("re-interning the canonical term returned a different pointer")
	}
}

func TestInternSubtermsShared(t *testing.T) {
	a := Intern(NewOp("pair", NewOp("x", NewInt(1)), NewOp("y", NewInt(2))))
	b := Intern(NewOp("other", NewOp("x", NewInt(1))))
	if a.Args[0] != b.Args[0] {
		t.Fatal("equal subterms of distinct interned terms are not shared")
	}
}

// TestInternHashCollision forces two distinct terms into the same interner
// bucket by pre-seeding identical memoized hashes; the structural check must
// keep them apart. It then interns a run of terms in one shard: its first
// and last 40 share two hashes whose probes start at the table's last slots,
// so their probes wrap around to the table's start, and the run is long
// enough that the shard's table doubles before it ends.
func TestInternHashCollision(t *testing.T) {
	a := NewOp("collide", NewInt(1))
	b := NewOp("collide", NewInt(2))
	a.hash.Store(42)
	b.hash.Store(42)
	ia, ib := Intern(a), Intern(b)
	if ia == ib {
		t.Fatal("hash-colliding distinct terms merged by the interner")
	}
	if !ia.Equal(Intern(NewOpWithHash("collide", 42, 1))) {
		t.Fatal("collided term lost its identity")
	}

	// A symbol and hash seed no earlier run used, so every term below is new.
	seed := uint64(InternerSize())
	sym := fmt.Sprintf("collide-wrap-%d", seed)
	k, n, slotsBefore := growableShard(80)
	hash := func(i int) uint64 {
		if i < 40 || i >= n-40 {
			// All ones above the shard bits (but the lowest, for odd i):
			// the probe starts at the last or second-to-last slot.
			return (^uint64(internShards-1) - uint64(i%2)<<internShardBits) | k
		}
		return spreadHash(seed, k, i)
	}
	canon := make([]*Term, n)
	seen := make(map[*Term]int, n)
	for i := range canon {
		canon[i] = Intern(collidingTerm(sym, i, hash(i)))
		if j, dup := seen[canon[i]]; dup {
			t.Fatalf("colliding terms %d and %d merged by the interner", j, i)
		}
		seen[canon[i]] = i
	}
	if after := slotsOf(k); after <= slotsBefore {
		t.Fatalf("shard table stayed at %d slots over %d inserts; the run did not grow it", after, n)
	}
	for i, c := range canon {
		if got := Intern(collidingTerm(sym, i, hash(i))); got != c {
			t.Fatalf("re-interning colliding term %d returned a different pointer", i)
		}
		if Intern(c) != c {
			t.Fatalf("re-interning canonical colliding term %d returned a different pointer", i)
		}
	}
}

// collidingTerm builds sym(i) with its memoized hash seeded to h. The
// argument is interned already, so Intern keeps the term, and its seeded
// hash, as the canonical representative.
func collidingTerm(sym string, i int, h uint64) *Term {
	t := NewOp(sym, Intern(NewInt(int64(i))))
	t.hash.Store(h)
	return t
}

// spreadHash spreads i over shard k, seeded so that runs do not collide.
func spreadHash(seed, k uint64, i int) uint64 {
	return mix64(seed+uint64(i))&^(internShards-1) | k
}

// growableShard returns the shard whose table grows after the fewest new
// terms, how many new terms to intern there (that many, or min if more),
// and its current slot count. Picking the emptiest shard keeps repeated
// runs from doubling one table again and again.
func growableShard(min int) (k uint64, n, slots int) {
	n = -1
	for i := range interner {
		s := &interner[i]
		s.mu.Lock()
		if need := len(s.slots)/2 - s.n + 1; n < 0 || need < n {
			k, n, slots = uint64(i), need, len(s.slots)
		}
		s.mu.Unlock()
	}
	return k, max(min, n), slots
}

// slotsOf returns shard k's slot count.
func slotsOf(k uint64) int {
	s := &interner[k]
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.slots)
}

// NewOpWithHash builds an Op with a pre-seeded memoized hash (test helper
// for collision scenarios).
func NewOpWithHash(sym string, h uint64, arg int64) *Term {
	t := NewOp(sym, NewInt(arg))
	t.hash.Store(h)
	return t
}

func TestInternConcurrent(t *testing.T) {
	const goroutines = 16
	out := make([]*Term, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			out[g] = Intern(NewConfig(
				NewOp("worker", NewInt(7)),
				NewOp("shared", NewStr("state")),
			))
		}(g)
	}
	wg.Wait()
	for g := 1; g < goroutines; g++ {
		if out[g] != out[0] {
			t.Fatalf("goroutine %d interned a distinct pointer", g)
		}
	}
}

// TestInternConcurrentGrowth: goroutines intern the same classes, all in one
// shard, in different orders while the shard's table doubles under them.
// Each class gets one canonical pointer, the same in every goroutine, and
// distinct classes stay distinct (run under -race by make test-race).
func TestInternConcurrentGrowth(t *testing.T) {
	const goroutines = 8
	seed := uint64(InternerSize())
	sym := fmt.Sprintf("collide-grow-%d", seed)
	k, n, slotsBefore := growableShard(200)
	out := make([][]*Term, goroutines)
	var wg sync.WaitGroup
	for g := range out {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out[g] = make([]*Term, n)
			for j := range n {
				// A different order per goroutine: rotated by g, and
				// reversed for odd g.
				i := (j + g*n/goroutines) % n
				if g%2 == 1 {
					i = n - 1 - i
				}
				out[g][i] = Intern(collidingTerm(sym, i, spreadHash(seed, k, i)))
			}
		}()
	}
	wg.Wait()
	if after := slotsOf(k); after <= slotsBefore {
		t.Fatalf("shard table stayed at %d slots over %d classes; it did not grow", after, n)
	}
	seen := make(map[*Term]int, n)
	for i, c := range out[0] {
		if j, dup := seen[c]; dup {
			t.Fatalf("classes %d and %d share one pointer", j, i)
		}
		seen[c] = i
		for g := 1; g < goroutines; g++ {
			if out[g][i] != c {
				t.Fatalf("goroutine %d interned class %d to a different pointer", g, i)
			}
		}
	}
}

func TestInternerSizeGrows(t *testing.T) {
	before := InternerSize()
	Intern(NewOp("intern-size-probe", NewInt(before)))
	if InternerSize() <= before {
		t.Fatalf("InternerSize did not grow past %d after interning a fresh term", before)
	}
}

// TestToggleEquivalence is the optimization contract: the indexed,
// interned, compiled engine yields the reference search's results —
// verdict, witness, state count, dedup hits, frontier shape, and rule
// firings — at Workers 1 and 4, without a transition cache and with one,
// cold and then warm.
func TestToggleEquivalence(t *testing.T) {
	for _, tc := range equivCases() {
		t.Run(tc.name, func(t *testing.T) {
			ref := refOf(t, tc)
			for _, w := range []int{1, 4} {
				opts := tc.opts
				opts.Workers = w
				for _, mode := range []string{"uncached", "cache-cold", "cache-warm"} {
					switch mode {
					case "uncached":
						tc.sys.Cache = nil
					case "cache-cold":
						tc.sys.Cache = NewTransitionCache()
					}
					got, err := tc.sys.SearchContext(context.Background(), tc.init, tc.goal, opts)
					if err != nil {
						t.Fatal(err)
					}
					if d := refDiff(got, ref); d != "" {
						t.Errorf("%s workers=%d: %s", mode, w, d)
					}
				}
			}
		})
	}
}

// TestSuccessorsOptsByteIdentical pins the successor sets themselves: the
// indexed, interned, compiled walk (Successors) must emit the same
// successors, in the same order, with the same renderings as the
// reference's plain walk.
func TestSuccessorsOptsByteIdentical(t *testing.T) {
	for _, tc := range equivCases() {
		fast, err := tc.sys.Successors(tc.init)
		if err != nil {
			t.Fatal(err)
		}
		naive, counts := referenceSuccessors(tc.sys, ruleLayouts(tc.sys), tc.init)
		if counts.BelowRoot != 0 {
			t.Fatalf("%s: the reference found %d successors below the root", tc.name, counts.BelowRoot)
		}
		if len(fast) != len(naive) {
			t.Fatalf("%s: %d successors from the engine, %d from the reference", tc.name, len(fast), len(naive))
		}
		for i := range fast {
			if fast[i].Rule != naive[i].Rule || fast[i].Result.String() != naive[i].Result.String() {
				t.Errorf("%s: successor %d: (%s, %s) vs reference (%s, %s)",
					tc.name, i, fast[i].Rule, fast[i].Result, naive[i].Rule, naive[i].Result)
			}
		}
	}
}

// TestTransitionCacheSharedAcrossSearches attaches a cache to a System and
// checks that a second search over the same space is answered from it with
// identical results.
func TestTransitionCacheSharedAcrossSearches(t *testing.T) {
	sys := tokens(4)
	sys.Cache = NewTransitionCache()
	init := NewConfig(NewOp("c", NewInt(0)), NewOp("c", NewInt(0)))
	goal := Goal{Pattern: NewConfig(NewOp("nope"), NewVar("Z", SortConfig))}

	first, err := sys.SearchContext(context.Background(), init, goal, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if first.Stats.CacheHits != 0 {
		t.Errorf("first search had %d cache hits; dedup should make every state a miss", first.Stats.CacheHits)
	}
	if first.Stats.CacheMisses == 0 {
		t.Error("first search recorded no cache misses with a cache attached")
	}
	if _, ok := sys.Cache.get(Intern(init)); !ok {
		t.Error("root state's successor set not cached after a full search")
	}

	second, err := sys.SearchContext(context.Background(), init, goal, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if second.Stats.CacheHits == 0 {
		t.Error("second search over the same space hit the cache zero times")
	}
	if second.Stats.CacheMisses != 0 {
		t.Errorf("second search missed %d times; the whole graph was cached", second.Stats.CacheMisses)
	}
	if second.StatesExplored != first.StatesExplored ||
		fmt.Sprint(second.Stats.Frontier) != fmt.Sprint(first.Stats.Frontier) {
		t.Error("cached search explored a different space")
	}
}

// TestRulesSkippedByIndex checks the index actually skips work on a system
// whose rules anchor on symbols absent from most states.
func TestRulesSkippedByIndex(t *testing.T) {
	sys := vending()
	init := NewConfig(NewOp("$"), NewOp("q"), NewOp("q"), NewOp("q"))
	res, err := sys.SearchContext(context.Background(), init, Goal{Pattern: NewConfig(NewOp("nope"), NewVar("Z", SortConfig))}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.RulesSkippedByIndex == 0 && res.Stats.SubtreesPruned == 0 {
		t.Error("index reported no skipped rules and no pruned subtrees on the vending system")
	}
}
