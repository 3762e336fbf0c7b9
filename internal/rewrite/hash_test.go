package rewrite

import (
	"testing"
)

// hashTerms is a zoo of structurally distinct terms; several pairs differ
// only subtly (argument order, kind, nesting) to exercise the hash's
// discrimination and Equal's agreement with the canonical rendering.
func hashTerms() []*Term {
	return []*Term{
		NewInt(0),
		NewInt(1),
		NewInt(-1),
		NewStr(""),
		NewStr("0"),
		NewOp("a"),
		NewOp("b"),
		NewOp("a", NewInt(1)),
		NewOp("a", NewInt(1), NewInt(2)),
		NewOp("a", NewInt(2), NewInt(1)), // Op args are ordered
		NewOp("a", NewOp("b")),
		NewOp("b", NewOp("a")),
		NewVar("X", ""),
		NewVar("X", "Universal"), // same as above: "" renders as Universal
		NewVar("X", SortInt),
		NewVar("Y", ""),
		NewConfig(),
		NewConfig(NewOp("a"), NewOp("b")),
		NewConfig(NewOp("b"), NewOp("a")), // same as above: configs are multisets
		NewConfig(NewOp("a"), NewOp("a"), NewOp("b")),
		NewConfig(NewOp("a", NewInt(1)), NewOp("a", NewInt(2))),
		NewConfig(NewConfig(NewOp("a")), NewOp("b")),
	}
}

// TestHashEqualStringAgree pins the three equality surfaces to each other:
// structural Equal, the canonical String rendering, and (one direction) the
// structural hash. The engine's visited set is only correct if Equal means
// exactly what String-key deduplication used to mean.
func TestHashEqualStringAgree(t *testing.T) {
	terms := hashTerms()
	for i, a := range terms {
		for j, b := range terms {
			strEq := a.String() == b.String()
			if eq := a.Equal(b); eq != strEq {
				t.Errorf("terms %d,%d: Equal=%v but String-equal=%v (%s vs %s)",
					i, j, eq, strEq, a, b)
			}
			if strEq && a.Hash() != b.Hash() {
				t.Errorf("terms %d,%d: equal terms hash differently (%s)", i, j, a)
			}
		}
	}
}

// TestConfigHashOrderInvariant: a configuration's hash and equality ignore
// element order, including for runs of duplicate elements.
func TestConfigHashOrderInvariant(t *testing.T) {
	a := NewConfig(NewOp("p", NewInt(1)), NewOp("p", NewInt(2)), NewOp("q"), NewOp("q"))
	b := NewConfig(NewOp("q"), NewOp("p", NewInt(2)), NewOp("q"), NewOp("p", NewInt(1)))
	if a.Hash() != b.Hash() {
		t.Error("permuted configs hash differently")
	}
	if !a.Equal(b) {
		t.Error("permuted configs not Equal")
	}
	c := NewConfig(NewOp("q"), NewOp("p", NewInt(2)), NewOp("p", NewInt(1)), NewOp("p", NewInt(1)))
	if a.Equal(c) {
		t.Error("different multisets reported Equal")
	}
}

// TestStateSetDedup: the interning set admits each distinct state once,
// across permuted renderings.
func TestStateSetDedup(t *testing.T) {
	s := newStateSet()
	if !s.add(NewConfig(NewOp("a"), NewOp("b"))) {
		t.Error("first add rejected")
	}
	if s.add(NewConfig(NewOp("b"), NewOp("a"))) {
		t.Error("permutation admitted twice")
	}
	if !s.add(NewConfig(NewOp("a"), NewOp("b"), NewOp("b"))) {
		t.Error("distinct multiset rejected")
	}
}

// TestHashMemoStable: the memoized hash survives whatever String() does to
// the term's internal memo fields.
func TestHashMemoStable(t *testing.T) {
	term := NewConfig(NewOp("a", NewInt(7)), NewOp("b"))
	h1 := term.Hash()
	_ = term.String()
	if h2 := term.Hash(); h1 != h2 {
		t.Errorf("hash changed after String(): %x -> %x", h1, h2)
	}
}

// TestHashZeroSentinel: a term whose computed hash is exactly 0 must be
// remapped to a nonzero value, because 0 is the "not yet computed" memo
// sentinel — without the remap every Hash() call would recompute, and the
// interner's shard selection would disagree with the memoized value under
// concurrency. NewInt(int64(tagInt)) is such a term: its pre-mix value is
// uint64(v)^tagInt == 0 and mix64(0) == 0.
func TestHashZeroSentinel(t *testing.T) {
	if mix64(0) != 0 {
		t.Skip("mix64(0) != 0; the adversarial input no longer maps to the sentinel")
	}
	tag := tagInt // non-constant so the uint64 -> int64 conversion wraps
	z := NewInt(int64(tag))
	h := z.Hash()
	if h == 0 {
		t.Fatal("Hash() returned the 0 sentinel")
	}
	if h != 1 {
		t.Fatalf("zero-colliding hash remapped to %d, want 1", h)
	}
	if z.Hash() != h {
		t.Fatal("remapped hash not memoized stably")
	}
	// The remap must not break equality or interning for such terms.
	if !z.Equal(NewInt(int64(tag))) {
		t.Fatal("zero-colliding terms unequal")
	}
	if Intern(NewInt(int64(tag))) != Intern(NewInt(int64(tag))) {
		t.Fatal("zero-colliding terms interned to distinct pointers")
	}
}

// TestUnmix64InvertsMix64: replaceConfig recovers a configuration's raw
// element sum from its memoized hash, which is only sound if unmix64 is
// mix64's exact inverse.
func TestUnmix64InvertsMix64(t *testing.T) {
	xs := []uint64{0, 1, 2, tagCfg, tagInt, ^uint64(0), 1 << 63, 0x0123456789ABCDEF}
	x := uint64(0x9E3779B97F4A7C15)
	for i := 0; i < 10000; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		xs = append(xs, x)
	}
	for _, x := range xs {
		if got := unmix64(mix64(x)); got != x {
			t.Fatalf("unmix64(mix64(%#x)) = %#x", x, got)
		}
		if got := mix64(unmix64(x)); got != x {
			t.Fatalf("mix64(unmix64(%#x)) = %#x", x, got)
		}
	}
}
