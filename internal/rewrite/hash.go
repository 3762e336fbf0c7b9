package rewrite

// Structural term hashing, the key of the interner (intern.go) that backs
// the search's visited-state deduplication. Canonical rendering is
// O(n log n) per state (configurations sort their elements as strings), so
// keys are not renderings. The hash below is a 64-bit structural
// fingerprint computed bottom-up and memoized per term: ordered combining
// for constructor arguments, a commutative combine for configuration
// elements so the hash is invariant under the associative-commutative
// element order, matching Equal. Collisions are handled, not assumed away:
// the interner keeps per-hash buckets and confirms membership with a
// structural equality check, so a collision can cost a comparison but
// never a wrong verdict.

// Hash tags keep different term kinds from colliding trivially.
const (
	tagInt uint64 = 0x9E3779B97F4A7C15
	tagStr uint64 = 0xC2B2AE3D27D4EB4F
	tagVar uint64 = 0x165667B19E3779F9
	tagOp  uint64 = 0x27D4EB2F165667C5
	tagCfg uint64 = 0x85EBCA77C2B2AE63
)

// mix64 is the splitmix64 finalizer — a cheap full-avalanche mixer.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// unmix64 inverts mix64: every step of the finalizer (xorshift, multiply by
// an odd constant) is a bijection on uint64. It recovers a configuration's
// raw element sum from its memoized hash, which is what lets a successor's
// hash be derived from its parent's in O(k) (replaceConfig).
func unmix64(x uint64) uint64 {
	x ^= x>>31 ^ x>>62
	x *= 0x319642B2D24D8EC3 // inverse of 0x94D049BB133111EB mod 2^64
	x ^= x>>27 ^ x>>54
	x *= 0x96DE1B173F119089 // inverse of 0xBF58476D1CE4E5B9 mod 2^64
	x ^= x>>30 ^ x>>60
	return x
}

// strHash is FNV-1a over a string.
func strHash(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// varSort normalizes the empty sort to the rendering's "Universal" so hash
// and equality agree with the canonical String form.
func varSort(sort string) string {
	if sort == "" {
		return "Universal"
	}
	return sort
}

// Hash returns the term's structural fingerprint. Two Equal terms always
// hash identically (configurations combine their elements commutatively);
// unequal terms collide with probability ~2^-64. The value is memoized
// atomically, so Hash is safe to call from concurrent searches on shared
// subterms.
func (t *Term) Hash() uint64 {
	if t == nil {
		return 0
	}
	if h := t.hash.Load(); h != 0 {
		return h
	}
	var h uint64
	switch t.Kind {
	case Int:
		h = mix64(uint64(t.IntVal) ^ tagInt)
	case Str:
		h = mix64(strHash(t.StrVal) ^ tagStr)
	case Var:
		h = mix64(strHash(t.Sym) ^ mix64(strHash(varSort(t.Sort))) ^ tagVar)
	case Op:
		h = strHash(t.Sym) ^ tagOp
		for _, a := range t.Args {
			h = mix64(h ^ a.Hash())
		}
	case Config:
		// Commutative combine: the sum of mixed element hashes is invariant
		// under element order, exactly like the sorted canonical rendering.
		sum := tagCfg + uint64(len(t.Args))
		for _, a := range t.Args {
			sum += mix64(a.Hash() ^ tagCfg)
		}
		h = mix64(sum)
	}
	if h == 0 {
		h = 1 // reserve 0 as the "not yet computed" sentinel
	}
	t.hash.Store(h)
	return h
}

// structEqual is structural equality modulo configuration element order —
// the same relation the canonical String rendering induces, without
// rendering anything.
func structEqual(a, b *Term) bool {
	if a == b {
		return true
	}
	if a == nil || b == nil {
		return false
	}
	if a.interned.Load() && b.interned.Load() {
		return false // hash-consed: equal terms share one pointer
	}
	if a.Kind != b.Kind {
		return false
	}
	switch a.Kind {
	case Int:
		return a.IntVal == b.IntVal
	case Str:
		return a.StrVal == b.StrVal
	case Var:
		return a.Sym == b.Sym && varSort(a.Sort) == varSort(b.Sort)
	case Op:
		if a.Sym != b.Sym || len(a.Args) != len(b.Args) {
			return false
		}
		for i := range a.Args {
			if !structEqual(a.Args[i], b.Args[i]) {
				return false
			}
		}
		return true
	case Config:
		return configEqual(a, b)
	}
	return false
}

// configEqual compares two configurations as multisets. Elements are
// aligned by hash (sorted order); runs of hash-equal elements — duplicates
// or genuine collisions — fall back to a small backtracking match.
func configEqual(a, b *Term) bool {
	n := len(a.Args)
	if n != len(b.Args) {
		return false
	}
	switch n {
	case 0:
		return true
	case 1:
		return structEqual(a.Args[0], b.Args[0])
	}
	// Fast path: both sides already in hash order. The canonical engine
	// order (sortConfigArgs) is hash-ascending, so every comparison between
	// interner candidates and bucket residents — the hottest caller — skips
	// the copies and sorts entirely.
	as, bs := a.Args, b.Args
	if !hashSorted(as) {
		as = sortedByHash(as)
	}
	if !hashSorted(bs) {
		bs = sortedByHash(bs)
	}
	for i := 0; i < n; {
		h := as[i].Hash()
		if bs[i].Hash() != h {
			return false
		}
		j := i + 1
		for j < n && as[j].Hash() == h {
			j++
		}
		// Both sides are hash-sorted, so the b-run matching h must span
		// exactly the same indices [i, j).
		if bs[j-1].Hash() != h || (j < n && bs[j].Hash() == h) {
			return false
		}
		if j-i == 1 {
			if !structEqual(as[i], bs[i]) {
				return false
			}
		} else if !permEqual(as[i:j], bs[i:j]) {
			return false
		}
		i = j
	}
	return true
}

// hashSorted reports whether the elements are already in ascending hash
// order (memoized hashes; one pass).
func hashSorted(ts []*Term) bool {
	for i := 1; i < len(ts); i++ {
		if ts[i].Hash() < ts[i-1].Hash() {
			return false
		}
	}
	return true
}

// sortedByHash returns the elements ordered by hash (insertion sort; the
// configurations this engine sees are small).
func sortedByHash(ts []*Term) []*Term {
	out := make([]*Term, len(ts))
	copy(out, ts)
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].Hash() < out[j-1].Hash(); j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// permEqual reports whether the two equally-hashed runs match under some
// permutation (backtracking; runs are tiny in practice).
func permEqual(as, bs []*Term) bool {
	used := make([]bool, len(bs))
	var rec func(i int) bool
	rec = func(i int) bool {
		if i == len(as) {
			return true
		}
		for j := range bs {
			if used[j] || !structEqual(as[i], bs[j]) {
				continue
			}
			used[j] = true
			if rec(i + 1) {
				return true
			}
			used[j] = false
		}
		return false
	}
	return rec(0)
}
