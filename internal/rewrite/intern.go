package rewrite

// Term interning (hash-consing). Intern maps every structural-equivalence
// class of terms — equality modulo configuration element order, the same
// relation structEqual and the canonical String rendering induce — to one
// canonical *Term. Interned terms make the engine's hottest comparisons
// pointer-sized: Equal between two interned terms is a pointer compare, the
// search's visited set and the cross-query transition cache key on the
// canonical pointer directly, and shared subterms (ROSA's Process/File
// objects and unconsumed messages recur across millions of states) are
// stored once with their hash and rendering memos warm.
//
// The interner is process-global so that pointer identity is meaningful
// across systems and queries — exactly what lets a per-program transition
// cache be shared by every attack query. It is sharded by hash to stay off
// the contended path under concurrent searches; each shard is a flat
// open-addressed table of terms. Lookups are collision-checked: a term with
// the probed hash is confirmed structurally, so a 64-bit collision costs one
// comparison, never a merged state.

import (
	"sync"
	"sync/atomic"
)

// internShards is the shard count; a power of two so the hash folds with a
// mask. 64 shards keep lock contention negligible across concurrent
// searches. internShardBits is its log2.
const internShards, internShardBits = 64, 6

// internShard holds n canonical terms in slots (nil = empty), a power of
// two at least 2n long; probes read a term's memoized hash atomically.
type internShard struct {
	mu    sync.Mutex
	slots []*Term
	n     int
}

var (
	interner     [internShards]internShard
	internedSize atomic.Int64
)

// home returns the index h's probe starts at and the table's index mask,
// allocating the table on first use. The caller holds s.mu.
func (s *internShard) home(h uint64) (i, mask int) {
	if s.slots == nil {
		s.slots = make([]*Term, 16)
	}
	mask = len(s.slots) - 1
	return int(h>>internShardBits) & mask, mask
}

// insert stores t, whose hash is h and whose class the table does not hold
// yet, first doubling the table if it would pass half load. The caller
// holds s.mu.
func (s *internShard) insert(t *Term, h uint64) {
	if 2*(s.n+1) > len(s.slots) {
		old := s.slots
		s.slots, s.n = make([]*Term, 2*len(old)), 0
		for _, u := range old {
			if u != nil {
				s.insert(u, u.hash.Load())
			}
		}
	}
	i, mask := s.home(h)
	for s.slots[i] != nil {
		i = (i + 1) & mask
	}
	s.slots[i] = t
	s.n++
}

// Intern returns the canonical representative of t's structural-equivalence
// class, interning t (and, recursively, its subterms) if the class is new.
// Two terms are mapped to the same pointer exactly when they are Equal —
// including configurations whose elements are permutations of each other.
//
// Canonical representatives store configuration elements in the canonical
// engine order (see sortConfigArgs). This matters for determinism, not just
// tidiness: AC matching enumerates a configuration's elements in storage
// order, so the order of a state's successors depends on its element order.
// Sorting makes the representative — and therefore every successor
// enumeration over it — a pure function of the element multiset, independent
// of which structurally-equal copy reached the interner first under
// concurrent searches.
//
// Interned terms must never be mutated; the engine already treats all terms
// as immutable. Safe for concurrent use. Nil is returned unchanged.
func Intern(t *Term) *Term {
	if t == nil {
		return nil
	}
	if t.interned.Load() {
		return t
	}
	// Probe first: the structural hash is invariant under element order and
	// interning, so a class that is already interned is found without
	// canonicalizing t at all — no argument slice, no recursion, no
	// rebuild. In a steady-state search almost every successor lands here
	// (states repeat across interleavings), making the common Intern call
	// allocation-free.
	h0 := t.Hash()
	s0 := &interner[h0&(internShards-1)]
	s0.mu.Lock()
	for i, mask := s0.home(h0); s0.slots[i] != nil; i = (i + 1) & mask {
		if u := s0.slots[i]; u.hash.Load() == h0 && structEqual(t, u) {
			s0.mu.Unlock()
			return u
		}
	}
	s0.mu.Unlock()
	// Hash-cons bottom-up: canonicalize the arguments first so that the
	// bucket's structEqual confirmation hits pointer equality on shared
	// subtrees and the stored term shares every subterm with its peers.
	nt := t
	if len(t.Args) > 0 {
		changed := false
		args := make([]*Term, len(t.Args))
		for i, a := range t.Args {
			args[i] = Intern(a)
			if args[i] != a {
				changed = true
			}
		}
		if t.Kind == Config && len(args) > 1 {
			sortConfigArgs(args)
			for i := range args {
				if args[i] != t.Args[i] {
					changed = true
					break
				}
			}
		}
		if changed {
			// Rebuild without NewConfig: t's elements are already flat.
			nt = &Term{Kind: t.Kind, Sym: t.Sym, Sort: t.Sort,
				IntVal: t.IntVal, StrVal: t.StrVal, Args: args}
		}
	}
	return internNew(nt, nt.Hash())
}

// internNew inserts nt, whose subterms are already canonical and whose
// configuration elements are in canonical order, as the representative of
// its class — unless a racing caller got there first, whose representative
// is returned instead. h is nt's structural hash.
func internNew(nt *Term, h uint64) *Term {
	s := &interner[h&(internShards-1)]
	s.mu.Lock()
	for i, mask := s.home(h); s.slots[i] != nil; i = (i + 1) & mask {
		if u := s.slots[i]; u.hash.Load() == h && structEqual(nt, u) {
			s.mu.Unlock()
			return u
		}
	}
	nt.interned.Store(true)
	s.insert(nt, h)
	s.mu.Unlock()
	internedSize.Add(1)
	return nt
}

// InternerSize returns the number of canonical terms currently interned —
// the interner occupancy the telemetry layer exposes.
func InternerSize() int64 { return internedSize.Load() }

// replaceConfig returns the canonical configuration holding subj's
// elements except those marked in removed, plus the elements of objs —
// Intern(NewConfig(kept..., objs...)) — for an interned subj. This is a
// rewrite step's successor: its parent with the matched elements replaced.
//
// The configuration hash is a sum of mixed element hashes (Hash), and mix64
// is invertible, so the successor's hash comes from the parent's memoized
// one by subtracting the removed elements' terms and adding the new ones:
// O(k) hashing for k replaced elements instead of re-summing all n. A hit
// is confirmed by a pointer merge — subj.Args and the added elements are
// both interned and in canonical order, so the successor's canonical
// elements are their merge — with the multiset compare as a fallback; a
// miss builds the canonical configuration directly, its hash stored.
// Nil objs are skipped; configuration objs are spliced, as in NewConfig.
func replaceConfig(subj *Term, removed []bool, objs []*Term) *Term {
	var abuf [8]*Term
	add := abuf[:0]
	for _, o := range objs {
		if o == nil {
			continue
		}
		if o = Intern(o); o.Kind == Config {
			add = append(add, o.Args...)
		} else {
			add = append(add, o)
		}
	}
	sortConfigArgs(add)

	n := len(add)
	h := subj.Hash()
	var sum uint64 // raw element sum of the successor, without the count
	if h != 1 {
		sum = unmix64(h) - uint64(len(subj.Args))
		for j, a := range subj.Args {
			if removed[j] {
				sum -= mix64(a.Hash() ^ tagCfg)
			} else {
				n++
			}
		}
	} else {
		// 1 is also where a zero hash is remapped, so it cannot be
		// inverted; sum the kept elements instead.
		sum = tagCfg
		for j, a := range subj.Args {
			if !removed[j] {
				sum += mix64(a.Hash() ^ tagCfg)
				n++
			}
		}
	}
	for _, a := range add {
		sum += mix64(a.Hash() ^ tagCfg)
	}
	h = mix64(sum + uint64(n))
	if h == 0 {
		h = 1
	}

	var args []*Term // the successor's canonical elements, built on demand
	s := &interner[h&(internShards-1)]
	s.mu.Lock()
	for i, mask := s.home(h); s.slots[i] != nil; i = (i + 1) & mask {
		u := s.slots[i]
		if u.hash.Load() != h || u.Kind != Config || len(u.Args) != n {
			continue
		}
		it := replaceIter{args: subj.Args, removed: removed, add: add}
		same := true
		for _, v := range u.Args {
			if it.next() != v {
				same = false
				break
			}
		}
		if !same {
			if args == nil {
				args = collectReplaced(subj.Args, removed, add, n)
			}
			same = configEqual(u, &Term{Kind: Config, Args: args})
		}
		if same {
			s.mu.Unlock()
			return u
		}
	}
	s.mu.Unlock()
	if args == nil {
		args = collectReplaced(subj.Args, removed, add, n)
	}
	nt := &Term{Kind: Config, Args: args}
	nt.hash.Store(h)
	return internNew(nt, h)
}

// replaceIter yields the elements of args not marked in removed merged with
// add, in canonical order when both inputs are.
type replaceIter struct {
	args    []*Term
	removed []bool
	add     []*Term
	i, j    int
}

func (it *replaceIter) next() *Term {
	for it.i < len(it.args) && it.removed[it.i] {
		it.i++
	}
	if it.i < len(it.args) && (it.j == len(it.add) || !canonLess(it.add[it.j], it.args[it.i])) {
		it.i++
		return it.args[it.i-1]
	}
	it.j++
	return it.add[it.j-1]
}

// collectReplaced materializes replaceIter's n elements.
func collectReplaced(args []*Term, removed []bool, add []*Term, n int) []*Term {
	out := make([]*Term, n)
	it := replaceIter{args: args, removed: removed, add: add}
	for i := range out {
		out[i] = it.next()
	}
	return out
}

// InternOp returns the canonical constructor application of sym to args —
// NewOp followed by Intern, minus every allocation when the class is
// already interned. The probe hashes the application from its parts
// (mirroring (*Term).Hash's Op case) and compares candidates argument by
// argument, so the args slice never escapes on the hit path: rule
// callbacks that rebuild a mostly-unchanged object (ROSA's process terms
// on every firing) get the canonical pointer back for free.
func InternOp(sym string, args ...*Term) *Term {
	h := strHash(sym) ^ tagOp
	for _, a := range args {
		h = mix64(h ^ a.Hash())
	}
	if h == 0 {
		h = 1
	}
	s := &interner[h&(internShards-1)]
	s.mu.Lock()
	for i, mask := s.home(h); s.slots[i] != nil; i = (i + 1) & mask {
		if u := s.slots[i]; u.hash.Load() == h && opEqualParts(u, sym, args) {
			s.mu.Unlock()
			return u
		}
	}
	s.mu.Unlock()
	cp := make([]*Term, len(args))
	copy(cp, args)
	return Intern(&Term{Kind: Op, Sym: sym, Args: cp})
}

// opEqualParts reports whether u equals the constructor application of sym
// to args. Op arguments are ordered, so this is a pairwise comparison.
func opEqualParts(u *Term, sym string, args []*Term) bool {
	if u.Kind != Op || u.Sym != sym || len(u.Args) != len(args) {
		return false
	}
	for i, a := range args {
		if !structEqual(a, u.Args[i]) {
			return false
		}
	}
	return true
}

// sortConfigArgs sorts configuration elements into the canonical engine
// order: ascending structural hash, with hash ties broken by the canonical
// rendering. The order is a pure function of the element multiset (hash and
// rendering are both structural), so any two Equal configurations sort
// identically — the property the engine's determinism contract rests on.
// Structurally equal elements compare as ties and keep their relative order;
// they are interchangeable for matching, so this cannot affect results.
// Insertion sort: the configurations this engine sees are small.
func sortConfigArgs(args []*Term) {
	for i := 1; i < len(args); i++ {
		for j := i; j > 0 && canonLess(args[j], args[j-1]); j-- {
			args[j], args[j-1] = args[j-1], args[j]
		}
	}
}

// canonLess is the strict order behind sortConfigArgs. The rendering
// tie-break only runs on 64-bit hash collisions, so the common path is one
// memoized-hash compare.
func canonLess(a, b *Term) bool {
	ha, hb := a.Hash(), b.Hash()
	if ha != hb {
		return ha < hb
	}
	if a == b {
		return false
	}
	return a.String() < b.String()
}
