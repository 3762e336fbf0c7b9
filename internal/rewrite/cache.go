package rewrite

// Cross-query transition caching. The four attack queries ROSA issues per
// program phase (and repeated phases with identical credentials and
// privileges) explore heavily overlapping regions of one transition graph.
// A TransitionCache memoizes the full successor set per state so the graph
// is expanded once per System; subsequent searches that reach the same
// state — in the same query or any later one — pay only goal matching.
//
// Keys are canonical interned pointers (Intern), so a lookup is one map
// probe with no structural comparison; the cache is therefore only
// consulted when interning is enabled. Cached successor slices are computed
// by the deterministic successor walk and must be treated as immutable by
// all readers — the search engine only iterates them — which is what keeps
// a cached search byte-identical to an uncached one.

import "sync"

// cacheShards is a power of two; the memoized term hash folds with a mask.
const cacheShards = 64

type cacheShard struct {
	mu sync.RWMutex
	m  map[*Term][]Step
}

// TransitionCache memoizes successor sets per interned state for one
// System. Attach it via System.Cache and share the System across queries
// (rosa.Checker does this per program). Safe for concurrent use; states
// reached by concurrent searches are computed at most a handful of times
// and stored idempotently (the successor walk is deterministic, so every
// computed value is identical).
type TransitionCache struct {
	shards [cacheShards]cacheShard
}

// NewTransitionCache returns an empty cache.
func NewTransitionCache() *TransitionCache {
	return &TransitionCache{}
}

func (c *TransitionCache) shard(t *Term) *cacheShard {
	return &c.shards[t.Hash()&(cacheShards-1)]
}

// get returns the cached successor set for an interned state.
func (c *TransitionCache) get(t *Term) ([]Step, bool) {
	s := c.shard(t)
	s.mu.RLock()
	steps, ok := s.m[t]
	s.mu.RUnlock()
	return steps, ok
}

// put stores a state's successor set. First store wins; a concurrent
// duplicate (same deterministic value) is dropped.
func (c *TransitionCache) put(t *Term, steps []Step) {
	s := c.shard(t)
	s.mu.Lock()
	if _, ok := s.m[t]; !ok {
		if s.m == nil {
			s.m = make(map[*Term][]Step)
		}
		s.m[t] = steps
	}
	s.mu.Unlock()
}
