package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"privanalyzer/internal/api"
	"privanalyzer/internal/caps"
	"privanalyzer/internal/rosa"
)

// The generators are pure functions of the seed and the paper's grid: the
// same seed gives the same request stream, byte for byte.

// genAnalyze draws n programs uniformly from the paper's seven, in
// shuffled rounds: every run of seven consecutive requests holds each
// program once. Each request is still a uniform draw, but the mix a run
// sends no longer varies with the seed — with independent draws, the share
// of the two heavy programs (thttpd, sshd) over a 20 s run's ~190 requests
// varies by about ±12%, and throughput with it.
func genAnalyze(seed int64, names []string, n int) []string {
	rng := rand.New(rand.NewSource(seed))
	out := make([]string, 0, n+len(names))
	for len(out) < n {
		for _, i := range rng.Perm(len(names)) {
			out = append(out, names[i])
		}
	}
	return out[:n]
}

// rosaCaps are the capabilities the ROSA rules consult; an extra capability
// is drawn from these, so a perturbation can change the search. A cell
// holding all of them gets one of the others.
var rosaCaps = []caps.Cap{
	caps.CapChown, caps.CapDacOverride, caps.CapDacReadSearch, caps.CapFowner,
	caps.CapKill, caps.CapSetgid, caps.CapSetuid, caps.CapNetBindService,
}

// lacking returns the capabilities of from that set does not hold.
func lacking(set caps.Set, from []caps.Cap) []caps.Cap {
	var out []caps.Cap
	for _, c := range from {
		if !set.Has(c) {
			out = append(out, c)
		}
	}
	return out
}

func allCaps() []caps.Cap {
	out := make([]caps.Cap, caps.NumCaps)
	for i := range out {
		out[i] = caps.Cap(i)
	}
	return out
}

// modelUIDs are user IDs the ROSA models know; a changed uid takes one of
// them.
var modelUIDs = []int{0, 2, 106, 998, 1000, 1001}

// queryItem is one distinct /v1/query request of the serve-query pool.
type queryItem struct {
	Req  api.QueryRequest
	Body []byte
	// Cell is the grid-cell key when the request is exactly one of the
	// paper's cells (checked against the paper's verdict), else "".
	Cell string
	// Want and States are the reference answer, computed once at set-up on
	// a fresh single-worker checker; used for perturbed requests.
	Want   string
	States int
}

// queryGen is the serve-query generator: a pool of distinct requests and a
// stream of pool indices.
type queryGen struct {
	pool   []queryItem
	stream []int
}

func triple(t [3]int) string { return fmt.Sprintf("%d,%d,%d", t[0], t[1], t[2]) }

// Stream weights, in sixths, of a cell's request variants: the exact cell
// 2, two one-extra-capability variants 1 each, a one-uid-changed variant 1,
// and a variant with both 1. So a request is the exact cell with
// probability 1/3, carries an extra capability with probability 1/2, and a
// changed uid with probability 1/3.
const (
	weightExact = 2
	variantsPer = 6
)

// genQueries builds the serve-query pool and stream. Each request picks
// attack 1–4 on one grid cell's syscall inventory, credentials and
// privileges; half get one extra capability, a third get one uid changed.
//
// The pool is stratified: every one of the 140 cells contributes its exact
// request and four seeded perturbations, and the stream draws a uniform
// cell, then a variant by its weight. Drawing a small pool of independent
// requests instead lets the seed decide how many expensive searches a run
// repeats: throughput then varied by ±40% between seeds.
func genQueries(seed int64, p *paper, n int) *queryGen {
	rng := rand.New(rand.NewSource(seed))
	g := &queryGen{}
	index := make(map[string]int)
	add := func(req api.QueryRequest, cell string) int {
		body, err := json.Marshal(req)
		if err != nil {
			panic(err) // a plain struct of strings and ints always marshals
		}
		if i, ok := index[string(body)]; ok {
			// A perturbation can land exactly on another cell; the
			// paper's verdict then checks it.
			if cell != "" {
				g.pool[i].Cell = cell
			}
			return i
		}
		index[string(body)] = len(g.pool)
		g.pool = append(g.pool, queryItem{Req: req, Body: body, Cell: cell})
		return len(g.pool) - 1
	}
	var variants [][variantsPer]int // per cell: pool index by weight slot
	for _, name := range p.names {
		for _, s := range p.specs[name] {
			for a := 1; a <= 4; a++ {
				base := api.QueryRequest{
					Attack:   a,
					Privs:    s.Privs.String(),
					UID:      triple(s.UID),
					GID:      triple(s.GID),
					Syscalls: p.inv[name],
				}
				missing := lacking(s.Privs, rosaCaps)
				if len(missing) == 0 {
					missing = lacking(s.Privs, allCaps())
				}
				rng.Shuffle(len(missing), func(i, j int) { missing[i], missing[j] = missing[j], missing[i] })
				withCap := func(k int) api.QueryRequest {
					r := base
					if len(missing) > 0 {
						r.Privs = s.Privs.Add(missing[k%len(missing)]).String()
					}
					return r
				}
				withUID := func(r api.QueryRequest) api.QueryRequest {
					uid := s.UID
					i := rng.Intn(3)
					for uid[i] == s.UID[i] {
						uid[i] = modelUIDs[rng.Intn(len(modelUIDs))]
					}
					r.UID = triple(uid)
					return r
				}
				var v [variantsPer]int
				exact := add(base, cellKey(name, s.Name, a))
				for k := 0; k < weightExact; k++ {
					v[k] = exact
				}
				v[2] = add(withCap(0), "")
				v[3] = add(withCap(1), "")
				v[4] = add(withUID(base), "")
				v[5] = add(withUID(withCap(2)), "")
				variants = append(variants, v)
			}
		}
	}
	g.stream = make([]int, n)
	for i := range g.stream {
		g.stream[i] = variants[rng.Intn(len(variants))][rng.Intn(variantsPer)]
	}
	return g
}

// reference computes every pool item's answer on a fresh single-worker
// checker, the configuration with no shared cache and no parallelism, so a
// hot-cache or parallel divergence in the server shows as a mismatch.
func (g *queryGen) reference(ctx context.Context) error {
	for i := range g.pool {
		it := &g.pool[i]
		q, _, err := it.Req.Build()
		if err != nil {
			return fmt.Errorf("reference %s: %w", it.Body, err)
		}
		q.Options.Workers = 1
		res, err := rosa.NewChecker().Run(ctx, q)
		if err != nil {
			return fmt.Errorf("reference %s: %w", it.Body, err)
		}
		if res.Err != nil {
			return fmt.Errorf("reference %s: %w", it.Body, res.Err)
		}
		it.Want, it.States = verdictWord(res.Verdict), res.StatesExplored
	}
	return nil
}

func verdictWord(v rosa.Verdict) string {
	switch v {
	case rosa.Safe:
		return "safe"
	case rosa.Vulnerable:
		return "vulnerable"
	default:
		return "unknown"
	}
}

// checkQuery checks one /v1/query answer: a grid cell against the paper, a
// perturbed request against its reference verdict and state count.
func (p *paper) checkQuery(it *queryItem, resp *api.QueryResponse) string {
	got := resp.Result
	if it.Cell != "" {
		if !verdictOK(p.cells[it.Cell], got.Verdict) {
			return fmt.Sprintf("cell %s: verdict %s, paper says %s", it.Cell, got.Verdict, p.cells[it.Cell])
		}
		return ""
	}
	if got.Verdict != it.Want || got.States != it.States {
		return fmt.Sprintf("query %s: %s/%d states, reference %s/%d", it.Body, got.Verdict, got.States, it.Want, it.States)
	}
	return ""
}

// queryStats are the serve-query generator shares over the first n
// requests of the stream (the ones a run sent).
func (g *queryGen) stats(n int) map[string]float64 {
	if n > len(g.stream) {
		n = len(g.stream)
	}
	seen := make(map[int]bool)
	var repeat, cell, over1k int
	for _, i := range g.stream[:n] {
		if seen[i] {
			repeat++
		}
		seen[i] = true
		if g.pool[i].Cell != "" {
			cell++
		}
		if g.pool[i].States > 1000 {
			over1k++
		}
	}
	d := float64(n)
	return map[string]float64{
		"requests":             d,
		"pool_size":            float64(len(g.pool)),
		"repeat_share":         ratio(float64(repeat), d),
		"grid_cell_share":      ratio(float64(cell), d),
		"over_1k_states_share": ratio(float64(over1k), d),
	}
}

// mixStats is the serve-analyze program mix over the first n requests.
func mixStats(stream []string, n int) map[string]float64 {
	if n > len(stream) {
		n = len(stream)
	}
	out := map[string]float64{"requests": float64(n)}
	for _, name := range stream[:n] {
		out["share."+name]++
	}
	for k := range out {
		if strings.HasPrefix(k, "share.") {
			out[k] /= float64(n)
		}
	}
	return out
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
