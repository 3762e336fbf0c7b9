package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strings"
	"sync"
	"time"

	"privanalyzer/internal/api"
	"privanalyzer/internal/attacks"
	"privanalyzer/internal/autopriv"
	"privanalyzer/internal/chronopriv"
	"privanalyzer/internal/core"
	"privanalyzer/internal/interp"
	"privanalyzer/internal/programs"
	"privanalyzer/internal/rosa"
	"privanalyzer/internal/telemetry"
)

// span is one timed region recorded by the benchmark around a call into a
// layer's public functions. Spans of one operation share ReqID.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root
	Name   string `json:"name"`
	ReqID  string `json:"request_id"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs share the traced code path.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(name, reqID string, parent int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Name: name, ReqID: reqID, Start: now})
	return len(t.spans) - 1
}

func (t *tracer) finish(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// reqID names operation k of a served run; "" when untraced, so untraced
// requests carry no X-Request-ID and the server assigns one.
func (t *tracer) reqID(kind string, k int) string {
	if t == nil {
		return ""
	}
	return fmt.Sprintf("perfbench-%s-%d", kind, k)
}

func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write saves the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Span names of the in-process pass and the layer each belongs to. The
// per-program operation root is not a layer: time under it but outside
// every layer span is unaccounted, and the layer-sum check bounds it.
const (
	spanOp         = "evaluate"
	spanPrograms   = "programs.ByName"
	spanCore       = "core.analyze"
	spanAutoPriv   = "autopriv.Analyze"
	spanChronoPriv = "chronopriv.run"
	spanROSA       = "rosa.query"
	spanAPI        = "api.encode"
)

var layerOf = map[string]string{
	spanPrograms:   "programs",
	spanCore:       "core",
	spanAutoPriv:   "autopriv",
	spanChronoPriv: "chronopriv",
	spanROSA:       "rosa",
	spanAPI:        "api",
}

// layers in report order.
var layers = []string{"programs", "autopriv", "chronopriv", "rosa", "core", "api"}

// layerReport aggregates one pass's spans per layer. A span's self time is
// its duration minus its children's.
type layerReport struct {
	Wall  time.Duration
	Self  map[string]time.Duration
	Total map[string]time.Duration
	Count map[string]int
	// ByReq and SelfByReq hold each layer's total and self time per
	// request ID (program).
	ByReq, SelfByReq map[string]map[string]time.Duration
}

func summarize(spans []span, wall time.Duration) layerReport {
	r := layerReport{
		Wall:      wall,
		Self:      make(map[string]time.Duration),
		Total:     make(map[string]time.Duration),
		Count:     make(map[string]int),
		ByReq:     make(map[string]map[string]time.Duration),
		SelfByReq: make(map[string]map[string]time.Duration),
	}
	childSum := make(map[int]time.Duration)
	for _, s := range spans {
		if s.Parent >= 0 {
			childSum[s.Parent] += s.dur()
		}
	}
	for _, s := range spans {
		l, ok := layerOf[s.Name]
		if !ok {
			continue
		}
		self := s.dur() - childSum[s.ID]
		r.Self[l] += self
		r.Total[l] += s.dur()
		r.Count[l]++
		if r.ByReq[l] == nil {
			r.ByReq[l] = make(map[string]time.Duration)
			r.SelfByReq[l] = make(map[string]time.Duration)
		}
		r.ByReq[l][s.ReqID] += s.dur()
		r.SelfByReq[l][s.ReqID] += self
	}
	return r
}

// selfSum is the sum of every layer's self time.
func (r layerReport) selfSum() time.Duration {
	var sum time.Duration
	for _, l := range layers {
		sum += r.Self[l]
	}
	return sum
}

// dominant names the layer with the largest self time and its share of
// the pass wall time.
func (r layerReport) dominant() (string, float64) {
	best := ""
	for _, l := range layers {
		if best == "" || r.Self[l] > r.Self[best] {
			best = l
		}
	}
	return best, ratio(float64(r.Self[best]), float64(r.Wall))
}

// checkLayerSum verifies the trace covers the pass: every layer has the
// expected number of spans, and the layers' self times add up to the pass
// wall time within tol (a share of it). A dropped span fails the first
// test, and a dropped span directly under the pass root also the second.
func checkLayerSum(r layerReport, want map[string]int, tol float64) error {
	for _, l := range layers {
		if r.Count[l] != want[l] {
			return fmt.Errorf("layer-sum check: layer %s has %d spans, want %d", l, r.Count[l], want[l])
		}
	}
	sum := r.selfSum()
	if gap := ratio(float64(r.Wall-sum), float64(r.Wall)); gap > tol || gap < -tol {
		dom, share := r.dominant()
		return fmt.Errorf("layer-sum check: layer self times sum to %v of %v pass wall (%.2f%% unaccounted, limit %.0f%%); dominant layer %s at %.1f%%",
			sum.Round(time.Microsecond), r.Wall.Round(time.Microsecond), 100*gap, 100*tol, dom, 100*share)
	}
	return nil
}

// crossLayers are the layers the cross-check compares with core's spans.
var crossLayers = []string{"autopriv", "chronopriv", "rosa", "core"}

// analysisShares returns where one program's analysis time went, as shares
// of it: from the benchmark's per-layer totals (ours) or from the spans
// core.AnalyzeContext emits (core). Core counts by self time: its analyze
// span minus its autopriv, chronopriv and rosa.query children; the
// benchmark's core span also holds the API layer, which core's does not.
func analysisShares(tot map[string]time.Duration, core bool) map[string]float64 {
	if core {
		an := float64(tot["analyze"])
		self := tot["analyze"] - tot["autopriv"] - tot["chronopriv"] - tot["rosa.query"]
		return map[string]float64{
			"autopriv": ratio(float64(tot["autopriv"]), an), "chronopriv": ratio(float64(tot["chronopriv"]), an),
			"rosa": ratio(float64(tot["rosa.query"]), an), "core": ratio(float64(self), an),
		}
	}
	an := float64(tot["core"] - tot["api"])
	return map[string]float64{
		"autopriv": ratio(float64(tot["autopriv"]), an), "chronopriv": ratio(float64(tot["chronopriv"]), an),
		"rosa": ratio(float64(tot["rosa"]), an), "core": ratio(float64(tot["self.core"]), an),
	}
}

// crossCheck compares the benchmark's attribution of analysis time to
// layers with the spans core.AnalyzeContext emits for the same programs in
// the same rounds. ours and theirs hold, per round, per program, the
// benchmark's layer totals and core's span totals. Per program, each
// layer's share of the analysis is the median over rounds on each side;
// the shares' differences, weighted by each program's analysis time, must
// stay within tol of the whole analysis time. Shares, unlike absolute
// times, hold still when the machine slows down between two executions.
// It returns each layer's difference.
func crossCheck(ours, theirs []map[string]map[string]time.Duration, tol float64) (map[string]float64, error) {
	diff := make(map[string]float64)
	var total float64
	for prog := range ours[0] {
		var weight []float64
		s, c := make(map[string][]float64), make(map[string][]float64)
		for r := range ours {
			weight = append(weight, float64(ours[r][prog]["core"]-ours[r][prog]["api"]))
			for l, v := range analysisShares(ours[r][prog], false) {
				s[l] = append(s[l], v)
			}
			for l, v := range analysisShares(theirs[r][prog], true) {
				c[l] = append(c[l], v)
			}
		}
		w := median(weight)
		total += w
		for _, l := range crossLayers {
			diff[l] += (median(s[l]) - median(c[l])) * w
		}
	}
	for _, l := range crossLayers {
		diff[l] = ratio(diff[l], total)
	}
	for _, l := range crossLayers {
		if d := diff[l]; d > tol || d < -tol {
			return diff, fmt.Errorf("cross-check: layer %s takes %.1f%% more of the analysis here than in core's own spans (limit %.0f%%)",
				l, 100*d, 100*tol)
		}
	}
	return diff, nil
}

// heapAllocs reads the cumulative heap allocation counter without stopping
// the world.
func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

// passResult is one in-process evaluation of the seven programs.
type passResult struct {
	opWall map[string]time.Duration // per program, ByName through encode
	resps  map[string]*api.AnalyzeResponse
	cells  int
	// Warm re-run of every cell on its program's checker, when asked for.
	warm                 time.Duration
	warmHits, warmMisses int64

	removals, instructions, states                  int64
	hits, misses, dedup, attempts, compiled, fallbk int64
	chronoAlloc, rosaAlloc                          uint64
	responseBytes                                   int64
}

func newPass() *passResult {
	return &passResult{
		opWall: make(map[string]time.Duration),
		resps:  make(map[string]*api.AnalyzeResponse),
	}
}

// wall is the pass's wall time: the sum of its per-program operations.
func (pr *passResult) wall() time.Duration {
	var w time.Duration
	for _, d := range pr.opWall {
		w += d
	}
	return w
}

// searchOptions is the CLI's default search configuration.
func searchOptions() (core.Options, error) {
	search, err := api.SearchParams{}.Options()
	if err != nil {
		return core.Options{}, err
	}
	if search.MaxStates <= 0 {
		search.MaxStates = core.DefaultMaxStates
	}
	return core.Options{Search: search}, nil
}

// evaluate runs one program through every layer in-process, calling each
// layer's public functions in the order core.AnalyzeContext does (one fresh
// checker per program, queries in sequence, as the CLI), with a span around
// each call under one operation root span. reqID is shared by the
// operation's spans. With a nil tracer it records nothing and is the
// untraced baseline for the tracing overhead. With warm set, every cell is
// then run again on the same checker, outside the operation.
//
// Nothing of the program outlives the call but its response, so a later
// evaluation's garbage collector marks no more live heap than the CLI's.
//
// This is a copy of core.AnalyzeContext's orchestration (phase rows,
// credentials, vulnerable share, isolated errors), so it must track that
// function. The cross-check against core's own spans in runLayers is what
// detects a divergence: when core changes how it spends its time, the
// shares stop agreeing and the traced run fails.
func (pr *passResult) evaluate(ctx context.Context, t *tracer, name, reqID string, opts core.Options, warm bool) error {
	start := time.Now()
	root := t.begin(spanOp, reqID, -1)
	sp := t.begin(spanPrograms, reqID, root)
	p, err := programs.ByName(name)
	t.finish(sp)
	if err != nil {
		return err
	}

	cs := t.begin(spanCore, reqID, root)
	sp = t.begin(spanAutoPriv, reqID, cs)
	ares, err := autopriv.Analyze(p.Module, autopriv.Options{})
	t.finish(sp)
	if err != nil {
		return err
	}
	pr.removals += int64(len(ares.Removals))

	a0 := heapAllocs()
	sp = t.begin(spanChronoPriv, reqID, cs)
	k := p.NewKernel(ares.RequiredPermitted)
	rt := chronopriv.NewRuntime(k)
	res, err := interp.Run(ares.Module, k, interp.Options{MainArgs: p.MainArgs, OnSteps: rt.OnSteps})
	rep := rt.Report(p.Name)
	t.finish(sp)
	pr.chronoAlloc += heapAllocs() - a0
	if err != nil {
		return err
	}
	pr.instructions += res.Steps

	a := &core.Analysis{Program: p, AutoPriv: ares, Report: rep}
	inventory := p.Syscalls()
	checker := rosa.NewChecker()
	var cells []*rosa.Query
	var vulnerable [4]int64
	for _, spec := range p.Phases {
		ph := rep.Find(spec.Key())
		if ph == nil {
			return fmt.Errorf("%s: phase %s not observed", name, spec.Name)
		}
		row := core.PhaseResult{Spec: spec, Measured: *ph}
		creds := rosa.Creds{
			RUID: ph.RUID, EUID: ph.EUID, SUID: ph.SUID,
			RGID: ph.RGID, EGID: ph.EGID, SGID: ph.SGID,
		}
		for _, aid := range attacks.All {
			a0 := heapAllocs()
			sp := t.begin(spanROSA, reqID, cs)
			q := attacks.Build(aid, inventory, creds, ph.Privileges)
			q.Options = opts.Search
			r, err := checker.Run(ctx, q)
			t.finish(sp)
			cells = append(cells, q)
			pr.rosaAlloc += heapAllocs() - a0
			if err != nil {
				return err
			}
			i := aid - 1
			row.Verdicts[i], row.Witnesses[i] = r.Verdict, r.Witness
			row.States[i], row.Elapsed[i], row.Stats[i], row.Errs[i] = r.StatesExplored, r.Elapsed, r.Stats, r.Err
			if r.Err != nil {
				a.Errors = append(a.Errors, core.QueryError{Program: name, Phase: spec.Name, Attack: aid, Err: r.Err})
			}
			if r.Verdict == rosa.Vulnerable {
				vulnerable[i] += ph.Instructions
			}
			pr.states += int64(r.StatesExplored)
			pr.attempts += int64(r.Attempts)
			if st := r.Stats; st != nil {
				pr.hits += st.CacheHits
				pr.misses += st.CacheMisses
				pr.dedup += int64(st.DedupHits)
				pr.compiled += st.CompiledMatches
				pr.fallbk += st.FallbackMatches
			}
		}
		a.Phases = append(a.Phases, row)
	}
	if rep.Total > 0 {
		for i := range vulnerable {
			a.VulnerableShare[i] = 100 * float64(vulnerable[i]) / float64(rep.Total)
		}
	}

	sp = t.begin(spanAPI, reqID, cs)
	resp := api.FromAnalysis(a, false)
	var buf bytes.Buffer
	err = api.Encode(&buf, resp)
	t.finish(sp)
	t.finish(cs)
	t.finish(root)
	pr.opWall[name] = time.Since(start)
	if err != nil {
		return err
	}
	pr.responseBytes += int64(buf.Len())
	pr.resps[name] = resp
	pr.cells += len(cells)
	if !warm {
		return nil
	}
	for _, q := range cells {
		start := time.Now()
		r, err := checker.Run(ctx, q)
		pr.warm += time.Since(start)
		if err != nil {
			return err
		}
		if r.Stats != nil {
			pr.warmHits += r.Stats.CacheHits
			pr.warmMisses += r.Stats.CacheMisses
		}
	}
	return nil
}

// coreProgram runs core.AnalyzeContext on one program under a fresh
// telemetry registry and totals the spans core emits, by span name.
func coreProgram(ctx context.Context, name string, opts core.Options) (map[string]time.Duration, error) {
	p, err := programs.ByName(name)
	if err != nil {
		return nil, err
	}
	reg := telemetry.New()
	if _, err := core.AnalyzeContext(telemetry.NewContext(ctx, reg), p, opts); err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := reg.WriteJSONL(&buf); err != nil {
		return nil, err
	}
	totals := make(map[string]time.Duration)
	dec := json.NewDecoder(&buf)
	for dec.More() {
		var rec struct {
			Type  string `json:"type"`
			Name  string `json:"name"`
			DurNS int64  `json:"dur_ns"`
		}
		if err := dec.Decode(&rec); err != nil {
			return nil, fmt.Errorf("core spans: %w", err)
		}
		if rec.Type == "span" {
			totals[rec.Name] += time.Duration(rec.DurNS)
		}
	}
	return totals, nil
}

// layerTol is the margin of both layer checks: of the pass wall time for
// the layer sum, whose spans nest inside one operation, and of the analysis
// time for the cross-check, which compares where two executions' time goes.
// Both hold to a few tenths of a percent on a noisy shared machine; a layer
// the benchmark misses or times differently from core moves them by more.
const layerTol = 0.02

// layerRounds is how many times the traced run evaluates each program on
// each of its three paths. The cross-check takes per-program medians over
// the rounds and the tracing overhead per-program minima, which shed the
// other tenants' noise on a shared machine; the per-layer metrics come
// from the first traced round.
const layerRounds = 3

// roundID names a traced round's operation on one program.
func roundID(round int, name string) string { return fmt.Sprintf("r%d/%s", round, name) }

// roundSpans keeps the spans of one traced round.
func roundSpans(spans []span, round int) []span {
	prefix := fmt.Sprintf("r%d/", round)
	var out []span
	for _, s := range spans {
		if strings.HasPrefix(s.ReqID, prefix) {
			out = append(out, s)
		}
	}
	return out
}

// minTotals sums, over programs, each quantity's minimum over rounds.
func minTotals(rounds []map[string]map[string]time.Duration) map[string]time.Duration {
	out := make(map[string]time.Duration)
	for prog := range rounds[0] {
		for key := range rounds[0][prog] {
			best := rounds[0][prog][key]
			for _, r := range rounds[1:] {
				best = min(best, r[prog][key])
			}
			out[key] += best
		}
	}
	return out
}

// runLayers is the in-process part of a --trace 1 run. Each round
// evaluates every program three ways back to back, in rotating order —
// core.AnalyzeContext under a telemetry registry, the untraced layer path,
// and the traced layer path, the first round's followed by a warm re-run of
// its cells. It checks every answer, runs the layer-sum check on every
// traced round and the cross-check, and returns the per-layer metrics.
func runLayers(ctx context.Context, env *benchEnv, o *outcome) (map[string]float64, error) {
	names := env.paper.names
	opts, err := searchOptions()
	if err != nil {
		return nil, err
	}
	// Per round: program → quantity → duration, for the three paths.
	var coreR, plainR, tracedR []map[string]map[string]time.Duration
	var first *passResult
	for r := 0; r < layerRounds; r++ {
		plain, traced := newPass(), newPass()
		cr := make(map[string]map[string]time.Duration)
		for _, name := range names {
			paths := []func() error{
				func() (err error) { cr[name], err = coreProgram(ctx, name, opts); return err },
				func() error { return plain.evaluate(ctx, nil, name, "", opts, false) },
				func() error { return traced.evaluate(ctx, env.trace, name, roundID(r, name), opts, r == 0) },
			}
			// Rotate which path runs first each round: back-to-back runs
			// of the same work are not equally fast on a shared machine.
			// Each path starts from a collected heap, as a fresh CLI
			// process does, so no path pays for another's garbage.
			for i := range paths {
				runtime.GC()
				if err := paths[(i+r)%len(paths)](); err != nil {
					return nil, err
				}
			}
		}
		for _, pr := range []*passResult{plain, traced} {
			o.attempted++
			var bad []string
			for _, resp := range pr.resps {
				bad = append(bad, env.paper.checkAnalyze(resp)...)
			}
			fp, err := env.paper.gridPrint(pr.resps)
			if err != nil {
				bad = append(bad, err.Error())
			}
			o.fail.add(false, bad...)
			if o.print == nil {
				o.print = &fp
			} else if *o.print != fp {
				o.fail.add(true, fmt.Sprintf("%v: in-process passes gave %+v and %+v", errDrift, fp, *o.print))
			}
		}

		spans := roundSpans(env.trace.snapshot(), r)
		rep := summarize(spans, traced.wall())
		want := map[string]int{"programs": len(names), "autopriv": len(names), "chronopriv": len(names),
			"core": len(names), "api": len(names), "rosa": traced.cells}
		if err := checkLayerSum(rep, want, layerTol); err != nil {
			return nil, fmt.Errorf("round %d: %w", r, err)
		}
		pl, tr := make(map[string]map[string]time.Duration), make(map[string]map[string]time.Duration)
		for _, name := range names {
			id := roundID(r, name)
			pl[name] = map[string]time.Duration{"wall": plain.opWall[name]}
			tr[name] = map[string]time.Duration{"wall": traced.opWall[name]}
			for _, l := range layers {
				tr[name][l] = rep.ByReq[l][id]
				tr[name]["self."+l] = rep.SelfByReq[l][id]
			}
		}
		coreR, plainR, tracedR = append(coreR, cr), append(plainR, pl), append(tracedR, tr)
		if first == nil {
			first = traced
		}
	}

	diff, err := crossCheck(tracedR, coreR, layerTol)
	env.logf("cross-check, share of the analysis here minus in core's own spans (medians over %d rounds): autopriv %+.2f%%, chronopriv %+.2f%%, rosa %+.2f%%, core self %+.2f%%",
		layerRounds, 100*diff["autopriv"], 100*diff["chronopriv"], 100*diff["rosa"], 100*diff["core"])
	if err != nil {
		return nil, err
	}
	tracedWall, plainWall := minTotals(tracedR)["wall"], minTotals(plainR)["wall"]

	rep := summarize(roundSpans(env.trace.snapshot(), 0), first.wall())
	dom, share := rep.dominant()
	env.logf("layers (traced round 0): dominant layer %s (%.1f%% of %v pass wall); self times sum to %.2f%% of wall",
		dom, 100*share, rep.Wall.Round(time.Millisecond), 100*ratio(float64(rep.selfSum()), float64(rep.Wall)))
	for _, l := range layers {
		env.logf("  %-10s self %9.2f ms  total %9.2f ms  spans %d", l, ms(rep.Self[l]), ms(rep.Total[l]), rep.Count[l])
	}
	overhead := 100 * ratio(float64(tracedWall-plainWall), float64(plainWall))
	env.logf("tracing overhead: traced %v, untraced %v (%+.2f%%, per-program minima over %d rounds)",
		tracedWall.Round(time.Millisecond), plainWall.Round(time.Millisecond), overhead, layerRounds)

	rosaCold := rep.Total["rosa"]
	return map[string]float64{
		"programs.build_ms":         ms(rep.Total["programs"]),
		"autopriv.analyze_ms":       ms(rep.Total["autopriv"]),
		"autopriv.removals":         float64(first.removals),
		"chronopriv.run_ms":         ms(rep.Total["chronopriv"]),
		"chronopriv.run_ms.thttpd":  ms(rep.ByReq["chronopriv"][roundID(0, "thttpd")]),
		"chronopriv.run_ms.sshd":    ms(rep.ByReq["chronopriv"][roundID(0, "sshd")]),
		"chronopriv.ns_per_instr":   ratio(float64(rep.Total["chronopriv"].Nanoseconds()), float64(first.instructions)),
		"chronopriv.alloc_mb":       float64(first.chronoAlloc) / (1 << 20),
		"chronopriv.instructions":   float64(first.instructions),
		"rosa.query_ms.cold":        ms(rosaCold),
		"rosa.query_ms.warm":        ms(first.warm),
		"rosa.query_ms.suRef":       ms(rep.ByReq["rosa"][roundID(0, "suRef")]),
		"rosa.states":               float64(first.states),
		"rosa.states_per_s":         ratio(float64(first.states), rosaCold.Seconds()),
		"rosa.cache_hit_ratio.cold": ratio(float64(first.hits), float64(first.hits+first.misses)),
		"rosa.cache_hit_ratio.warm": ratio(float64(first.warmHits), float64(first.warmHits+first.warmMisses)),
		"rosa.dedup_ratio":          ratio(float64(first.dedup), float64(first.dedup+first.states)),
		"rosa.escalation_attempts":  float64(first.attempts),
		"rosa.compiled_share":       ratio(float64(first.compiled), float64(first.compiled+first.fallbk)),
		"rosa.alloc_mb":             float64(first.rosaAlloc) / (1 << 20),
		"core.analyze_ms":           ms(rep.Total["core"]),
		"core.self_ms":              ms(rep.Self["core"]),
		"api.encode_ms":             ms(rep.Total["api"]),
		"api.response_bytes":        float64(first.responseBytes),
		"trace.overhead_pct":        overhead,
		"trace.layer_sum_pct":       100 * ratio(float64(rep.selfSum()), float64(rep.Wall)),
		"trace.dominant_share_pct":  100 * share,
	}, nil
}
