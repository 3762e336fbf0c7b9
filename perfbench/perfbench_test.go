package main

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"privanalyzer/internal/api"
	"privanalyzer/internal/programs"
)

func testPaper(t *testing.T) *paper {
	t.Helper()
	p, err := loadPaper()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestStreamsAreSeeded(t *testing.T) {
	p := testPaper(t)
	a, b := genQueries(7, p, 1000), genQueries(7, p, 1000)
	if !reflect.DeepEqual(a.stream, b.stream) || len(a.pool) != len(b.pool) {
		t.Fatal("same seed gave different query streams")
	}
	for i := range a.pool {
		if string(a.pool[i].Body) != string(b.pool[i].Body) || a.pool[i].Cell != b.pool[i].Cell {
			t.Fatalf("pool item %d differs: %s vs %s", i, a.pool[i].Body, b.pool[i].Body)
		}
	}
	if c := genQueries(8, p, 1000); reflect.DeepEqual(a.stream, c.stream) {
		t.Fatal("different seeds gave the same query stream")
	}
	if !reflect.DeepEqual(genAnalyze(7, p.names, 500), genAnalyze(7, p.names, 500)) {
		t.Fatal("same seed gave different analyze streams")
	}
}

func TestQueryPoolShape(t *testing.T) {
	p := testPaper(t)
	const n = 60000
	g := genQueries(1, p, n)
	seen := make(map[string]bool)
	var cells int
	for _, it := range g.pool {
		if seen[string(it.Body)] {
			t.Fatalf("duplicate pool item %s", it.Body)
		}
		seen[string(it.Body)] = true
		if it.Cell != "" {
			cells++
			if _, ok := p.cells[it.Cell]; !ok {
				t.Fatalf("unknown cell %s", it.Cell)
			}
		}
	}
	if cells != len(p.cells) {
		t.Fatalf("%d exact cells in the pool, want all %d", cells, len(p.cells))
	}
	st := g.stats(n)
	// A third of the draws are exact cells; a few perturbations land on
	// another cell exactly and count too.
	if share := st["grid_cell_share"]; share < 0.32 || share > 0.40 {
		t.Fatalf("grid-cell share %.3f, want a little over 1/3", share)
	}
	if st["repeat_share"] < 0.9 || st["requests"] != n {
		t.Fatalf("stats %v", st)
	}
}

// paperResponse builds the analysis the paper's cells describe.
func paperResponse(p *paper, name string) *api.AnalyzeResponse {
	r := &api.AnalyzeResponse{Program: name}
	for _, s := range p.specs[name] {
		ph := api.PhaseResult{Name: s.Name, Instructions: s.Instructions}
		for i, want := range s.Vuln {
			v := "safe"
			if want == programs.Yes {
				v = "vulnerable"
			}
			ph.Queries = append(ph.Queries, api.QueryResult{Attack: i + 1, Verdict: v, States: 10 + i})
		}
		r.TotalInstructions += s.Instructions
		r.Phases = append(r.Phases, ph)
	}
	return r
}

func TestAnswerCheckerRejectsOneWrongCell(t *testing.T) {
	p := testPaper(t)
	for _, name := range p.names {
		if bad := p.checkAnalyze(paperResponse(p, name)); len(bad) > 0 {
			t.Fatalf("%s: paper's own cells rejected: %v", name, bad)
		}
	}

	flipped := paperResponse(p, "su")
	q := &flipped.Phases[0].Queries[1]
	if q.Verdict == "safe" {
		q.Verdict = "vulnerable"
	} else {
		q.Verdict = "safe"
	}
	if bad := p.checkAnalyze(flipped); len(bad) != 1 {
		t.Fatalf("one flipped verdict: got %v", bad)
	}

	off := paperResponse(p, "sshd")
	off.Phases[2].Instructions++
	if bad := p.checkAnalyze(off); len(bad) != 1 {
		t.Fatalf("one count off by one: got %v", bad)
	}

	missing := paperResponse(p, "ping")
	missing.Phases = missing.Phases[1:]
	if bad := p.checkAnalyze(missing); len(bad) == 0 {
		t.Fatal("a missing phase passed")
	}
}

func TestTimeoutCellAcceptsSafeOrUnknown(t *testing.T) {
	for _, got := range []string{"safe", "unknown"} {
		if !verdictOK(programs.Timeout, got) {
			t.Fatalf("⏱ cell rejected %s", got)
		}
	}
	if verdictOK(programs.Timeout, "vulnerable") || verdictOK(programs.No, "unknown") || verdictOK(programs.Yes, "safe") {
		t.Fatal("a wrong verdict passed")
	}
}

func TestQueryCheckerRejectsFlipAndStateDrift(t *testing.T) {
	p := testPaper(t)
	it := &queryItem{Body: []byte("{}"), Want: "vulnerable", States: 42}
	ok := &api.QueryResponse{Result: api.QueryResult{Verdict: "vulnerable", States: 42}}
	if msg := p.checkQuery(it, ok); msg != "" {
		t.Fatal(msg)
	}
	for _, r := range []api.QueryResult{{Verdict: "safe", States: 42}, {Verdict: "vulnerable", States: 43}} {
		if p.checkQuery(it, &api.QueryResponse{Result: r}) == "" {
			t.Fatalf("%+v passed against reference vulnerable/42", r)
		}
	}
	var cell string
	for k, v := range p.cells {
		if v == programs.Yes {
			cell = k
			break
		}
	}
	it = &queryItem{Cell: cell}
	if p.checkQuery(it, &api.QueryResponse{Result: api.QueryResult{Verdict: "safe"}}) == "" {
		t.Fatalf("cell %s (✓) accepted safe", cell)
	}
}

func TestFingerprintPinsDrift(t *testing.T) {
	p := testPaper(t)
	resps := make(map[string]*api.AnalyzeResponse)
	for _, name := range p.names {
		resps[name] = paperResponse(p, name)
	}
	fp, err := p.gridPrint(resps)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := pinPrint(dir, "build-a", fp); err != nil {
		t.Fatal(err)
	}
	if err := pinPrint(dir, "build-a", fp); err != nil {
		t.Fatalf("same fingerprint: %v", err)
	}
	resps["su"].Phases[0].Queries[0].States++
	drifted, _ := p.gridPrint(resps)
	if err := pinPrint(dir, "build-a", drifted); !errors.Is(err, errDrift) {
		t.Fatalf("one state more: got %v, want drift", err)
	}
	// A different build may move the counts on purpose: it starts a pin of
	// its own, which then holds it to its own counts.
	if err := pinPrint(dir, "build-b", drifted); err != nil {
		t.Fatalf("another build's first run: %v, want a new pin", err)
	}
	if err := pinPrint(dir, "build-b", fp); !errors.Is(err, errDrift) {
		t.Fatalf("build-b back to build-a's counts: got %v, want drift", err)
	}
	if err := pinPrint(dir, "build-a", fp); err != nil {
		t.Fatalf("build-a after build-b: %v", err)
	}
	delete(resps, "ping")
	if _, err := p.gridPrint(resps); err == nil {
		t.Fatal("a grid without ping fingerprinted")
	}
}

func TestBuildKeyFollowsTheCode(t *testing.T) {
	dir := t.TempDir()
	a, b := filepath.Join(dir, "a"), filepath.Join(dir, "b")
	for _, f := range []string{a, b} {
		if err := os.WriteFile(f, []byte("binary "+f), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	k1, err := buildKey(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if k2, _ := buildKey(a, b); k2 != k1 {
		t.Fatalf("same files gave keys %s and %s", k1, k2)
	}
	if err := os.WriteFile(b, []byte("rebuilt"), 0o644); err != nil {
		t.Fatal(err)
	}
	if k3, _ := buildKey(a, b); k3 == k1 {
		t.Fatal("a rebuilt binary kept its build key")
	}
	if _, err := buildKey(filepath.Join(dir, "missing")); err == nil {
		t.Fatal("a missing binary gave a build key")
	}
}

// syntheticTrace is two programs' operations, laid out as evaluate records
// them: each op root holds programs.ByName and core.analyze, which holds
// the other layers.
func syntheticTrace() ([]span, time.Duration, map[string]int) {
	var spans []span
	add := func(name, req string, parent int, start, end int64) int {
		spans = append(spans, span{ID: len(spans), Parent: parent, Name: name, ReqID: req, Start: start, End: end})
		return len(spans) - 1
	}
	var wall time.Duration
	t := int64(0)
	for _, req := range []string{"r0/a", "r0/b"} {
		root := add(spanOp, req, -1, t, t+1000)
		add(spanPrograms, req, root, t, t+50)
		core := add(spanCore, req, root, t+50, t+1000)
		add(spanAutoPriv, req, core, t+50, t+60)
		add(spanChronoPriv, req, core, t+60, t+760)
		add(spanROSA, req, core, t+760, t+860)
		add(spanROSA, req, core, t+860, t+980)
		add(spanAPI, req, core, t+985, t+1000)
		wall += 1000
		t += 1000
	}
	want := map[string]int{"programs": 2, "autopriv": 2, "chronopriv": 2, "rosa": 4, "core": 2, "api": 2}
	return spans, wall, want
}

func TestLayerSumCheck(t *testing.T) {
	spans, wall, want := syntheticTrace()
	rep := summarize(spans, wall)
	if err := checkLayerSum(rep, want, layerTol); err != nil {
		t.Fatal(err)
	}
	if dom, share := rep.dominant(); dom != "chronopriv" || share != 0.7 {
		t.Fatalf("dominant %s %.2f, want chronopriv 0.70", dom, share)
	}
	if got := rep.Self["core"]; got != 10 {
		t.Fatalf("core self %v, want 10ns (5 between rosa and api, per op)", got)
	}
	// Dropping any one layer span must fail the check.
	for i, s := range spans {
		if s.Name == spanOp {
			continue
		}
		dropped := append(append([]span(nil), spans[:i]...), spans[i+1:]...)
		if err := checkLayerSum(summarize(dropped, wall), want, layerTol); err == nil {
			t.Fatalf("dropping span %d (%s) passed the layer-sum check", i, s.Name)
		}
	}
	// Time outside every layer span fails the sum even with all spans kept.
	if err := checkLayerSum(summarize(spans, wall+wall/10), want, layerTol); err == nil {
		t.Fatal("10% unaccounted time passed the layer-sum check")
	}
}

func TestCrossCheck(t *testing.T) {
	spans, wall, _ := syntheticTrace()
	rep := summarize(spans, wall)
	ours := map[string]map[string]time.Duration{}
	for _, req := range []string{"r0/a", "r0/b"} {
		ours[req] = map[string]time.Duration{"self.core": rep.SelfByReq["core"][req]}
		for _, l := range layers {
			ours[req][l] = rep.ByReq[l][req]
		}
	}
	// Core's spans time each program 10% slower throughout: same shares.
	core := func(chrono time.Duration) map[string]map[string]time.Duration {
		c := map[string]time.Duration{"analyze": 1023, "autopriv": 11, "chronopriv": chrono, "rosa.query": 242}
		return map[string]map[string]time.Duration{"r0/a": c, "r0/b": c}
	}
	if diff, err := crossCheck([]map[string]map[string]time.Duration{ours}, []map[string]map[string]time.Duration{core(770)}, layerTol); err != nil {
		t.Fatal(err, diff)
	}
	// Core's spans put 100 of 1023 less into ChronoPriv (and so more into
	// its own self time): a 10% disagreement.
	if _, err := crossCheck([]map[string]map[string]time.Duration{ours}, []map[string]map[string]time.Duration{core(670)}, layerTol); err == nil {
		t.Fatal("a 10% ChronoPriv disagreement passed the cross-check")
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	if quantile(xs, 0.5) != 3 || quantile(xs, 0) != 1 || quantile(xs, 1) != 5 || quantile(xs, 0.25) != 2 {
		t.Fatal("quantile")
	}
	if xs[0] != 4 {
		t.Fatal("quantile sorted its input")
	}
	if beyond(xs, 0.5) != 2 {
		t.Fatal("beyond")
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and perfbench in step: it lists
// every bounded workload, and every metric it lists is reported with its
// unit.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bench); err != nil {
		t.Fatal(err)
	}
	var names, want []string
	for _, w := range bench.Workloads {
		names = append(names, w.Name)
	}
	for _, w := range workloads {
		if w != "serve-analyze" {
			want = append(want, w)
		}
	}
	if !reflect.DeepEqual(names, want) {
		t.Fatalf("BENCHMARK.json workloads %v, want %v", names, want)
	}
	for _, m := range append(bench.EndToEnd, bench.PerLayer...) {
		if units[m.Name] != m.Unit {
			t.Errorf("%s: BENCHMARK.json unit %q, perfbench %q", m.Name, m.Unit, units[m.Name])
		}
	}
	if len(bench.EndToEnd)+len(bench.PerLayer) != len(units) {
		t.Errorf("BENCHMARK.json lists %d metrics, perfbench reports %d", len(bench.EndToEnd)+len(bench.PerLayer), len(units))
	}
}

// TestClosedLoopConcurrent drives the load loop's shared state — the
// stream index, the tracer and the failure log — from both clients at
// once; run it under -race.
func TestClosedLoopConcurrent(t *testing.T) {
	tr := newTracer()
	var fail failures
	start := time.Now()
	samples := closedLoop(start, 50*time.Millisecond, func(k int) sample {
		sp := tr.begin("client.test", tr.reqID("test", k), -1)
		if k%3 == 0 {
			fail.add(false, "odd request")
		}
		fail.add(false, "")
		tr.finish(sp)
		return sample{lat: time.Microsecond, ok: k%3 != 0}
	})
	if len(samples) == 0 || len(tr.snapshot()) != len(samples) {
		t.Fatalf("%d samples, %d spans", len(samples), len(tr.snapshot()))
	}
	ids := make(map[string]bool)
	for _, s := range tr.snapshot() {
		if ids[s.ReqID] || s.End < s.Start {
			t.Fatalf("span %+v repeated or unfinished", s)
		}
		ids[s.ReqID] = true
	}
	want := (len(samples) + 2) / 3
	if fail.n != want {
		t.Fatalf("%d failures recorded, want %d", fail.n, want)
	}
	rates, costs := windowRates(samples, []cpuMark{{0, 0}, {time.Hour, time.Second}})
	if len(rates) != 1 || rates[0] <= 0 || costs[0] <= 0 {
		t.Fatalf("window rates %v %v", rates, costs)
	}
}
