package api

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"

	"privanalyzer/internal/core"
	"privanalyzer/internal/rewrite"
	"privanalyzer/internal/rosa"
)

func TestDurationJSON(t *testing.T) {
	// Marshals as the canonical Go string, accepts strings and raw
	// nanoseconds on the way in.
	b, err := json.Marshal(Duration(90 * time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != `"1m30s"` {
		t.Errorf("marshal = %s, want \"1m30s\"", b)
	}
	var d Duration
	if err := json.Unmarshal([]byte(`"250ms"`), &d); err != nil {
		t.Fatal(err)
	}
	if d.Std() != 250*time.Millisecond {
		t.Errorf("string form = %v, want 250ms", d.Std())
	}
	if err := json.Unmarshal([]byte(`1000000`), &d); err != nil {
		t.Fatal(err)
	}
	if d.Std() != time.Millisecond {
		t.Errorf("nanosecond form = %v, want 1ms", d.Std())
	}
	if err := json.Unmarshal([]byte(`"bogus"`), &d); err == nil {
		t.Error("bad duration string accepted")
	}
}

func TestSearchParamsOptions(t *testing.T) {
	p := SearchParams{
		Budget: 5000, Workers: 3,
		MemBudget: 1 << 20, Stats: true,
	}
	o, err := p.Options()
	if err != nil {
		t.Fatal(err)
	}
	if o.MaxStates != 5000 || o.Workers != 0 || !o.Profile {
		t.Errorf("Options() = %+v; want workers range-checked, then ignored, and mem_budget ignored", o)
	}
	if _, err := (SearchParams{Workers: rewrite.MaxWorkers + 1}).Options(); err == nil {
		t.Error("workers above MaxWorkers accepted")
	}
	if _, err := (SearchParams{Workers: rewrite.MaxWorkers}).Options(); err != nil {
		t.Errorf("workers at MaxWorkers rejected: %v", err)
	}
}

func TestSearchParamsOrDefaults(t *testing.T) {
	d := SearchParams{Budget: 100, Timeout: Duration(time.Second), Stats: true}
	// Zero request: every default applies.
	if got := (SearchParams{}).OrDefaults(d); got != d {
		t.Errorf("zero request = %+v, want defaults %+v", got, d)
	}
	// Explicit fields win.
	p := SearchParams{Budget: 7}
	got := p.OrDefaults(d)
	if got.Budget != 7 || got.Timeout != d.Timeout {
		t.Errorf("merge = %+v", got)
	}
	// deadline_ms merges like the other knobs: the server default fills a
	// zero, an explicit request value wins.
	d.DeadlineMS = 5000
	if got := (SearchParams{}).OrDefaults(d); got.DeadlineMS != 5000 {
		t.Errorf("zero deadline_ms = %d, want default 5000", got.DeadlineMS)
	}
	if got := (SearchParams{DeadlineMS: 250}).OrDefaults(d); got.DeadlineMS != 250 {
		t.Errorf("explicit deadline_ms = %d, want 250", got.DeadlineMS)
	}
}

func TestQueryRequestBuildValidation(t *testing.T) {
	cases := []struct {
		name string
		req  QueryRequest
		want string
	}{
		{"empty", QueryRequest{}, "either source or attack"},
		{"bad attack", QueryRequest{Attack: 9}, "either source or attack"},
		{"no syscalls", QueryRequest{Attack: 1, Privs: "CapSetuid"}, "syscall inventory"},
		{"bad uid", QueryRequest{Attack: 1, UID: "1,2", Syscalls: []string{"open"}}, "uid"},
		{"bad source", QueryRequest{Source: "gibberish"}, ""},
		{"workers 2^61", QueryRequest{Attack: 2, Syscalls: []string{"open"}, Search: SearchParams{Workers: 1 << 61}}, "workers"},
		{"workers 2^62", QueryRequest{Attack: 2, Syscalls: []string{"open"}, Search: SearchParams{Workers: 1 << 62}}, "workers"},
		{"workers in source", QueryRequest{Source: "objects:\nUser(1)\ngoal: read 3\nworkers: 1025\n"}, "workers"},
	}
	for _, tc := range cases {
		_, _, err := tc.req.Build()
		if err == nil {
			t.Errorf("%s: no error", tc.name)
			continue
		}
		if tc.want != "" && !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

func TestQueryRequestBuildAttack(t *testing.T) {
	req := QueryRequest{
		Attack:   1,
		Privs:    "CapSetuid",
		Syscalls: []string{"open", "setuid"},
		Search:   SearchParams{Budget: 123, Workers: 1},
	}
	q, desc, err := req.Build()
	if err != nil {
		t.Fatal(err)
	}
	if desc == "" {
		t.Error("empty description")
	}
	if q.MaxStates != 123 || q.Workers != 0 {
		t.Errorf("MaxStates=%d Workers=%d; want the budget applied and workers ignored", q.MaxStates, q.Workers)
	}
}

// TestNoCompileIsNoOp: no_compile, no_cost, escalate, workers and mem_budget
// are deprecated v1 fields. A strict decode still accepts each, escalate and
// mem_budget at any value — malformed escalates and negative budgets
// included — and workers anywhere in 0..1024, and a
// query that sets one gets the same verdict, state count, attempts and
// search statistics as one that does not, through the compiled matchers.
func TestNoCompileIsNoOp(t *testing.T) {
	run := func(search string) *rosa.Result {
		t.Helper()
		body := `{"attack":2,"privs":"CapSetuid","syscalls":["open","chown","setuid"],"search":` + search + `}`
		dec := json.NewDecoder(strings.NewReader(body))
		dec.DisallowUnknownFields()
		var req QueryRequest
		if err := dec.Decode(&req); err != nil {
			t.Fatal(err)
		}
		q, _, err := req.Build()
		if err != nil {
			t.Fatal(err)
		}
		res, err := q.RunContext(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	// untimed is a result's stats without the wall-clock figures.
	untimed := func(r *rosa.Result) *rewrite.SearchStats {
		st := r.Stats.Clone()
		st.Elapsed = 0
		for _, rc := range st.RuleProfile {
			rc.Cumulative, rc.Max = 0, 0
		}
		return st
	}
	plain := run(`{"stats":true}`)
	if plain.Attempts != 1 {
		t.Errorf("attempts = %d, want 1", plain.Attempts)
	}
	for _, field := range []string{
		`"no_compile":true`, `"no_cost":true`,
		`"escalate":"off"`, `"escalate":"2:2:4"`, `"escalate":"zzz"`,
		`"workers":0`, `"workers":1`, `"workers":1024`,
		`"mem_budget":1`, `"mem_budget":30000`, `"mem_budget":-1`,
	} {
		off := run(`{"stats":true,` + field + `}`)
		if off.Verdict != plain.Verdict || off.StatesExplored != plain.StatesExplored || off.Attempts != plain.Attempts {
			t.Errorf("%s: (%s, %d states, %d attempts), without it (%s, %d states, %d attempts)", field,
				off.Verdict, off.StatesExplored, off.Attempts, plain.Verdict, plain.StatesExplored, plain.Attempts)
		}
		if off.Stats == nil || off.Stats.CompiledMatches == 0 {
			t.Errorf("%s query did not run through the compiled matchers", field)
			continue
		}
		if got, want := untimed(off), untimed(plain); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: stats\n%+v\nwithout it\n%+v", field, got, want)
		}
	}
}

// TestParallelIsNoOp: parallel is a deprecated v1 field. A strict decode
// still accepts it, and it changes nothing in the analysis options.
func TestParallelIsNoOp(t *testing.T) {
	opts := func(body string) core.Options {
		t.Helper()
		dec := json.NewDecoder(strings.NewReader(body))
		dec.DisallowUnknownFields()
		var req AnalyzeRequest
		if err := dec.Decode(&req); err != nil {
			t.Fatal(err)
		}
		o, err := req.CoreOptions()
		if err != nil {
			t.Fatal(err)
		}
		return o
	}
	plain := opts(`{"program":"su","attacks":[2]}`)
	set := opts(`{"program":"su","attacks":[2],"parallel":true}`)
	if !reflect.DeepEqual(plain, set) {
		t.Errorf("parallel changed the options: %+v, without it %+v", set, plain)
	}
}

func TestEncodeStableBytes(t *testing.T) {
	// Equal values encode to equal bytes — the property the serving
	// determinism contract rides on.
	mk := func() *AnalyzeResponse {
		return &AnalyzeResponse{
			APIVersion: Version, Program: "su", Workload: "login",
			Phases: []PhaseResult{{
				Name: "p1", Privileges: "CapSetuid", UID: "0,0,0", GID: "0,0,0",
				Queries: []QueryResult{{Attack: 1, Verdict: "safe", States: 42}},
			}},
		}
	}
	var a, b bytes.Buffer
	if err := Encode(&a, mk()); err != nil {
		t.Fatal(err)
	}
	if err := Encode(&b, mk()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("equal values encoded to different bytes")
	}
	if !strings.HasSuffix(a.String(), "\n") {
		t.Error("missing trailing newline")
	}
	if strings.Contains(a.String(), `<`) {
		t.Error("HTML escaping enabled")
	}
}

// TestCostOf: the journal's cost vector sums the counts the results carry —
// over every query an analysis ran (skipping attacks not run), or the one
// standalone result. DegradationLevel is always 0.
func TestCostOf(t *testing.T) {
	st := func(hits, misses, compiled, fallback int64) *rewrite.SearchStats {
		return &rewrite.SearchStats{CacheHits: hits, CacheMisses: misses,
			CompiledMatches: compiled, FallbackMatches: fallback}
	}
	a := &core.Analysis{Phases: []core.PhaseResult{{
		Verdicts: [4]rosa.Verdict{rosa.Safe, rosa.Vulnerable, 0, rosa.Unknown},
		States:   [4]int{10, 20, 99, 30},
		Stats:    [4]*rewrite.SearchStats{st(1, 2, 3, 1), st(4, 5, 6, 0), nil, nil},
	}}}
	got := CostOf(a, nil)
	want := QueryCost{StatesExpanded: 60, CacheHits: 5, CacheMisses: 7, CompiledMatches: 9,
		FallbackMatches: 1, CompiledShare: 0.9, EscalationAttempts: 3}
	if got != want {
		t.Errorf("CostOf(analysis) = %+v\nwant %+v", got, want)
	}

	r := &rosa.Result{StatesExplored: 5, Attempts: 1, Stats: st(0, 4, 8, 0)}
	got = CostOf(nil, r)
	want = QueryCost{StatesExpanded: 5, CacheMisses: 4, CompiledMatches: 8, CompiledShare: 1,
		EscalationAttempts: 1}
	if got != want {
		t.Errorf("CostOf(result) = %+v\nwant %+v", got, want)
	}
}
