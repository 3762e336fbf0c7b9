package api

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"privanalyzer/internal/rewrite"
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

// escalateCase is one ApplyEscalate input and what it must yield.
type escalateCase struct {
	in      string
	want    rewrite.Escalation
	off     bool
	wantErr bool
}

func checkApplyEscalate(t *testing.T, cases []escalateCase) {
	t.Helper()
	for _, tc := range cases {
		var o rewrite.Options
		err := ApplyEscalate(tc.in, &o)
		if tc.wantErr {
			if err == nil {
				t.Errorf("%q: no error", tc.in)
			}
			continue
		}
		if err != nil {
			t.Errorf("%q: %v", tc.in, err)
			continue
		}
		if o.Escalate != tc.want || o.NoEscalate != tc.off {
			t.Errorf("%q: got %+v NoEscalate=%v", tc.in, o.Escalate, o.NoEscalate)
		}
	}
}

func TestApplyEscalateGrammar(t *testing.T) {
	checkApplyEscalate(t, []escalateCase{
		{in: ""},
		{in: "off", off: true},
		{in: "4096:4", want: rewrite.Escalation{Start: 4096, Factor: 4}},
		{in: "1024:2:65536", want: rewrite.Escalation{Start: 1024, Factor: 2, Max: 65536}},
		{in: "4096", wantErr: true},
		{in: "4096:1", wantErr: true},    // factor < 2
		{in: "4096:4:10", wantErr: true}, // max below start
		{in: "x:4", wantErr: true},
		{in: "0:4", wantErr: true},
	})
}

// TestApplyEscalateEdgeCases pins the spellings at the grammar's edges:
// blank and padded input, a bare word, a negative start, and too many or
// empty fields.
func TestApplyEscalateEdgeCases(t *testing.T) {
	checkApplyEscalate(t, []escalateCase{
		{in: "  "},
		{in: " 16 : 2 ", want: rewrite.Escalation{Start: 16, Factor: 2}},
		{in: "x", wantErr: true},
		{in: "-1:2", wantErr: true},
		{in: "1:2:3:4", wantErr: true},
		{in: "4096:4:", wantErr: true},
	})
}

func TestSearchParamsOptions(t *testing.T) {
	p := SearchParams{
		Budget: 5000, Workers: 3, Escalate: "64:8",
		MemBudget: 1 << 20, Stats: true,
	}
	o, err := p.Options()
	if err != nil {
		t.Fatal(err)
	}
	if o.MaxStates != 5000 || o.Workers != 3 || o.MemBudget != 1<<20 ||
		!o.Profile || o.Escalate != (rewrite.Escalation{Start: 64, Factor: 8}) {
		t.Errorf("Options() = %+v", o)
	}
	if _, err := (SearchParams{Escalate: "nope"}).Options(); err == nil {
		t.Error("bad escalate accepted")
	}
	if _, err := (SearchParams{Workers: rewrite.MaxWorkers + 1}).Options(); err == nil {
		t.Error("workers above MaxWorkers accepted")
	}
	if _, err := (SearchParams{Workers: rewrite.MaxWorkers}).Options(); err != nil {
		t.Errorf("workers at MaxWorkers rejected: %v", err)
	}
}

func TestSearchParamsOrDefaults(t *testing.T) {
	d := SearchParams{Budget: 100, Workers: 2, Escalate: "off", Timeout: Duration(time.Second), Stats: true}
	// Zero request: every default applies.
	if got := (SearchParams{}).OrDefaults(d); got != d {
		t.Errorf("zero request = %+v, want defaults %+v", got, d)
	}
	// Explicit fields win.
	p := SearchParams{Budget: 7, Escalate: "4:2"}
	got := p.OrDefaults(d)
	if got.Budget != 7 || got.Escalate != "4:2" || got.Workers != 2 {
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
		Search:   SearchParams{Budget: 123, Workers: 1, Escalate: "off"},
	}
	q, desc, err := req.Build()
	if err != nil {
		t.Fatal(err)
	}
	if desc == "" {
		t.Error("empty description")
	}
	if q.MaxStates != 123 || q.Workers != 1 || !q.NoEscalate {
		t.Errorf("knobs not applied: MaxStates=%d Workers=%d NoEscalate=%v",
			q.MaxStates, q.Workers, q.NoEscalate)
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
