package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"privanalyzer/internal/api"
	"privanalyzer/internal/programs"
	"privanalyzer/internal/telemetry"
)

func testServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

// post sends a JSON body and reads the response; like readAll, a read error
// ends the body. It calls no testing.T method, so a goroutine other than
// the test's may use it and report the error back.
func post(url, body string) (*http.Response, []byte, error) {
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	return resp, raw, nil
}

func postJSON(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, raw, err := post(url, body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, raw
}

func readAll(t *testing.T, resp *http.Response) string {
	t.Helper()
	var sb strings.Builder
	b := make([]byte, 4096)
	for {
		n, err := resp.Body.Read(b)
		sb.Write(b[:n])
		if err != nil {
			break
		}
	}
	return sb.String()
}

func decodeError(t *testing.T, body []byte) api.ErrorResponse {
	t.Helper()
	var e api.ErrorResponse
	if err := json.Unmarshal(body, &e); err != nil {
		t.Fatalf("error envelope is not valid JSON: %v\n%s", err, body)
	}
	return e
}

func TestDiagnosticsEndpoints(t *testing.T) {
	_, ts := testServer(t, Config{})
	for _, ep := range []string{"/healthz", "/readyz"} {
		resp, err := http.Get(ts.URL + ep)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s = %d, want 200", ep, resp.StatusCode)
		}
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body := readAll(t, resp)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Errorf("content type = %q", ct)
	}
	// The serving metrics schema is visible at boot, before any request.
	for _, metric := range []string{
		"server_requests_total", "rosa_queries_total", "rosa_succ_cache_hits_total",
	} {
		if !strings.Contains(body, metric) {
			t.Errorf("/metrics missing %s at boot:\n%s", metric, body)
		}
	}
}

func TestReadyzSaturated(t *testing.T) {
	// One worker, depth-1 queue: a stalled job plus one pending request
	// saturates admission, and /readyz must say so with a 503.
	s, ts := testServer(t, Config{Concurrency: 1, QueueDepth: 1})
	gate := make(chan struct{})
	running := make(chan struct{})
	go s.pool.submit(context.Background(), 0, func() { close(running); <-gate })
	<-running
	go s.pool.submit(context.Background(), 0, func() {})
	for !s.pool.saturated() {
		time.Sleep(time.Millisecond)
	}

	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("/readyz while saturated = %d, want 503", resp.StatusCode)
	}

	// An API request is rejected with the saturated envelope, not queued.
	resp2, body := postJSON(t, ts.URL+"/v1/analyze", `{"program":"su"}`)
	if resp2.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("saturated analyze = %d, want 503", resp2.StatusCode)
	}
	if e := decodeError(t, body); e.Error.Code != api.CodeSaturated {
		t.Errorf("code = %q, want %q", e.Error.Code, api.CodeSaturated)
	}

	close(gate)
	for s.pool.saturated() {
		time.Sleep(time.Millisecond)
	}
	resp3, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusOK {
		t.Errorf("/readyz after drain = %d, want 200", resp3.StatusCode)
	}
}

func TestAnalyzeBadRequests(t *testing.T) {
	_, ts := testServer(t, Config{Concurrency: 1})
	cases := []struct {
		name   string
		body   string
		status int
		code   string
	}{
		{"not json", `{`, http.StatusBadRequest, api.CodeBadRequest},
		{"unknown field", `{"program":"su","bogus":1}`, http.StatusBadRequest, api.CodeBadRequest},
		{"missing program", `{}`, http.StatusBadRequest, api.CodeBadRequest},
		{"unknown program", `{"program":"emacs"}`, http.StatusNotFound, api.CodeNotFound},
		{"bad attack id", `{"program":"su","attacks":[7]}`, http.StatusBadRequest, api.CodeBadRequest},
	}
	for _, tc := range cases {
		resp, body := postJSON(t, ts.URL+"/v1/analyze", tc.body)
		if resp.StatusCode != tc.status {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, resp.StatusCode, tc.status, body)
			continue
		}
		if e := decodeError(t, body); e.Error.Code != tc.code {
			t.Errorf("%s: code %q, want %q", tc.name, e.Error.Code, tc.code)
		}
	}
	// Wrong method is a plain mux 405, no envelope required.
	resp, err := http.Get(ts.URL + "/v1/analyze")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/analyze = %d, want 405", resp.StatusCode)
	}
}

func TestAnalyzeEndToEnd(t *testing.T) {
	_, ts := testServer(t, Config{Concurrency: 2})
	resp, body := postJSON(t, ts.URL+"/v1/analyze",
		`{"program":"ping","attacks":[3],"search":{"stats":true}}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json; charset=utf-8" {
		t.Errorf("content type = %q", ct)
	}
	var ar api.AnalyzeResponse
	if err := json.Unmarshal(body, &ar); err != nil {
		t.Fatalf("response is not an AnalyzeResponse: %v\n%s", err, body)
	}
	if ar.APIVersion != api.Version || ar.Program != "ping" {
		t.Errorf("header fields: %+v", ar)
	}
	if len(ar.Phases) == 0 {
		t.Fatal("no phases")
	}
	for _, ph := range ar.Phases {
		if len(ph.Queries) != 1 || ph.Queries[0].Attack != 3 {
			t.Fatalf("phase %s queries = %+v, want exactly attack 3", ph.Name, ph.Queries)
		}
		q := ph.Queries[0]
		if q.Verdict != "safe" && q.Verdict != "vulnerable" && q.Verdict != "unknown" {
			t.Errorf("phase %s verdict = %q", ph.Name, q.Verdict)
		}
		if q.Stats == nil {
			t.Errorf("phase %s: stats requested but absent", ph.Name)
		}
	}
}

func TestQueryEndToEnd(t *testing.T) {
	_, ts := testServer(t, Config{Concurrency: 2})
	// Table I attack 2 with CapSetuid is possible ("setuid becomes owner")
	// — a witness must come back.
	resp, body := postJSON(t, ts.URL+"/v1/query",
		`{"attack":2,"privs":"CapSetuid","syscalls":["open","chown","setuid","seteuid","setresuid","setgid","setegid","setresgid","unlink","rename"]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var qr api.QueryResponse
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatalf("response is not a QueryResponse: %v\n%s", err, body)
	}
	if qr.APIVersion != api.Version || qr.Description == "" {
		t.Errorf("header fields: %+v", qr)
	}
	if qr.Result.Verdict != "vulnerable" {
		t.Errorf("verdict = %q, want vulnerable", qr.Result.Verdict)
	}
	if len(qr.Result.Witness) == 0 {
		t.Error("vulnerable verdict without a witness")
	}

	// Validation errors use the envelope.
	resp2, body2 := postJSON(t, ts.URL+"/v1/query", `{"attack":1}`)
	if resp2.StatusCode != http.StatusBadRequest {
		t.Errorf("missing syscalls = %d, want 400", resp2.StatusCode)
	}
	if e := decodeError(t, body2); e.Error.Code != api.CodeBadRequest {
		t.Errorf("code = %q", e.Error.Code)
	}
}

func TestProgramsEndpoint(t *testing.T) {
	_, ts := testServer(t, Config{})
	resp, err := http.Get(ts.URL + "/v1/programs")
	if err != nil {
		t.Fatal(err)
	}
	body := readAll(t, resp)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var pr api.ProgramsResponse
	if err := json.Unmarshal([]byte(body), &pr); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, p := range pr.Programs {
		if p == "passwd" {
			found = true
		}
	}
	if !found {
		t.Errorf("programs list missing passwd: %v", pr.Programs)
	}
}

func TestServerDefaultSearchApplied(t *testing.T) {
	// A server-wide budget cap (the multi-tenant fairness knob) reaches
	// requests that do not set their own: a 2-state default budget forces ⏱
	// somewhere in the grid.
	_, ts := testServer(t, Config{
		Concurrency:   1,
		DefaultSearch: api.SearchParams{Budget: 2},
	})
	resp, body := postJSON(t, ts.URL+"/v1/analyze", `{"program":"passwd"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var ar api.AnalyzeResponse
	if err := json.Unmarshal(body, &ar); err != nil {
		t.Fatal(err)
	}
	sawUnknown := false
	for _, ph := range ar.Phases {
		for _, q := range ph.Queries {
			if q.Verdict == "unknown" {
				sawUnknown = true
			}
		}
	}
	if !sawUnknown {
		t.Error("2-state default budget truncated nothing — server defaults not applied")
	}
}

func TestServeGracefulDrain(t *testing.T) {
	s := New(Config{Concurrency: 1, DrainTimeout: 5 * time.Second, Logger: telemetry.Discard})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	listening := make(chan struct{})
	go func() {
		done <- s.ListenAndServe(ctx, "127.0.0.1:0", func(net.Addr) { close(listening) })
	}()
	<-listening
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Serve returned %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("drain did not complete")
	}
}

// TestAnalyzeAndQueryAgreeOnAttempts answers one grid cell through
// /v1/analyze and through /v1/query under a state budget that stops the
// search, and requires the same verdict, states and attempts (always 1)
// from both.
func TestAnalyzeAndQueryAgreeOnAttempts(t *testing.T) {
	_, ts := testServer(t, Config{Concurrency: 2})
	p, err := programs.ByName("su")
	if err != nil {
		t.Fatal(err)
	}
	syscalls, err := json.Marshal(p.Syscalls())
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name, search string
		pick         func(api.QueryResult) bool
	}{
		{"truncated", `{"budget":3}`,
			func(q api.QueryResult) bool { return q.Verdict == "unknown" && q.States == 3 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			resp, body := postJSON(t, ts.URL+"/v1/analyze", `{"program":"su","search":`+tc.search+`}`)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("analyze status %d: %s", resp.StatusCode, body)
			}
			var ar api.AnalyzeResponse
			if err := json.Unmarshal(body, &ar); err != nil {
				t.Fatal(err)
			}
			var ph api.PhaseResult
			var cell *api.QueryResult
			for _, p := range ar.Phases {
				for i := range p.Queries {
					if cell == nil && tc.pick(p.Queries[i]) {
						ph, cell = p, &p.Queries[i]
					}
				}
			}
			if cell == nil {
				t.Fatalf("no query of the analysis is %s:\n%s", tc.name, body)
			}
			req := fmt.Sprintf(`{"attack":%d,"privs":%q,"uid":%q,"gid":%q,"syscalls":%s,"search":%s}`,
				cell.Attack, ph.Privileges, ph.UID, ph.GID, syscalls, tc.search)
			resp, body = postJSON(t, ts.URL+"/v1/query", req)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("query status %d: %s", resp.StatusCode, body)
			}
			var qr api.QueryResponse
			if err := json.Unmarshal(body, &qr); err != nil {
				t.Fatal(err)
			}
			got := qr.Result
			if got.Attempts != 1 {
				t.Errorf("/v1/query attempts = %d, want 1", got.Attempts)
			}
			if got.Verdict != cell.Verdict || got.States != cell.States || got.Attempts != cell.Attempts {
				t.Errorf("phase %s attack %d: /v1/query (%s, %d states, %d attempts), "+
					"/v1/analyze (%s, %d states, %d attempts)",
					ph.Name, cell.Attack, got.Verdict, got.States, got.Attempts,
					cell.Verdict, cell.States, cell.Attempts)
			}
		})
	}
}

// TestQueryOptionsKeepSharedCacheWarm: /v1/query runs every ad-hoc query on
// one shared checker, so no query's search options may change what a later
// query finds in its transition cache. A grid cell queried cold, then with
// mem_budget (a v1 field that is accepted and ignored), is answered from
// the cache alone the third time: one hit per state, no miss.
func TestQueryOptionsKeepSharedCacheWarm(t *testing.T) {
	_, ts := testServer(t, Config{Concurrency: 1})
	p, err := programs.ByName("suRef")
	if err != nil {
		t.Fatal(err)
	}
	syscalls, err := json.Marshal(p.Syscalls())
	if err != nil {
		t.Fatal(err)
	}
	resp, body := postJSON(t, ts.URL+"/v1/analyze", `{"program":"suRef","attacks":[1]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("analyze status %d: %s", resp.StatusCode, body)
	}
	var ar api.AnalyzeResponse
	if err := json.Unmarshal(body, &ar); err != nil {
		t.Fatal(err)
	}
	var ph *api.PhaseResult
	for i := range ar.Phases {
		if ar.Phases[i].Name == "suRef_priv6" {
			ph = &ar.Phases[i]
		}
	}
	if ph == nil {
		t.Fatalf("analysis has no suRef_priv6 phase:\n%s", body)
	}
	query := func(search string) api.QueryResult {
		t.Helper()
		req := fmt.Sprintf(`{"attack":1,"privs":%q,"uid":%q,"gid":%q,"syscalls":%s,"search":%s}`,
			ph.Privileges, ph.UID, ph.GID, syscalls, search)
		resp, body := postJSON(t, ts.URL+"/v1/query", req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("query %s: status %d: %s", search, resp.StatusCode, body)
		}
		var qr api.QueryResponse
		if err := json.Unmarshal(body, &qr); err != nil {
			t.Fatal(err)
		}
		if qr.Result.Stats == nil {
			t.Fatalf("query %s: no stats:\n%s", search, body)
		}
		return qr.Result
	}
	cold := query(`{"stats":true}`)
	if cold.Verdict != "safe" || cold.Stats.CacheHits != 0 || cold.Stats.CacheMisses != int64(cold.States) {
		t.Fatalf("cold query: %s, %d states, %d hits / %d misses; want a safe verdict with every state a miss",
			cold.Verdict, cold.States, cold.Stats.CacheHits, cold.Stats.CacheMisses)
	}
	budgeted := query(`{"stats":true,"mem_budget":30000}`)
	if budgeted.Verdict != cold.Verdict || budgeted.States != cold.States {
		t.Errorf("mem_budget query: %s, %d states; without it %s, %d states",
			budgeted.Verdict, budgeted.States, cold.Verdict, cold.States)
	}
	warm := query(`{"stats":true}`)
	if warm.Verdict != cold.Verdict || warm.States != cold.States ||
		warm.Stats.CacheHits != int64(warm.States) || warm.Stats.CacheMisses != 0 {
		t.Errorf("third query: %s, %d states, %d hits / %d misses; want %s, %d states, %d hits / 0 misses",
			warm.Verdict, warm.States, warm.Stats.CacheHits, warm.Stats.CacheMisses,
			cold.Verdict, cold.States, cold.States)
	}
}

func TestRetryAfterClamped(t *testing.T) {
	s := New(Config{Concurrency: 1, Logger: nil})
	defer s.Close()
	// Cold histogram: the floor, not zero.
	if got := s.retryAfter(); got != minRetryAfter {
		t.Fatalf("cold retryAfter = %s, want floor %s", got, minRetryAfter)
	}
	// An outlier-poisoned p95 is capped.
	s.reg.Timer("server_queue_wait_ns").Observe(10 * time.Minute)
	if got := s.retryAfter(); got != maxRetryAfter {
		t.Fatalf("poisoned retryAfter = %s, want cap %s", got, maxRetryAfter)
	}
}

// TestEffectiveDeadlineOverflow: a deadline_ms too large for a
// time.Duration is longer than any cap — it must never wrap into a tiny
// deadline (a spurious 504) — and a negative one asks for no deadline.
func TestEffectiveDeadlineOverflow(t *testing.T) {
	const maxMS = math.MaxInt64 / int64(time.Millisecond)
	const capD = 30 * time.Second
	cases := []struct {
		ms       int64
		uncapped time.Duration
		capped   time.Duration
	}{
		{ms: 60_000, uncapped: time.Minute, capped: capD},
		{ms: 1_000, uncapped: time.Second, capped: time.Second},
		{ms: 0, uncapped: 0, capped: capD},
		{ms: -1, uncapped: 0, capped: capD},
		{ms: maxMS, uncapped: time.Duration(maxMS) * time.Millisecond, capped: capD},
		{ms: maxMS + 1, uncapped: 0, capped: capD},
		{ms: 18446744073710, uncapped: 0, capped: capD},  // wrapped to 448µs
		{ms: -18446744073709, uncapped: 0, capped: capD}, // wrapped to 551µs
		{ms: math.MaxInt64, uncapped: 0, capped: capD},
		{ms: math.MinInt64, uncapped: 0, capped: capD},
	}
	for _, tc := range cases {
		for _, maxDeadline := range []time.Duration{0, capD} {
			s := &Server{cfg: Config{MaxDeadline: maxDeadline}}
			want := tc.uncapped
			if maxDeadline > 0 {
				want = tc.capped
			}
			if got := s.effectiveDeadline(api.SearchParams{DeadlineMS: tc.ms}); got != want {
				t.Errorf("deadline_ms %d, max-deadline %s: effective deadline %s, want %s",
					tc.ms, maxDeadline, got, want)
			}
		}
	}
}
