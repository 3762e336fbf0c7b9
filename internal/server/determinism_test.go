package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"testing"

	"privanalyzer/internal/api"
	"privanalyzer/internal/core"
	"privanalyzer/internal/programs"
	"privanalyzer/internal/telemetry"

	"net/http"
	"net/http/httptest"
)

// normalize zeroes the wall-clock fields — the only part of the wire form
// that may legitimately differ between runs — and re-encodes. Everything
// else (verdicts, witnesses, state counts) must be byte-identical.
func normalize(t *testing.T, raw []byte) []byte {
	t.Helper()
	var ar api.AnalyzeResponse
	if err := json.Unmarshal(raw, &ar); err != nil {
		t.Fatalf("response is not an AnalyzeResponse: %v\n%s", err, raw)
	}
	for pi := range ar.Phases {
		for qi := range ar.Phases[pi].Queries {
			q := &ar.Phases[pi].Queries[qi]
			q.ElapsedNS = 0
			if q.Stats != nil {
				q.Stats.StatesPerSec = 0
				q.Stats.ElapsedNS = 0
			}
		}
	}
	var buf bytes.Buffer
	if err := api.Encode(&buf, &ar); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestServingDeterminism pins the serving contract from DESIGN.md: the same
// program analyzed through N concurrent requests against one warm,
// LRU-shared checker returns byte-identical verdicts, witnesses, and state
// counts to the one-shot CLI path (core.AnalyzeContext + api.FromAnalysis +
// api.Encode — exactly what `privanalyzer -json` emits).
func TestServingDeterminism(t *testing.T) {
	// Reference: the one-shot CLI path, fresh checker, no server.
	p, err := programs.ByName("su")
	if err != nil {
		t.Fatal(err)
	}
	a, err := core.AnalyzeContext(context.Background(), p, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var refBuf bytes.Buffer
	if err := api.Encode(&refBuf, api.FromAnalysis(a, false)); err != nil {
		t.Fatal(err)
	}
	ref := normalize(t, refBuf.Bytes())

	reg := telemetry.New()
	s := New(Config{Concurrency: 4, Registry: reg})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Close()

	const n = 8
	bodies := make([][]byte, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, body, err := post(ts.URL+"/v1/analyze", `{"program":"su"}`)
			if err != nil {
				errs[i] = fmt.Errorf("request %d: %w", i, err)
				return
			}
			if resp.StatusCode != 200 {
				errs[i] = fmt.Errorf("request %d: status %d: %s", i, resp.StatusCode, body)
				return
			}
			bodies[i] = body
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	for i, body := range bodies {
		if got := normalize(t, body); !bytes.Equal(got, ref) {
			t.Errorf("request %d diverged from the one-shot CLI run:\n--- server ---\n%s\n--- cli ---\n%s",
				i, got, ref)
		}
	}

	// Warm-checker reuse is observable: with 8 requests through one resident
	// checker, the transition cache must have hit (the counter the
	// acceptance criterion names).
	hits := metricValue(t, ts.URL, "rosa_succ_cache_hits_total")
	if hits <= 0 {
		t.Errorf("rosa_succ_cache_hits_total = %d after 8 warm requests, want > 0", hits)
	}
}

// metricValue scrapes one counter from /metrics.
func metricValue(t *testing.T, baseURL, name string) int64 {
	t.Helper()
	resp, err := http.Get(baseURL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	for _, line := range strings.Split(readAll(t, resp), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) == 2 && fields[0] == name {
			v, err := strconv.ParseInt(fields[1], 10, 64)
			if err != nil {
				t.Fatalf("metric %s: %v", name, err)
			}
			return v
		}
	}
	t.Fatalf("metric %s not found", name)
	return 0
}
