package main

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// sse writes one complete SSE frame.
func sse(w http.ResponseWriter, event, data string) {
	fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, data)
	if f, ok := w.(http.Flusher); ok {
		f.Flush()
	}
}

// TestWatchReconnectsAfterDrop pins the retry contract: a stream that dies
// mid-job is reconnected with backoff, and the replayed stream's result
// frame lands on stdout — the watcher never exits 1 on a transient drop.
func TestWatchReconnectsAfterDrop(t *testing.T) {
	var connects atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/event-stream")
		switch connects.Add(1) {
		case 1:
			// First connect: one progress frame, then the connection dies
			// (the job is still running server-side).
			sse(w, "stats", `{"states_explored":10,"depth":2}`)
			if hj, ok := w.(http.Hijacker); ok {
				conn, _, _ := hj.Hijack()
				conn.Close()
				return
			}
		default:
			// Reconnect: the job has finished; the endpoint replays the full
			// sequence ending in the terminal result frame.
			sse(w, "stats", `{"states_explored":42,"depth":5}`)
			sse(w, "result", `{"api_version":"v1","result":{"verdict":"safe"}}`)
		}
	}))
	defer ts.Close()

	var out, errw bytes.Buffer
	code := watchJobTo(ts.URL+"/v1/jobs/j-1", &out, &errw, time.Millisecond)
	if code != 0 {
		t.Fatalf("exit code = %d, want 0\nstderr:\n%s", code, errw.String())
	}
	if got := connects.Load(); got != 2 {
		t.Fatalf("connects = %d, want 2", got)
	}
	if !strings.Contains(out.String(), `"verdict":"safe"`) {
		t.Fatalf("result envelope missing from stdout:\n%s", out.String())
	}
	if !strings.Contains(errw.String(), "reconnecting") {
		t.Fatalf("reconnect not announced on stderr:\n%s", errw.String())
	}
}

// TestWatchDoesNotRetryClientErrors: a 404 (bad or expired job id) is not
// transient — exactly one request, exit 1.
func TestWatchDoesNotRetryClientErrors(t *testing.T) {
	var connects atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		connects.Add(1)
		http.Error(w, `{"error":{"code":"not_found"}}`, http.StatusNotFound)
	}))
	defer ts.Close()

	var out, errw bytes.Buffer
	if code := watchJobTo(ts.URL+"/v1/jobs/j-nope", &out, &errw, time.Millisecond); code != 1 {
		t.Fatalf("exit code = %d, want 1", code)
	}
	if got := connects.Load(); got != 1 {
		t.Fatalf("connects = %d, want 1 (4xx must not retry)", got)
	}
}

// TestWatchGivesUpAfterMaxAttempts: a server that drops every connection
// before any frame exhausts the retry budget rather than looping forever.
func TestWatchGivesUpAfterMaxAttempts(t *testing.T) {
	var connects atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		connects.Add(1)
		if hj, ok := w.(http.Hijacker); ok {
			conn, _, _ := hj.Hijack()
			conn.Close()
		}
	}))
	defer ts.Close()

	var out, errw bytes.Buffer
	if code := watchJobTo(ts.URL+"/v1/jobs/j-flaky", &out, &errw, time.Millisecond); code != 1 {
		t.Fatalf("exit code = %d, want 1", code)
	}
	if got := connects.Load(); got != watchMaxAttempts {
		t.Fatalf("connects = %d, want %d", got, watchMaxAttempts)
	}
	if !strings.Contains(errw.String(), "giving up") {
		t.Fatalf("no giving-up message:\n%s", errw.String())
	}
}

// TestWatchRetriesOn429WithServerHint: a 429 Too Many Requests is the one
// 4xx the watcher retries — after the server's own retry_after_ms hint, not
// the exponential ladder, and never past the backoff cap.
func TestWatchRetriesOn429WithServerHint(t *testing.T) {
	var connects atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch connects.Add(1) {
		case 1:
			w.Header().Set("Retry-After", "1")
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusTooManyRequests)
			fmt.Fprint(w, `{"api_version":"v1","error":{"code":"admission_rejected","message":"backlog over budget","retry_after_ms":20}}`)
		default:
			w.Header().Set("Content-Type", "text/event-stream")
			sse(w, "result", `{"api_version":"v1","result":{"verdict":"safe"}}`)
		}
	}))
	defer ts.Close()

	var out, errw bytes.Buffer
	start := time.Now()
	code := watchJobTo(ts.URL+"/v1/jobs/j-shed", &out, &errw, time.Millisecond)
	elapsed := time.Since(start)
	if code != 0 {
		t.Fatalf("exit code = %d, want 0\nstderr:\n%s", code, errw.String())
	}
	if got := connects.Load(); got != 2 {
		t.Fatalf("connects = %d, want 2 (429 retries exactly once here)", got)
	}
	if !strings.Contains(out.String(), `"verdict":"safe"`) {
		t.Fatalf("result envelope missing from stdout:\n%s", out.String())
	}
	// The envelope hint (20ms) governs the wait, not the header's 1s and not
	// the 1ms test ladder: the retry must land at ≥ the hint but well under
	// the header's second.
	if elapsed < 20*time.Millisecond {
		t.Errorf("retried after %s, before the 20ms server hint", elapsed)
	}
	if elapsed > 900*time.Millisecond {
		t.Errorf("retry took %s; the Retry-After header seconds won over retry_after_ms", elapsed)
	}
	if !strings.Contains(errw.String(), "reconnecting in 20ms") {
		t.Errorf("hinted wait not announced on stderr:\n%s", errw.String())
	}
}

// TestRetryAfterHint pins the hint extraction precedence: envelope
// retry_after_ms first, Retry-After header seconds as the fallback, zero
// when neither parses.
func TestRetryAfterHint(t *testing.T) {
	mkResp := func(header string) *http.Response {
		h := http.Header{}
		if header != "" {
			h.Set("Retry-After", header)
		}
		return &http.Response{Header: h}
	}
	cases := []struct {
		body   string
		header string
		want   time.Duration
	}{
		{`{"api_version":"v1","error":{"code":"queue_full","retry_after_ms":250}}`, "9", 250 * time.Millisecond},
		{`not json`, "3", 3 * time.Second},
		{`{"error":{"code":"queue_full"}}`, "2", 2 * time.Second},
		{`not json`, "soon", 0},
		{`not json`, "", 0},
	}
	for _, tc := range cases {
		if got := retryAfterHint(mkResp(tc.header), []byte(tc.body)); got != tc.want {
			t.Errorf("retryAfterHint(header=%q, body=%q) = %s, want %s", tc.header, tc.body, got, tc.want)
		}
	}
}
