package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"privanalyzer/internal/api"
	"privanalyzer/internal/telemetry"
)

// queryBody is a small deterministic query used throughout: attack 2 with
// CapSetuid resolves vulnerable with a witness in well under a second. No
// per-query stats block: cache hit/miss counts vary with cache warmth (the
// determinism contract covers verdicts, witnesses, and state counts), and
// the SSE stats frames flow regardless — the job observer always attaches.
const queryBody = `{"attack":2,"privs":"CapSetuid","syscalls":["open","chown","setuid","seteuid","setresuid","setgid","setegid","setresgid","unlink","rename"]}`

// sseFrame is one parsed Server-Sent-Events frame.
type sseFrame struct {
	event string
	data  []string
}

// payload reassembles the frame's data lines per the SSE grammar.
func (f sseFrame) payload() string { return strings.Join(f.data, "\n") }

// parseSSE parses an event stream until EOF. It returns the frames with the
// first malformed line or the read error, and calls no testing.T method, so
// a goroutine other than the test's may use it.
func parseSSE(r io.Reader) ([]sseFrame, error) {
	var frames []sseFrame
	var cur sseFrame
	var malformed error
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if cur.event != "" {
				frames = append(frames, cur)
			}
			cur = sseFrame{}
		case strings.HasPrefix(line, "event: "):
			cur.event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			cur.data = append(cur.data, strings.TrimPrefix(line, "data: "))
		default:
			if malformed == nil {
				malformed = fmt.Errorf("malformed SSE line %q", line)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return frames, fmt.Errorf("reading stream: %w", err)
	}
	return frames, malformed
}

// readSSE is parseSSE on the test goroutine.
func readSSE(t *testing.T, r io.Reader) []sseFrame {
	t.Helper()
	frames, err := parseSSE(r)
	if err != nil {
		t.Fatal(err)
	}
	return frames
}

// postJob posts a job and decodes the 202 acknowledgment. Like parseSSE, it
// returns its failure instead of reporting it.
func postJob(baseURL, body string) (api.JobResponse, error) {
	var jr api.JobResponse
	resp, raw, err := post(baseURL+"/v1/jobs", body)
	if err != nil {
		return jr, err
	}
	if resp.StatusCode != http.StatusAccepted {
		return jr, fmt.Errorf("POST /v1/jobs = %d, want 202: %s", resp.StatusCode, raw)
	}
	if err := json.Unmarshal(raw, &jr); err != nil {
		return jr, fmt.Errorf("acknowledgment is not a JobResponse: %v\n%s", err, raw)
	}
	return jr, nil
}

// submitJob is postJob on the test goroutine.
func submitJob(t *testing.T, baseURL, body string) api.JobResponse {
	t.Helper()
	jr, err := postJob(baseURL, body)
	if err != nil {
		t.Fatal(err)
	}
	return jr
}

// jobStatus fetches and decodes GET /v1/jobs/{id}.
func jobStatus(t *testing.T, url string) api.JobStatusResponse {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	body := readAll(t, resp)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status endpoint = %d: %s", resp.StatusCode, body)
	}
	var st api.JobStatusResponse
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatalf("not a JobStatusResponse: %v\n%s", err, body)
	}
	return st
}

// normalizeQuery zeroes a query envelope's wall-clock fields and re-encodes;
// the streamed and synchronous forms must agree on everything else.
func normalizeQuery(t *testing.T, raw []byte) []byte {
	t.Helper()
	var qr api.QueryResponse
	if err := json.Unmarshal(raw, &qr); err != nil {
		t.Fatalf("not a QueryResponse: %v\n%s", err, raw)
	}
	qr.Result.ElapsedNS = 0
	if qr.Result.Stats != nil {
		qr.Result.Stats.StatesPerSec = 0
		qr.Result.Stats.ElapsedNS = 0
	}
	var buf bytes.Buffer
	if err := api.Encode(&buf, &qr); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// streamResult checks a finished job's frame sequence against the stream
// contract — every frame is stats or result, and the result comes right
// after a stats frame — and returns the result payload as the synchronous
// endpoint's body (data lines joined by newlines; api.Encode bodies end
// with one trailing newline).
func streamResult(frames []sseFrame) ([]byte, error) {
	kinds := make([]string, len(frames))
	for i, f := range frames {
		kinds[i] = f.event
	}
	for i, k := range kinds {
		if k != "stats" && k != "result" {
			return nil, fmt.Errorf("frame %d is %q, want stats or result: %v", i, k, kinds)
		}
	}
	if n := len(frames); n < 2 || frames[n-1].event != "result" || frames[n-2].event != "stats" {
		return nil, fmt.Errorf("stream %v, want a stats frame then the terminal result", kinds)
	}
	return []byte(frames[len(frames)-1].payload() + "\n"), nil
}

// TestJobStreamDeterminism pins the tentpole acceptance criterion: the
// terminal SSE result frame of a streamed job reconstructs byte-identically
// (modulo wall-clock fields) to the synchronous endpoint's response for the
// same request — across concurrent streamed query jobs, and for an analyze
// job whose concurrent searches share one stats tap. Every stream carries
// stats frames and its result only, the result right after a stats frame.
func TestJobStreamDeterminism(t *testing.T) {
	_, ts := testServer(t, Config{Concurrency: 4})

	resp, syncBody := postJSON(t, ts.URL+"/v1/query", queryBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sync query = %d: %s", resp.StatusCode, syncBody)
	}
	ref := normalizeQuery(t, syncBody)

	// follow submits a job and reads its whole stream. It runs off the
	// test goroutine, so it returns its failures.
	follow := func(body string) ([]sseFrame, error) {
		jr, err := postJob(ts.URL, body)
		if err != nil {
			return nil, err
		}
		sr, err := http.Get(ts.URL + jr.EventsURL)
		if err != nil {
			return nil, err
		}
		defer sr.Body.Close()
		if ct := sr.Header.Get("Content-Type"); ct != "text/event-stream" {
			return nil, fmt.Errorf("stream content type = %q", ct)
		}
		return parseSSE(sr.Body)
	}

	const n = 4
	streamed := make([][]byte, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			frames, err := follow(`{"query":` + queryBody + `}`)
			if err == nil {
				streamed[i], err = streamResult(frames)
			}
			errs[i] = err
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("stream %d: %v", i, err)
		}
	}
	for i, body := range streamed {
		if got := normalizeQuery(t, body); !bytes.Equal(got, ref) {
			t.Errorf("stream %d result diverged from the synchronous body:\n--- streamed ---\n%s\n--- sync ---\n%s",
				i, got, ref)
		}
	}

	// A late subscriber to a finished job replays the final stats and
	// terminal frames.
	jr := submitJob(t, ts.URL, `{"query":`+queryBody+`}`)
	deadline := time.Now().Add(10 * time.Second)
	for jobStatus(t, ts.URL+jr.StatusURL).Status != api.JobDone {
		if time.Now().After(deadline) {
			t.Fatal("job did not finish")
		}
		time.Sleep(5 * time.Millisecond)
	}
	sr, err := http.Get(ts.URL + jr.EventsURL)
	if err != nil {
		t.Fatal(err)
	}
	frames := readSSE(t, sr.Body)
	sr.Body.Close()
	late, err := streamResult(frames)
	if err != nil {
		t.Fatalf("late subscription: %v", err)
	}
	if got := normalizeQuery(t, late); !bytes.Equal(got, ref) {
		t.Error("late-replayed result diverged from the synchronous body")
	}

	// An analyze job: its result frame is the synchronous /v1/analyze body.
	const analyzeBody = `{"program":"su"}`
	resp, syncBody = postJSON(t, ts.URL+"/v1/analyze", analyzeBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sync analyze = %d: %s", resp.StatusCode, syncBody)
	}
	frames, err = follow(`{"analyze":` + analyzeBody + `}`)
	if err != nil {
		t.Fatal(err)
	}
	body, err := streamResult(frames)
	if err != nil {
		t.Fatalf("analyze stream: %v", err)
	}
	if got, want := normalize(t, body), normalize(t, syncBody); !bytes.Equal(got, want) {
		t.Errorf("analyze stream result diverged from the synchronous body:\n--- streamed ---\n%s\n--- sync ---\n%s",
			got, want)
	}
}

// TestJobLifecycle walks queued → running → done through the status endpoint,
// with the queue position visible while the job waits behind a stalled worker.
func TestJobLifecycle(t *testing.T) {
	s, ts := testServer(t, Config{Concurrency: 1, QueueDepth: 8})

	// Occupy the single worker so the job stays observably queued.
	gate := make(chan struct{})
	running := make(chan struct{})
	if _, err := s.pool.enqueue(0, func() { close(running); <-gate }, nil); err != nil {
		t.Fatal(err)
	}
	<-running

	jr := submitJob(t, ts.URL, `{"query":`+queryBody+`}`)
	if !strings.HasPrefix(jr.ID, "j-") || jr.APIVersion != api.Version {
		t.Errorf("acknowledgment = %+v", jr)
	}
	if jr.Status != api.JobQueued {
		t.Errorf("status at admission = %q, want queued", jr.Status)
	}
	if jr.StatusURL != "/v1/jobs/"+jr.ID || jr.EventsURL != "/v1/jobs/"+jr.ID+"/events" {
		t.Errorf("URLs = %q, %q", jr.StatusURL, jr.EventsURL)
	}

	st := jobStatus(t, ts.URL+jr.StatusURL)
	if st.Status != api.JobQueued || st.Kind != "query" || st.ID != jr.ID {
		t.Errorf("queued status = %+v", st)
	}
	if st.QueuePosition < 1 {
		t.Errorf("queue position = %d, want >= 1 while queued", st.QueuePosition)
	}

	close(gate)
	deadline := time.Now().Add(10 * time.Second)
	for {
		st = jobStatus(t, ts.URL+jr.StatusURL)
		if st.Status == api.JobDone {
			break
		}
		if st.QueuePosition != 0 && st.Status != api.JobQueued {
			t.Errorf("queue position %d reported in status %q", st.QueuePosition, st.Status)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in status %q", st.Status)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if st.Error != nil {
		t.Errorf("done with error: %+v", st.Error)
	}
	if st.Stats == nil || st.Stats.StatesExplored == 0 {
		t.Errorf("done without a final stats snapshot: %+v", st.Stats)
	}
}

func TestJobBadRequests(t *testing.T) {
	_, ts := testServer(t, Config{Concurrency: 1})
	cases := []struct {
		name   string
		body   string
		status int
		code   string
	}{
		{"not json", `{`, http.StatusBadRequest, api.CodeBadRequest},
		{"neither set", `{}`, http.StatusBadRequest, api.CodeBadRequest},
		{"both set", `{"analyze":{"program":"su"},"query":` + queryBody + `}`, http.StatusBadRequest, api.CodeBadRequest},
		{"unknown program", `{"analyze":{"program":"emacs"}}`, http.StatusNotFound, api.CodeNotFound},
		{"invalid query", `{"query":{"attack":1}}`, http.StatusBadRequest, api.CodeBadRequest},
	}
	for _, tc := range cases {
		resp, body := postJSON(t, ts.URL+"/v1/jobs", tc.body)
		if resp.StatusCode != tc.status {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, resp.StatusCode, tc.status, body)
			continue
		}
		if e := decodeError(t, body); e.Error.Code != tc.code {
			t.Errorf("%s: code %q, want %q", tc.name, e.Error.Code, tc.code)
		}
	}
	for _, ep := range []string{"/v1/jobs/j-nope", "/v1/jobs/j-nope/events"} {
		resp, err := http.Get(ts.URL + ep)
		if err != nil {
			t.Fatal(err)
		}
		body := readAll(t, resp)
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s = %d, want 404", ep, resp.StatusCode)
		}
		if e := decodeError(t, []byte(body)); e.Error.Code != api.CodeNotFound {
			t.Errorf("GET %s code = %q", ep, e.Error.Code)
		}
	}
}

// TestRequestIDPropagation pins the correlation-id contract: the X-Request-ID
// header is echoed (or minted) on every response, stored on jobs, and carried
// into the handlers' structured logs.
func TestRequestIDPropagation(t *testing.T) {
	var logBuf syncBuffer
	lg, err := telemetry.NewLogger(&logBuf, "debug", true)
	if err != nil {
		t.Fatal(err)
	}
	_, ts := testServer(t, Config{Concurrency: 1, Logger: lg})

	// Client-supplied id: echoed on the response and bound to the job.
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/jobs",
		strings.NewReader(`{"query":`+queryBody+`}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-ID", "corr-123")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	raw := readAll(t, resp)
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-ID"); got != "corr-123" {
		t.Errorf("response X-Request-ID = %q, want the client's", got)
	}
	var jr api.JobResponse
	if err := json.Unmarshal([]byte(raw), &jr); err != nil {
		t.Fatalf("%v\n%s", err, raw)
	}
	if jr.RequestID != "corr-123" {
		t.Errorf("job request_id = %q, want corr-123", jr.RequestID)
	}
	if st := jobStatus(t, ts.URL+jr.StatusURL); st.RequestID != "corr-123" {
		t.Errorf("status request_id = %q", st.RequestID)
	}

	// No header: the server mints one.
	resp2, err := http.Get(ts.URL + "/v1/programs")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.Header.Get("X-Request-ID") == "" {
		t.Error("no X-Request-ID minted for a bare request")
	}

	// The access log and the job's execution log both carry the id.
	deadline := time.Now().Add(10 * time.Second)
	for jobStatus(t, ts.URL+jr.StatusURL).Status != api.JobDone {
		if time.Now().After(deadline) {
			t.Fatal("job did not finish")
		}
		time.Sleep(5 * time.Millisecond)
	}
	logs := logBuf.String()
	if !strings.Contains(logs, `"request_id":"corr-123"`) {
		t.Errorf("structured logs never mention the correlation id:\n%s", logs)
	}
	sawAccess := false
	for _, line := range strings.Split(logs, "\n") {
		if strings.Contains(line, `"msg":"http request"`) && strings.Contains(line, `"request_id":"corr-123"`) {
			sawAccess = true
		}
	}
	if !sawAccess {
		t.Errorf("no access-log record with the correlation id:\n%s", logs)
	}
}

// syncBuffer is a mutex-guarded bytes.Buffer for concurrent slog output.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

func TestVersionEndpoint(t *testing.T) {
	_, ts := testServer(t, Config{})
	resp, err := http.Get(ts.URL + "/v1/version")
	if err != nil {
		t.Fatal(err)
	}
	body := readAll(t, resp)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/version = %d", resp.StatusCode)
	}
	var vr api.VersionResponse
	if err := json.Unmarshal([]byte(body), &vr); err != nil {
		t.Fatalf("not a VersionResponse: %v\n%s", err, body)
	}
	if vr.APIVersion != api.Version {
		t.Errorf("api_version = %q", vr.APIVersion)
	}
	if vr.Module == "" || vr.GoVersion == "" {
		t.Errorf("build identity incomplete: %+v", vr.VersionInfo)
	}
}

// TestJobMetrics asserts the observability satellites: job counters and the
// per-route serving histograms are all in the /metrics exposition — the
// histogram schema from boot, the counters live.
func TestJobMetrics(t *testing.T) {
	_, ts := testServer(t, Config{Concurrency: 1})
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	boot := readAll(t, resp)
	resp.Body.Close()
	for _, want := range []string{
		"server_jobs_total",
		"server_jobs_resident",
		"server_queue_wait_ns_count",
		"server_http_query_200_ns_count",
		"server_http_jobs_202_ns_count",
		"server_http_job_events_200_ns_count",
	} {
		if !strings.Contains(boot, want) {
			t.Errorf("/metrics missing %s at boot", want)
		}
	}

	jr := submitJob(t, ts.URL, `{"query":`+queryBody+`}`)
	deadline := time.Now().Add(10 * time.Second)
	for jobStatus(t, ts.URL+jr.StatusURL).Status != api.JobDone {
		if time.Now().After(deadline) {
			t.Fatal("job did not finish")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := metricValue(t, ts.URL, "server_jobs_total"); got != 1 {
		t.Errorf("server_jobs_total = %d, want 1", got)
	}
	if got := metricValue(t, ts.URL, "server_jobs_resident"); got < 1 {
		t.Errorf("server_jobs_resident = %d, want >= 1", got)
	}
	// The submission itself ran through the instrumented mux.
	if got := metricValue(t, ts.URL, "server_http_jobs_202_ns_count"); got < 1 {
		t.Errorf("server_http_jobs_202_ns_count = %d, want >= 1", got)
	}
	if got := metricValue(t, ts.URL, "server_queue_wait_ns_count"); got < 1 {
		t.Errorf("server_queue_wait_ns_count = %d, want >= 1", got)
	}
}

// TestJobEventsDrainShutdownFrame pins the drain satellite at the handler
// level: a subscriber watching a still-pending job when drain begins receives
// a typed shutdown frame, then the terminal result once the job finishes —
// and /readyz reports 503 while the stream is still open.
func TestJobEventsDrainShutdownFrame(t *testing.T) {
	s, ts := testServer(t, Config{Concurrency: 1, QueueDepth: 8})

	gate := make(chan struct{})
	running := make(chan struct{})
	if _, err := s.pool.enqueue(0, func() { close(running); <-gate }, nil); err != nil {
		t.Fatal(err)
	}
	<-running
	jr := submitJob(t, ts.URL, `{"query":`+queryBody+`}`)

	// http.Get returns once the handler has flushed its headers, so the
	// subscriber is attached before drain begins.
	sr, err := http.Get(ts.URL + jr.EventsURL)
	if err != nil {
		t.Fatal(err)
	}
	defer sr.Body.Close()
	type stream struct {
		frames []sseFrame
		err    error
	}
	streamDone := make(chan stream, 1)
	go func() {
		frames, err := parseSSE(sr.Body)
		streamDone <- stream{frames, err}
	}()

	// The drain sequence Serve runs: stop admissions, signal the streams.
	s.beginDrain()
	s.pool.close()

	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("/readyz during drain = %d, want 503", resp.StatusCode)
	}

	close(gate) // the worker now runs the already-queued job to completion
	var frames []sseFrame
	select {
	case st := <-streamDone:
		if st.err != nil {
			t.Fatal(st.err)
		}
		frames = st.frames
	case <-time.After(15 * time.Second):
		t.Fatal("stream did not terminate after drain")
	}
	shutdownAt, resultAt := -1, -1
	for i, f := range frames {
		switch f.event {
		case "shutdown":
			shutdownAt = i
			if f.payload() != `{"reason":"draining"}` {
				t.Errorf("shutdown payload = %q", f.payload())
			}
		case "result":
			resultAt = i
		}
	}
	if shutdownAt == -1 {
		t.Fatalf("no shutdown frame in %+v", frames)
	}
	if resultAt == -1 {
		t.Fatalf("no terminal result frame in %+v", frames)
	}
	if shutdownAt > resultAt {
		t.Errorf("shutdown frame (%d) after result (%d)", shutdownAt, resultAt)
	}
}

// TestServeGracefulDrainWithStreamingJob runs the full stack: a real
// listener, an in-flight job with a live SSE watcher, and a shutdown signal.
// Serve must hold the connection until the stream delivers its terminal
// result frame, then return cleanly.
func TestServeGracefulDrainWithStreamingJob(t *testing.T) {
	s := New(Config{Concurrency: 1, DrainTimeout: 30 * time.Second, Logger: telemetry.Discard})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	served := make(chan error, 1)
	addrCh := make(chan net.Addr, 1)
	go func() {
		served <- s.ListenAndServe(ctx, "127.0.0.1:0", func(a net.Addr) { addrCh <- a })
	}()
	base := "http://" + (<-addrCh).String()

	jr := submitJob(t, base, `{"query":`+queryBody+`}`)
	sr, err := http.Get(base + jr.EventsURL)
	if err != nil {
		t.Fatal(err)
	}
	defer sr.Body.Close()

	cancel() // drain begins while the job runs and the stream is attached

	frames := readSSE(t, sr.Body)
	if len(frames) == 0 {
		t.Fatal("stream closed without frames during drain")
	}
	if last := frames[len(frames)-1]; last.event != "result" {
		t.Errorf("terminal frame during drain = %q, want result", last.event)
	}
	select {
	case err := <-served:
		if err != nil {
			t.Fatalf("Serve returned %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Serve did not return after drain")
	}
}

// TestRejectedSubmitKeepsFinishedJobs: with the job ring full of finished
// jobs and the queue full, a submission answered 503 queue_full must not
// evict a finished job — a client may be about to fetch its result.
func TestRejectedSubmitKeepsFinishedJobs(t *testing.T) {
	s, ts := testServer(t, Config{Concurrency: 1, QueueDepth: 1})
	s.jobs.mu.Lock()
	for i := 0; i < jobHistory; i++ {
		j := newJobRecord("query", "")
		j.finish([]byte(`{}`), http.StatusOK, nil)
		s.jobs.jobs[j.id] = j
		s.jobs.order = append(s.jobs.order, j)
	}
	first := s.jobs.order[0].id
	s.jobs.mu.Unlock()

	gate := occupyWorkers(t, s, 1)
	defer close(gate)
	if _, err := s.pool.enqueue(0, func() {}, nil); err != nil {
		t.Fatalf("filling the queue: %v", err)
	}
	resp, body := postJSON(t, ts.URL+"/v1/jobs", `{"query":`+queryBody+`}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit into a full queue = %d, want 503: %s", resp.StatusCode, body)
	}
	if env := decodeError(t, body); env.Error.Code != api.CodeQueueFull {
		t.Errorf("full-queue code = %q, want %q", env.Error.Code, api.CodeQueueFull)
	}
	if st := jobStatus(t, ts.URL+"/v1/jobs/"+first); st.Status != api.JobDone {
		t.Errorf("oldest finished job status = %q, want %q", st.Status, api.JobDone)
	}
	if n := s.jobs.len(); n != jobHistory {
		t.Errorf("%d resident jobs after a rejected submit, want %d", n, jobHistory)
	}
}
