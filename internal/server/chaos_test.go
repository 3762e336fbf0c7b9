package server

// Serving-layer chaos: a request that panics on its pool worker, a worker
// wedged past the drain budget, and real saturation storms that fill the
// queue. The contract under test is the robustness story end to end — every
// failure mode resolves to a structured envelope on an open connection, never
// a hang; drain is bounded even against a wedged worker; and load shedding
// never changes the bytes of the work it admits.

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"privanalyzer/internal/api"
)

// deadlineBody is queryBody with a per-request deadline_ms bolted on.
func deadlineBody(ms int64) string {
	return queryBody[:len(queryBody)-1] + fmt.Sprintf(`,"search":{"deadline_ms":%d}}`, ms)
}

// occupyWorkers parks n pool workers on a gate so the queue backs up
// deterministically. Returns the gate; close it to free the workers.
func occupyWorkers(t *testing.T, s *Server, n int) chan struct{} {
	t.Helper()
	gate := make(chan struct{})
	var running sync.WaitGroup
	running.Add(n)
	for i := 0; i < n; i++ {
		if _, err := s.pool.enqueue(1<<20, func() { running.Done(); <-gate }, nil); err != nil {
			t.Fatalf("occupying worker %d: %v", i, err)
		}
	}
	running.Wait()
	return gate
}

// TestChaosPanicBecomes500Envelope: a panic escaping onto a pool worker must
// answer the waiting client with the uniform 500 envelope — correlation id
// intact — and must not kill the worker for the next request.
func TestChaosPanicBecomes500Envelope(t *testing.T) {
	s, ts := testServer(t, Config{Concurrency: 1})
	// A route whose request panics on the pool worker, served down the path
	// /v1/query takes: instrument, serveSync, the pool, execute.
	s.mux.HandleFunc("POST /test/panic", s.instrument("panic", func(w http.ResponseWriter, r *http.Request) {
		s.serveSync(w, r, &prepared{
			kind: "query",
			run: func(context.Context, *jobObserver) (any, *slowEntry, error) {
				panic("injected handler panic")
			},
		})
	}))

	resp, body := postJSON(t, ts.URL+"/test/panic", queryBody)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panicked request = %d, want 500: %s", resp.StatusCode, body)
	}
	if resp.Header.Get("X-Request-ID") == "" {
		t.Error("500 response lost its X-Request-ID")
	}
	env := decodeError(t, body)
	if env.APIVersion != api.Version {
		t.Errorf("api_version = %q, want %q", env.APIVersion, api.Version)
	}
	if env.Error.Code != api.CodeInternal {
		t.Errorf("code = %q, want %q", env.Error.Code, api.CodeInternal)
	}
	if !strings.Contains(env.Error.Message, "injected handler panic") {
		t.Errorf("message lost the panic value: %q", env.Error.Message)
	}

	// The worker survived the panic: the next request runs normally.
	resp, body = postJSON(t, ts.URL+"/v1/query", queryBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("request after panic = %d, want 200: %s", resp.StatusCode, body)
	}
}

// TestChaosStalledWorkerNeverBlocksDrain: a worker wedged in a stall that
// ignores cancellation must not hold Close past the drain budget — the
// worker is abandoned, the process exits.
func TestChaosStalledWorkerNeverBlocksDrain(t *testing.T) {
	s := New(Config{Concurrency: 1, DrainTimeout: 200 * time.Millisecond})
	started, release := make(chan struct{}), make(chan struct{})
	defer close(release)
	go s.run(context.Background(), &prepared{
		kind: "query",
		// Wedged: it never looks at its context, and stalls for 10s.
		run: func(context.Context, *jobObserver) (any, *slowEntry, error) {
			close(started)
			select {
			case <-release:
			case <-time.After(10 * time.Second):
			}
			return nil, nil, nil
		},
	})
	select {
	case <-started:
	case <-time.After(5 * time.Second):
		t.Fatal("stalled request never started")
	}

	start := time.Now()
	s.Close()
	// Budget: DrainTimeout, the straggler-cancel grace second, scheduling
	// slack. What must NOT happen is waiting out the 10s stall.
	if elapsed := time.Since(start); elapsed > 4*time.Second {
		t.Fatalf("Close took %s against a stalled worker; drain is unbounded", elapsed)
	}
}

// TestChaosQueueFullStorm: a queue-full storm — the one worker parked, the
// queue filled to QueueDepth — answers every victim with the structured 503
// envelope plus both retry hints, and ends when the queue drains.
func TestChaosQueueFullStorm(t *testing.T) {
	s, ts := testServer(t, Config{Concurrency: 1, QueueDepth: 1})
	gate := occupyWorkers(t, s, 1)
	drained := make(chan struct{})
	if _, err := s.pool.enqueue(0, func() { close(drained) }, nil); err != nil {
		t.Fatalf("filling the queue: %v", err)
	}

	for i := 0; i < 2; i++ {
		resp, body := postJSON(t, ts.URL+"/v1/query", queryBody)
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("storm request %d = %d, want 503: %s", i, resp.StatusCode, body)
		}
		env := decodeError(t, body)
		if env.Error.Code != api.CodeQueueFull {
			t.Errorf("storm request %d code = %q, want %q", i, env.Error.Code, api.CodeQueueFull)
		}
		if env.Error.RetryAfterMS <= 0 {
			t.Errorf("storm request %d carries no retry_after_ms", i)
		}
		if resp.Header.Get("Retry-After") == "" {
			t.Errorf("storm request %d lost the Retry-After header", i)
		}
	}
	close(gate)
	<-drained
	resp, body := postJSON(t, ts.URL+"/v1/query", queryBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("request after storm = %d, want 200: %s", resp.StatusCode, body)
	}
}

// TestDeadlineExpiresInQueue: a synchronous request whose deadline_ms lapses
// while it is still queued is withdrawn without ever running and answered
// 504 deadline_exceeded.
func TestDeadlineExpiresInQueue(t *testing.T) {
	s, ts := testServer(t, Config{Concurrency: 1})
	gate := occupyWorkers(t, s, 1)
	defer close(gate)

	start := time.Now()
	resp, body := postJSON(t, ts.URL+"/v1/query", deadlineBody(60))
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("expired-in-queue request = %d, want 504: %s", resp.StatusCode, body)
	}
	if elapsed := time.Since(start); elapsed < 50*time.Millisecond {
		t.Errorf("answered after %s — the deadline fired early", elapsed)
	}
	env := decodeError(t, body)
	if env.Error.Code != api.CodeDeadlineExceeded {
		t.Errorf("code = %q, want %q", env.Error.Code, api.CodeDeadlineExceeded)
	}
	if pending, _ := s.pool.stats(); pending != 0 {
		t.Errorf("withdrawn request left %d pending jobs behind", pending)
	}
	if got := s.reg.Counter("server_shed_deadline_total").Value(); got == 0 {
		t.Error("deadline shed not counted")
	}
}

// TestJobDeadlineExpiresInQueue: the async path of the same contract — a
// queued job whose deadline lapses resolves to a terminal 504 outcome
// without running, and its queue slot frees.
func TestJobDeadlineExpiresInQueue(t *testing.T) {
	s, ts := testServer(t, Config{Concurrency: 1})
	gate := occupyWorkers(t, s, 1)
	defer close(gate)

	jr := submitJob(t, ts.URL, `{"query":`+deadlineBody(60)+`}`)
	rec := s.jobs.get(jr.ID)
	if rec == nil {
		t.Fatalf("job %s not resident", jr.ID)
	}
	select {
	case <-rec.done:
	case <-time.After(5 * time.Second):
		t.Fatal("expired job never reached a terminal state")
	}
	_, errInfo := rec.outcome()
	if errInfo == nil || errInfo.Code != api.CodeDeadlineExceeded {
		t.Fatalf("job outcome = %+v, want code %q", errInfo, api.CodeDeadlineExceeded)
	}
	if pending, _ := s.pool.stats(); pending != 0 {
		t.Errorf("expired job left %d pending jobs behind", pending)
	}
}

// TestClientDisconnectFreesQueueSlot: a synchronous client hanging up while
// its request is still queued withdraws the work — the slot frees for the
// next client instead of running for nobody.
func TestClientDisconnectFreesQueueSlot(t *testing.T) {
	s, ts := testServer(t, Config{Concurrency: 1})
	gate := occupyWorkers(t, s, 1)
	defer close(gate)

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/query",
		strings.NewReader(queryBody))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	errCh := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		errCh <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if pending, _ := s.pool.stats(); pending == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("request never queued")
		}
		time.Sleep(time.Millisecond)
	}

	cancel() // the client hangs up
	if err := <-errCh; err == nil {
		t.Fatal("cancelled request returned a response")
	}
	for {
		if pending, _ := s.pool.stats(); pending == 0 {
			break
		}
		if time.Now().After(deadline) {
			pending, _ := s.pool.stats()
			t.Fatalf("disconnected client's work still queued (%d pending)", pending)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestChaosSaturationStorm is the acceptance storm: queue capacity K, 4K
// concurrent requests against parked workers. The queue bound is the one
// gate: exactly K requests are admitted, every other one is shed as a
// structured 503 queue_full with both retry hints and counted on
// server_shed_queue_full_total, and every admitted verdict is byte-identical
// to the unloaded path.
func TestChaosSaturationStorm(t *testing.T) {
	const depth = 4
	const storm = 4 * depth
	s, ts := testServer(t, Config{Concurrency: 2, QueueDepth: depth})

	// The unloaded baseline the admitted storm responses must match.
	resp, rawBaseline := postJSON(t, ts.URL+"/v1/query", queryBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("baseline = %d: %s", resp.StatusCode, rawBaseline)
	}
	// Byte-identity modulo the wall-clock fields — the same normalization the
	// determinism suite pins for streamed vs synchronous responses.
	baseline := normalizeQuery(t, rawBaseline)

	gate := occupyWorkers(t, s, 2)
	released := false
	defer func() {
		if !released {
			close(gate)
		}
	}()

	type outcome struct {
		status     int
		body       []byte
		jsonType   bool
		retryAfter string
		err        error
	}
	results := make(chan outcome, storm)
	for i := 0; i < storm; i++ {
		go func() {
			resp, body, err := post(ts.URL+"/v1/query", queryBody)
			if err != nil {
				results <- outcome{err: err}
				return
			}
			results <- outcome{
				status:     resp.StatusCode,
				body:       body,
				jsonType:   strings.HasPrefix(resp.Header.Get("Content-Type"), "application/json"),
				retryAfter: resp.Header.Get("Retry-After"),
			}
		}()
	}

	// Shed responses return immediately; admitted ones block on the gate. At
	// most depth can be queued, so storm-depth rejections arrive before the
	// gate opens.
	var outcomes []outcome
	timeout := time.After(10 * time.Second)
	for len(outcomes) < storm-depth {
		select {
		case o := <-results:
			outcomes = append(outcomes, o)
		case <-timeout:
			t.Fatalf("only %d/%d shed responses arrived with workers parked", len(outcomes), storm-depth)
		}
	}
	close(gate)
	released = true
	for len(outcomes) < storm {
		select {
		case o := <-results:
			outcomes = append(outcomes, o)
		case <-timeout:
			t.Fatalf("only %d/%d responses arrived after release", len(outcomes), storm)
		}
	}

	var ok200, shed int
	for _, o := range outcomes {
		if o.err != nil {
			t.Fatalf("storm request failed: %v", o.err)
		}
		if !o.jsonType {
			t.Fatalf("non-JSON response (status %d): %s", o.status, o.body)
		}
		switch o.status {
		case http.StatusOK:
			ok200++
			if got := normalizeQuery(t, o.body); string(got) != string(baseline) {
				t.Errorf("admitted verdict differs from the unloaded path:\nloaded:   %s\nunloaded: %s", got, baseline)
			}
		case http.StatusServiceUnavailable:
			shed++
			env := decodeError(t, o.body)
			if env.APIVersion != api.Version {
				t.Errorf("shed envelope api_version = %q", env.APIVersion)
			}
			if env.Error.Code != api.CodeQueueFull {
				t.Errorf("shed code = %q, want %q", env.Error.Code, api.CodeQueueFull)
			}
			if env.Error.RetryAfterMS <= 0 || o.retryAfter == "" {
				t.Errorf("shed response missing retry hints: retry_after_ms=%d header=%q",
					env.Error.RetryAfterMS, o.retryAfter)
			}
		default:
			t.Errorf("storm response status %d is outside the contract: %s", o.status, o.body)
		}
	}
	if shed != storm-depth || ok200 != depth {
		t.Errorf("storm: %d shed, %d admitted; want %d shed by the queue bound, %d admitted",
			shed, ok200, storm-depth, depth)
	}
	if got := s.reg.Counter("server_shed_queue_full_total").Value(); got != storm-depth {
		t.Errorf("server_shed_queue_full_total = %d, want %d", got, storm-depth)
	}
}

// TestServeDrainsUnderSaturation: SIGTERM (ctx cancel) while the queue is
// full and a worker is wedged. Serve must stop admissions, resolve every
// queued-unstarted job to a terminal shutdown outcome, and return nil within
// the drain budget.
func TestServeDrainsUnderSaturation(t *testing.T) {
	const depth = 3
	s := New(Config{
		Concurrency: 1, QueueDepth: depth,
		DrainTimeout: 500 * time.Millisecond,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- s.Serve(ctx, ln) }()
	base := "http://" + ln.Addr().String()

	gate := occupyWorkers(t, s, 1)
	defer close(gate)
	var jobs []*jobRecord
	for i := 0; i < depth; i++ {
		jr := submitJob(t, base, `{"query":`+queryBody+`}`)
		rec := s.jobs.get(jr.ID)
		if rec == nil {
			t.Fatalf("job %s not resident", jr.ID)
		}
		jobs = append(jobs, rec)
	}
	if !s.pool.saturated() {
		t.Fatal("queue not full before drain")
	}
	resp, body := postJSON(t, base+"/v1/jobs", `{"query":`+queryBody+`}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit into a full queue = %d, want 503: %s", resp.StatusCode, body)
	}
	if env := decodeError(t, body); env.Error.Code != api.CodeQueueFull {
		t.Errorf("full-queue code = %q, want %q", env.Error.Code, api.CodeQueueFull)
	}

	start := time.Now()
	cancel()
	select {
	case err := <-served:
		if err != nil {
			t.Fatalf("Serve under saturation = %v, want nil", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve never returned; drain is unbounded")
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Errorf("drain took %s against a 500ms budget", elapsed)
	}
	for i, rec := range jobs {
		if got := rec.currentStatus(); got != api.JobDone {
			t.Errorf("queued job %d status = %q after drain, want %q", i, got, api.JobDone)
			continue
		}
		if _, errInfo := rec.outcome(); errInfo == nil || errInfo.Code != api.CodeShutdown {
			t.Errorf("queued job %d outcome = %+v, want code %q", i, errInfo, api.CodeShutdown)
		}
	}
	if got := s.reg.Counter("server_shed_shutdown_total").Value(); got < 3 {
		t.Errorf("server_shed_shutdown_total = %d, want ≥ 3", got)
	}
}
