// Async jobs: the observable half of the serving surface. A synchronous
// endpoint holds the connection until the verdict lands; a job admits the
// same request through the same priority queue, acknowledges immediately,
// and makes the run observable while it happens — status + queue position on
// GET /v1/jobs/{id}, and a live Server-Sent-Events feed on
// GET /v1/jobs/{id}/events carrying progress snapshots (Options.OnStats),
// throttled flight-recorder events (level_start, goal_matched, degraded,
// escalated), and a terminal result frame byte-identical to the synchronous
// endpoint's envelope (both encode the same prepared request through
// api.Encode; the determinism suite pins it).
//
// Lifecycle: queued → running → done. The job runs under the server's base
// context, not any HTTP request's — a watcher dropping its stream must not
// cancel the work others may be watching. Finished jobs stay resident (ring
// of jobHistory) so late subscribers replay the terminal frames; the oldest
// done job is evicted when the ring fills.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"time"

	"privanalyzer/internal/api"
	"privanalyzer/internal/rewrite"
	"privanalyzer/internal/telemetry"
)

// jobHistory bounds resident jobs (queued + running + done). Admission past
// the bound evicts the oldest finished job; with nothing evictable the
// submission is rejected 503 like a full queue.
const jobHistory = 256

// levelStartThrottle is the per-subscriber floor between level_start frames:
// deep searches start thousands of levels a second and a stream wants the
// shape, not the firehose. Goal matches, degradations, and escalation rungs
// are never throttled.
const levelStartThrottle = 100 * time.Millisecond

// streamKinds are the recorder kinds a job's sink forwards to subscribers.
var streamKinds = []telemetry.EventKind{
	telemetry.EvLevelStart, telemetry.EvGoalMatched,
	telemetry.EvDegraded, telemetry.EvEscalated,
}

// jobRecord is one job's server-side state. The recorder and sink are
// per-job: journals and streams never mix jobs.
type jobRecord struct {
	id        string
	kind      string // "analyze" or "query"
	requestID string
	created   time.Time
	rec       *telemetry.Recorder
	sink      *telemetry.EventSink

	mu      sync.Mutex
	pooled  *job // queue handle while pending (position); nil after pickup
	waitNS  int64
	status  string
	stats   *api.SearchStats
	statsCh chan struct{} // closed and replaced on every stats update
	result  []byte        // terminal envelope bytes (api.Encode) on success
	errInfo *api.ErrorDetail
	errHTTP int

	// deadline is the job's absolute expiry (zero = none); dlTimer is the
	// in-queue withdrawal timer, stopped once a worker picks the job up
	// (the execution context's deadline takes over).
	deadline time.Time
	dlTimer  *time.Timer

	done chan struct{}
}

// setDeadline records the job's absolute expiry and its in-queue timer.
func (j *jobRecord) setDeadline(at time.Time, t *time.Timer) {
	j.mu.Lock()
	j.deadline = at
	j.dlTimer = t
	j.mu.Unlock()
}

// deadlineAt returns the job's absolute expiry, stopping the in-queue timer
// — the moment a worker owns the job, expiry is the context's business.
func (j *jobRecord) deadlineAt() time.Time {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.dlTimer != nil {
		j.dlTimer.Stop()
		j.dlTimer = nil
	}
	return j.deadline
}

func newJobRecord(kind, requestID string) *jobRecord {
	rec := telemetry.NewRecorder(0)
	sink := telemetry.NewEventSink()
	rec.SetSink(sink, streamKinds...)
	return &jobRecord{
		id:        "j-" + newRequestID(),
		kind:      kind,
		requestID: requestID,
		created:   time.Now(),
		rec:       rec,
		sink:      sink,
		status:    api.JobQueued,
		statsCh:   make(chan struct{}),
		done:      make(chan struct{}),
	}
}

func (j *jobRecord) setPooled(p *job) {
	j.mu.Lock()
	j.pooled = p
	j.mu.Unlock()
}

// setRunning flips the job to running and records its queue wait from the
// pool handle. A job picked up before setPooled lands reads wait 0 — the
// queue was empty, so the wait truly was ~0.
func (j *jobRecord) setRunning() {
	j.mu.Lock()
	j.status = api.JobRunning
	if j.pooled != nil {
		j.waitNS = time.Since(j.pooled.enqueuedAt).Nanoseconds()
	}
	j.pooled = nil
	j.mu.Unlock()
}

// setStats stores the latest progress snapshot and wakes status watchers.
// OnStats may fire from any goroutine (parallel analyses run many searches).
func (j *jobRecord) setStats(st *api.SearchStats) {
	j.mu.Lock()
	j.stats = st
	close(j.statsCh)
	j.statsCh = make(chan struct{})
	j.mu.Unlock()
}

// statsChan returns a channel that closes on the next stats update; callers
// re-fetch after each wakeup.
func (j *jobRecord) statsChan() <-chan struct{} {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.statsCh
}

func (j *jobRecord) latestStats() *api.SearchStats {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.stats
}

// finish records the terminal outcome — envelope bytes on success, the error
// detail plus its HTTP status otherwise — and releases every waiter. The
// first terminal outcome wins: a deadline withdrawal and the worker racing
// to resolve the same job must not double-close done.
func (j *jobRecord) finish(result []byte, httpStatus int, errInfo *api.ErrorDetail) {
	j.mu.Lock()
	if j.status == api.JobDone {
		j.mu.Unlock()
		return
	}
	j.status = api.JobDone
	j.result = result
	j.errInfo = errInfo
	j.errHTTP = httpStatus
	j.mu.Unlock()
	close(j.done)
}

// outcome returns the terminal envelope or error; valid only after done.
func (j *jobRecord) outcome() (result []byte, errInfo *api.ErrorDetail) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.result, j.errInfo
}

func (j *jobRecord) currentStatus() string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.status
}

// jobRegistry holds resident jobs in insertion order for bounded eviction.
type jobRegistry struct {
	mu    sync.Mutex
	jobs  map[string]*jobRecord
	order []*jobRecord
}

func newJobRegistry() *jobRegistry {
	return &jobRegistry{jobs: make(map[string]*jobRecord)}
}

// add admits j, evicting the oldest finished job when the ring is full.
// Reports false when every resident job is still live — the jobs analogue of
// queue saturation.
func (r *jobRegistry) add(j *jobRecord) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	for len(r.order) >= jobHistory {
		evicted := false
		for i, old := range r.order {
			if old.currentStatus() == api.JobDone {
				delete(r.jobs, old.id)
				r.order = append(r.order[:i], r.order[i+1:]...)
				evicted = true
				break
			}
		}
		if !evicted {
			return false
		}
	}
	r.jobs[j.id] = j
	r.order = append(r.order, j)
	return true
}

// remove withdraws a job that failed to enqueue.
func (r *jobRegistry) remove(id string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	j, ok := r.jobs[id]
	if !ok {
		return
	}
	delete(r.jobs, id)
	for i, o := range r.order {
		if o == j {
			r.order = append(r.order[:i], r.order[i+1:]...)
			break
		}
	}
}

func (r *jobRegistry) get(id string) *jobRecord {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.jobs[id]
}

func (r *jobRegistry) len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.order)
}

// jobObserver hooks a prepared request's search options up to a job's
// recorder and stats feed. A nil observer (the synchronous endpoints) leaves
// the options untouched, which is what keeps sync and job responses
// byte-identical: the observer only adds observation, never search behavior.
type jobObserver struct {
	rec      *telemetry.Recorder
	interval time.Duration
	onStats  func(*rewrite.SearchStats)
}

// attach wires the observer into opts. Chains an existing OnStats rather
// than replacing it.
func (o *jobObserver) attach(opts *rewrite.Options) {
	if o == nil {
		return
	}
	opts.Recorder = o.rec
	opts.StatsInterval = o.interval
	prev := opts.OnStats
	sink := o.onStats
	opts.OnStats = func(st *rewrite.SearchStats) {
		if prev != nil {
			prev(st)
		}
		sink(st)
	}
}

// handleJobSubmit admits an analyze/query request as an async job.
// POST /v1/jobs → 202 with the job's id and URLs.
func (s *Server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	var req api.JobRequest
	if err := decode(w, r, &req); err != nil {
		s.writeError(w, http.StatusBadRequest, api.CodeBadRequest, err.Error())
		return
	}
	if (req.Analyze == nil) == (req.Query == nil) {
		s.writeError(w, http.StatusBadRequest, api.CodeBadRequest,
			"exactly one of analyze or query must be set")
		return
	}
	var p *prepared
	var perr *requestError
	if req.Analyze != nil {
		p, perr = s.prepareAnalyze(*req.Analyze)
	} else {
		p, perr = s.prepareQuery(*req.Query)
	}
	if perr != nil {
		s.writeError(w, perr.status, perr.code, perr.msg)
		return
	}
	s.reg.Counter("server_requests_total").Add(1)
	tkt, rej := s.admit(p.kind, p.priority)
	if rej != nil {
		s.runError(w, rej)
		return
	}

	j := newJobRecord(p.kind, telemetry.RequestID(r.Context()))
	if !s.jobs.add(j) {
		tkt.release()
		s.countShed("queue_full")
		s.writeErrorDetail(w, http.StatusServiceUnavailable, api.ErrorDetail{
			Code:         api.CodeQueueFull,
			Message:      "job registry full: all resident jobs still running",
			RetryAfterMS: s.retryAfter().Milliseconds(),
		})
		return
	}
	// onAbort resolves a job the drain policy or a deadline withdrew before
	// any worker owned it: a terminal status with the matching error code —
	// never silence. Bound at enqueue so an abort cannot race past it.
	pooled, err := s.pool.enqueue(p.priority, func() { s.execJob(j, p, tkt) }, func(aerr error) {
		tkt.release()
		status, det := s.errorDetailForRun(aerr)
		s.reg.Counter("server_errors_total").Add(1)
		j.finish(nil, status, &det)
		j.sink.Close()
	})
	if err != nil {
		tkt.release()
		s.jobs.remove(j.id)
		if errors.Is(err, ErrClosed) {
			s.countShed("shutdown")
		} else {
			s.countShed("queue_full")
		}
		s.runError(w, err)
		return
	}
	j.setPooled(pooled)
	if p.deadline > 0 {
		// In-queue expiry: withdraw the job and resolve it 504 without ever
		// running. Once a worker picks it up, deadlineAt stops this timer
		// and the execution context's deadline takes over.
		at := time.Now().Add(p.deadline)
		timer := time.AfterFunc(p.deadline, func() {
			if s.pool.withdraw(pooled) {
				s.countShed("deadline")
				pooled.abort(context.DeadlineExceeded)
			}
		})
		j.setDeadline(at, timer)
	}
	s.reg.Counter("server_jobs_total").Add(1)
	s.reg.Gauge("server_jobs_resident").Set(int64(s.jobs.len()))
	pending, inflight := s.pool.stats()
	s.reg.Gauge("server_queue_pending").Set(int64(pending))
	s.reg.Gauge("server_queue_inflight").Set(int64(inflight))

	s.writeJSON(w, http.StatusAccepted, api.JobResponse{
		APIVersion: api.Version,
		ID:         j.id,
		Status:     j.currentStatus(),
		RequestID:  j.requestID,
		StatusURL:  "/v1/jobs/" + j.id,
		EventsURL:  "/v1/jobs/" + j.id + "/events",
	})
}

// execJob runs a prepared request on a pool worker with the job's observer
// attached, then stores the terminal envelope. Runs under the server's base
// context (plus the effective request timeout and any remaining deadline),
// so watchers' disconnects never cancel it; the drain deadline does. The
// admission ticket releases here — the job's terminal state.
func (s *Server) execJob(j *jobRecord, p *prepared, tkt *ticket) {
	defer tkt.release()
	j.setRunning()
	ctx := telemetry.NewContext(s.base, s.reg)
	// Jobs descend from the server base, not the submitting request, so they
	// carry their own observability meta (queue wait, priority) for the
	// slow-query journal.
	ctx, meta := withReqMeta(ctx)
	j.mu.Lock()
	meta.queueWaitNS.Store(j.waitNS)
	j.mu.Unlock()
	meta.priority.Store(int64(p.priority))
	lg := s.log.With("job", j.id)
	if j.requestID != "" {
		lg = lg.With("request_id", j.requestID)
		ctx = telemetry.WithRequestID(ctx, j.requestID)
	}
	ctx = telemetry.WithLogger(ctx, lg)
	if at := j.deadlineAt(); !at.IsZero() {
		// The admission-relative deadline survives queue wait: whatever
		// remains bounds execution through the engine's ⏱ path.
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(ctx, at)
		defer cancel()
	}
	timeout := p.timeout
	if timeout <= 0 {
		timeout = s.cfg.RequestTimeout
	}
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}

	watch := &jobObserver{
		rec:      j.rec,
		interval: s.cfg.JobStatsInterval,
		onStats:  func(st *rewrite.SearchStats) { j.setStats(api.FromSearchStats(st)) },
	}
	v, err := func() (v any, err error) {
		// A panic escaping the engine's own isolation resolves the job with
		// a terminal internal error — the SSE stream ends with an error
		// frame, not silence, and the worker survives.
		defer func() {
			if rec := recover(); rec != nil {
				err = fmt.Errorf("%w: %v", ErrWorkerPanic, rec)
			}
		}()
		return s.execute(ctx, p, watch)
	}()
	var buf bytes.Buffer
	if err == nil {
		err = api.Encode(&buf, v)
	}
	if err != nil {
		status, det := s.errorDetailForRun(err)
		s.reg.Counter("server_errors_total").Add(1)
		lg.Warn("job failed", "component", "server", "kind", j.kind, "error", err)
		j.finish(nil, status, &det)
	} else {
		lg.Info("job done", "component", "server", "kind", j.kind, "elapsed", time.Since(j.created))
		j.finish(buf.Bytes(), 0, nil)
	}
	// The stream is over: subscribers drain their rings and see the feed
	// end. Journal truncation and stream drops both surface on the shared
	// counter the /metrics satellite names.
	j.sink.Close()
	if drops := j.rec.Dropped() + j.sink.Dropped(); drops > 0 {
		s.reg.Counter("rosa_recorder_dropped_events_total").Add(drops)
	}
}

// handleJobStatus reports a job's state. GET /v1/jobs/{id}.
func (s *Server) handleJobStatus(w http.ResponseWriter, r *http.Request) {
	j := s.jobs.get(r.PathValue("id"))
	if j == nil {
		s.writeError(w, http.StatusNotFound, api.CodeNotFound, "no such job")
		return
	}
	j.mu.Lock()
	resp := api.JobStatusResponse{
		APIVersion:    api.Version,
		ID:            j.id,
		Status:        j.status,
		Kind:          j.kind,
		RequestID:     j.requestID,
		Stats:         j.stats,
		DroppedEvents: j.sink.Dropped(),
		Error:         j.errInfo,
	}
	pooled := j.pooled
	j.mu.Unlock()
	if resp.Status == api.JobQueued && pooled != nil {
		resp.QueuePosition = s.pool.position(pooled)
	}
	s.writeJSON(w, http.StatusOK, resp)
}

// handleJobEvents streams a job's live feed as Server-Sent Events.
// GET /v1/jobs/{id}/events. Frame catalog (event name → data):
//
//	stats       api.SearchStats — the latest Options.OnStats snapshot
//	level_start, goal_matched, degraded, escalated
//	            api.JobEvent — recorder events (level_start throttled to
//	            one per levelStartThrottle per subscriber)
//	shutdown    {"reason":"draining"} — the server began graceful drain;
//	            the stream stays open while the job finishes
//	result      the terminal response envelope, byte-identical to the
//	            synchronous endpoint's body for the same request
//	error       api.ErrorResponse — the job failed
//
// A stream always ends with exactly one result or error frame, preceded by a
// final stats frame; subscribing to a finished job replays the terminal
// frames immediately.
func (s *Server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	j := s.jobs.get(r.PathValue("id"))
	if j == nil {
		s.writeError(w, http.StatusNotFound, api.CodeNotFound, "no such job")
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		s.writeError(w, http.StatusInternalServerError, api.CodeInternal,
			"response writer cannot stream")
		return
	}
	sub := j.sink.Subscribe(0)
	defer sub.Close()
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	var lastLevel time.Time
	var sentStats *api.SearchStats
	emitStats := func() {
		st := j.latestStats()
		if st == nil || st == sentStats {
			return
		}
		data, err := json.Marshal(st)
		if err != nil {
			return
		}
		writeSSE(w, "stats", data)
		sentStats = st
	}
	emitEvents := func() {
		evs, _ := sub.Events()
		for _, ev := range evs {
			if ev.Kind == telemetry.EvLevelStart {
				if time.Since(lastLevel) < levelStartThrottle {
					continue
				}
				lastLevel = time.Now()
			}
			data, err := json.Marshal(api.FromEvent(ev))
			if err != nil {
				continue
			}
			writeSSE(w, ev.Kind.String(), data)
		}
	}

	statsCh := j.statsChan()
	drain := s.drainCh
	for {
		emitEvents()
		emitStats()
		fl.Flush()
		select {
		case <-j.done:
			emitEvents()
			emitStats()
			result, errInfo := j.outcome()
			if errInfo != nil {
				var buf bytes.Buffer
				if api.Encode(&buf, api.ErrorV1{APIVersion: api.Version, Error: *errInfo}) == nil {
					writeSSE(w, "error", buf.Bytes())
				}
			} else {
				writeSSE(w, "result", result)
			}
			fl.Flush()
			return
		case <-sub.Wait():
		case <-statsCh:
			statsCh = j.statsChan()
		case <-drain:
			writeSSE(w, "shutdown", []byte(`{"reason":"draining"}`))
			fl.Flush()
			drain = nil
		case <-r.Context().Done():
			return
		}
	}
}

// writeSSE writes one Server-Sent-Events frame. Multi-line payloads (the
// indented result envelope) become one data: line each, which the SSE
// grammar reassembles with newlines — so the streamed result reconstructs to
// the synchronous body byte-for-byte.
func writeSSE(w http.ResponseWriter, event string, data []byte) {
	var b strings.Builder
	b.WriteString("event: ")
	b.WriteString(event)
	b.WriteByte('\n')
	for _, line := range bytes.Split(bytes.TrimSuffix(data, []byte("\n")), []byte("\n")) {
		b.WriteString("data: ")
		b.Write(line)
		b.WriteByte('\n')
	}
	b.WriteByte('\n')
	w.Write([]byte(b.String())) //nolint:errcheck // a dead client surfaces on the next write
}
