// Package server is the long-lived analysis daemon behind privanalyzerd: a
// REST+JSON front end over the engine that runs submissions on a bounded,
// prioritized worker pool and keeps per-program rosa.Checker instances hot
// in an LRU so the interner and transition caches amortize across requests.
//
// The wire contract lives in internal/api — handlers decode requests into
// and encode responses from those types only, so the server's JSON is the
// same schema the CLIs emit. Results are deterministic by construction:
// warm caches and concurrency change latency, never verdicts, witnesses, or
// state counts (pinned by this package's determinism tests).
//
// Endpoints: POST /v1/analyze (full pipeline for one modeled program),
// POST /v1/query (one standalone ROSA query), GET /v1/programs, plus the
// diagnostics surface RegisterDiagnostics installs (/healthz, /readyz —
// 503 while the queue is saturated or the server drains — /metrics, and
// /debug/pprof). Serve drains gracefully: SIGTERM (via
// cmdutil.SignalContext upstream) stops admissions, lets queued and
// in-flight work finish inside DrainTimeout, then force-cancels stragglers.
package server

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"runtime"
	"sync"
	"time"

	"privanalyzer/internal/api"
	"privanalyzer/internal/faultinject"
	"privanalyzer/internal/telemetry"
)

// Config tunes the daemon. The zero value serves with defaults.
type Config struct {
	// Concurrency is the worker-pool size — how many analyses/queries run
	// at once (each may use multi-worker search internally). 0 = NumCPU.
	Concurrency int
	// QueueDepth bounds the pending queue — the server's one overload
	// bound: a full queue rejects with 503 "queue_full" (plus a retry hint)
	// and flips /readyz. 0 = 64.
	QueueDepth int
	// Checkers caps the per-program checker LRU. 0 = 8.
	Checkers int
	// DefaultSearch supplies server-side fallbacks for request knobs left
	// zero (the privanalyzerd flag surface, shared via cmdutil.SearchFlags).
	DefaultSearch api.SearchParams
	// RequestTimeout bounds each request's wall clock when neither the
	// request nor DefaultSearch sets one; expired work resolves to ⏱
	// verdicts, not errors. 0 = unbounded.
	RequestTimeout time.Duration
	// DrainTimeout bounds graceful shutdown. 0 = 10s.
	DrainTimeout time.Duration
	// JobStatsInterval throttles async jobs' progress snapshots (the SSE
	// stats frames). 0 keeps the engine's default cadence: one snapshot per
	// completed depth level.
	JobStatsInterval time.Duration
	// SlowLog bounds the slow-query journal (GET /v1/slowlog): the top-K
	// costliest requests are retained. 0 = 32.
	SlowLog int
	// MaxDeadline caps each request's deadline_ms; requests asking for more
	// (or none) get this. Queue wait counts against the deadline — a request
	// still queued at expiry is withdrawn without running (504). 0 = no cap
	// and no server-imposed deadline.
	MaxDeadline time.Duration
	// ServerFaults injects serving-layer faults (chaos tests): handler
	// panics, worker stalls, queue-full storms. Nil injects nothing.
	ServerFaults *faultinject.ServerPlan
	// SearchFaults, when set, is threaded into every request's search
	// options (chaos tests: deterministic engine faults under serving
	// load). Nil injects nothing.
	SearchFaults *faultinject.Plan
	// Registry receives the server and engine metrics. Nil builds one.
	Registry *telemetry.Registry
	// Logger receives structured logs. Nil discards.
	Logger *slog.Logger
}

// Server is the daemon: pool, checker LRU, jobs registry, metrics, and HTTP
// surface.
type Server struct {
	cfg      Config
	reg      *telemetry.Registry
	log      *slog.Logger
	pool     *pool
	checkers *checkerLRU
	jobs     *jobRegistry
	slow     *slowLog
	mux      *http.ServeMux

	// base is the context async jobs (and Serve's requests) descend from: a
	// client dropping its SSE stream must not cancel the job it watches, so
	// job execution is scoped to the server's lifetime, not the request's.
	// killBase fires after the drain window closes.
	base     context.Context
	killBase context.CancelFunc

	// drainCh closes when drain begins — the SSE streams' cue to emit a
	// typed shutdown frame while their jobs finish.
	drainCh   chan struct{}
	drainOnce sync.Once
}

// New builds a Server and starts its worker pool. Metrics the operators
// scrape are pre-registered so /metrics exposes the full schema (at zero)
// from the first request, not after the first analysis.
func New(cfg Config) *Server {
	if cfg.Concurrency <= 0 {
		cfg.Concurrency = runtime.NumCPU()
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	if cfg.Checkers <= 0 {
		cfg.Checkers = 8
	}
	if cfg.DrainTimeout <= 0 {
		cfg.DrainTimeout = 10 * time.Second
	}
	reg := cfg.Registry
	if reg == nil {
		reg = telemetry.New()
	}
	log := cfg.Logger
	if log == nil {
		log = telemetry.Discard
	}
	s := &Server{
		cfg:      cfg,
		reg:      reg,
		log:      log,
		pool:     newPool(cfg.Concurrency, cfg.QueueDepth),
		checkers: newCheckerLRU(cfg.Checkers),
		jobs:     newJobRegistry(),
		slow:     newSlowLog(cfg.SlowLog),
		drainCh:  make(chan struct{}),
	}
	s.base, s.killBase = context.WithCancel(context.Background())
	s.pool.onWait = func(d time.Duration) { s.reg.Timer("server_queue_wait_ns").Observe(d) }
	s.pool.storm = cfg.ServerFaults
	for _, name := range []string{
		"server_requests_total", "server_errors_total",
		"server_shed_queue_full_total", "server_shed_deadline_total",
		"server_shed_shutdown_total",
		"server_jobs_total",
		"rosa_queries_total",
		"rosa_succ_cache_hits_total", "rosa_succ_cache_misses_total",
		"rosa_compiled_matches_total", "rosa_fallback_matches_total",
		"server_slowlog_admitted_total",
	} {
		s.reg.Counter(name)
	}
	s.reg.Gauge("rosa_compiled_rules")
	s.reg.Gauge("server_slowlog_entries")
	s.reg.Gauge("server_queue_pending")
	s.reg.Gauge("server_queue_inflight")
	s.reg.Gauge("server_checkers_resident")
	s.reg.Gauge("server_jobs_resident")
	// The serving histograms' steady-state schema: the happy-path status per
	// route is visible (at zero) from boot; error statuses appear on first
	// occurrence.
	s.reg.Timer("server_queue_wait_ns")
	for _, route := range []string{
		"analyze", "query", "programs", "version", "job_status", "job_events",
		"slowlog", "metrics_json",
	} {
		s.reg.Timer("server_http_" + route + "_200_ns")
	}
	s.reg.Timer("server_http_jobs_202_ns") // job submission acknowledges with 202
	// Boot sample of the runtime's process metrics, so /metrics and
	// /v1/metrics.json expose the process_* schema before the first scrape;
	// every scrape re-samples.
	s.reg.SampleProcess()
	s.mux = s.routes()
	return s
}

// Handler returns the full HTTP surface (API + diagnostics), ready to mount
// on any listener — httptest servers included.
func (s *Server) Handler() http.Handler { return s.mux }

// Ready reports admission readiness: nil when a request submitted now would
// be queued, ErrSaturated/ErrClosed otherwise. /readyz maps an error to 503.
func (s *Server) Ready() error {
	_, err := s.ReadyDetail()
	return err
}

// ReadyDetail reports readiness plus a one-line operational detail for
// /readyz: queue and worker occupancy. The error is non-nil when the server
// should not receive new traffic — the queue is saturated or drain has
// begun.
func (s *Server) ReadyDetail() (string, error) {
	pending, inflight := s.pool.stats()
	detail := fmt.Sprintf("queue %d/%d inflight %d/%d",
		pending, s.cfg.QueueDepth, inflight, s.cfg.Concurrency)
	if s.pool.saturated() {
		return detail, ErrSaturated
	}
	return detail, nil
}

// beginDrain flips the server into draining: SSE streams see drainCh close
// and tell their subscribers. Idempotent.
func (s *Server) beginDrain() {
	s.drainOnce.Do(func() { close(s.drainCh) })
}

// Close stops admissions, aborts queued-but-unstarted work with a terminal
// shutdown outcome, and waits (bounded by DrainTimeout) for in-flight work
// to finish before cancelling stragglers. For direct-Handler users (tests);
// Serve runs the same sequence during drain with the HTTP shutdown
// interleaved.
func (s *Server) Close() {
	s.beginDrain()
	if n := s.pool.abortPending(ErrShutdown); n > 0 {
		s.reg.Counter("server_shed_shutdown_total").Add(int64(n))
	}
	if !s.pool.drainWithin(s.cfg.DrainTimeout) {
		s.log.Warn("drain timeout: cancelling stragglers", "component", "server")
		s.killBase()
		s.pool.drainWithin(time.Second)
	}
	s.killBase()
}

// execute runs p on the calling pool worker. Its wall time, from pickup to
// the response value (an injected stall included), is measured once, and
// that one figure is the slow-query journal's cost.
func (s *Server) execute(ctx context.Context, p *prepared, watch *jobObserver) (any, error) {
	started := time.Now()
	s.cfg.ServerFaults.BeforeExecute()
	v, slow, err := p.run(ctx, watch)
	if slow != nil {
		slow.cost.WallNS = time.Since(started).Nanoseconds()
		s.recordSlow(ctx, p.kind, slow)
	}
	return v, err
}

// run pushes p through the queue and executes it with the server's
// telemetry context and the effective request timeout. The returned error
// is ErrSaturated/ErrClosed/ErrShutdown on queue rejection or drain abort, the
// waiter's context error on pre-execution cancellation (client disconnect,
// deadline expiry in queue), or p's own error. Panics escaping p resolve
// to an ErrWorkerPanic-wrapped error, never a hung connection.
func (s *Server) run(parent context.Context, p *prepared) (any, error) {
	s.reg.Counter("server_requests_total").Add(1)
	pending, inflight := s.pool.stats()
	s.reg.Gauge("server_queue_pending").Set(int64(pending))
	s.reg.Gauge("server_queue_inflight").Set(int64(inflight))
	var (
		v   any
		err error
	)
	submitted := time.Now()
	submitErr := s.pool.submit(parent, p.priority, func() {
		defer func() {
			if rec := recover(); rec != nil {
				err = fmt.Errorf("%w: %v", ErrWorkerPanic, rec)
			}
		}()
		// The pool worker is the first to know the request's queue wait;
		// stamp it (and the effective priority) onto the request's carrier
		// for the access log and the slow-query journal.
		meta := reqMetaFrom(parent)
		if meta != nil {
			meta.queueWaitNS.Store(time.Since(submitted).Nanoseconds())
			meta.priority.Store(int64(p.priority))
		}
		ctx := telemetry.NewContext(parent, s.reg)
		lg := s.log
		if id := telemetry.RequestID(parent); id != "" {
			lg = lg.With("request_id", id)
		}
		ctx = telemetry.WithLogger(ctx, lg)
		timeout := p.timeout
		if timeout <= 0 {
			timeout = s.cfg.RequestTimeout
		}
		if timeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, timeout)
			defer cancel()
		}
		v, err = s.execute(ctx, p, nil)
	})
	if submitErr != nil {
		switch {
		case errors.Is(submitErr, ErrSaturated):
			s.countShed("queue_full")
		case errors.Is(submitErr, ErrClosed), errors.Is(submitErr, ErrShutdown):
			s.countShed("shutdown")
		case errors.Is(submitErr, context.DeadlineExceeded):
			s.countShed("deadline")
		}
		return nil, submitErr
	}
	return v, err
}

// Serve accepts on ln until ctx cancels, then drains: admissions stop,
// in-flight handlers get DrainTimeout to finish, stragglers are cancelled.
func (s *Server) Serve(ctx context.Context, ln net.Listener) error {
	// Request contexts descend from s.base, not ctx: the shutdown signal
	// must stop admissions, not abort work already accepted. base cancels
	// only after the drain window closes.
	defer s.killBase()
	hs := &http.Server{
		Handler:     s.Handler(),
		BaseContext: func(net.Listener) context.Context { return s.base },
	}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	select {
	case err := <-served:
		return err
	case <-ctx.Done():
	}
	s.log.Info("server draining", "component", "server", "timeout", s.cfg.DrainTimeout)
	s.beginDrain()
	// Drain policy: queued-but-unstarted work is aborted with a terminal
	// shutdown outcome (sync waiters get a 503 "shutdown" envelope, async
	// jobs a terminal status) rather than racing the drain window; in-flight
	// work gets the window to finish. One shared deadline bounds the whole
	// sequence, so a stalled worker can never hold exit past DrainTimeout.
	deadline := time.Now().Add(s.cfg.DrainTimeout)
	if n := s.pool.abortPending(ErrShutdown); n > 0 {
		s.reg.Counter("server_shed_shutdown_total").Add(int64(n))
		s.log.Info("drain aborted queued work", "component", "server", "aborted", n)
	}
	dctx, cancel := context.WithDeadline(context.Background(), deadline)
	defer cancel()
	err := hs.Shutdown(dctx)
	s.killBase()
	if !s.pool.drainWithin(time.Until(deadline)) {
		s.log.Warn("drain timeout: abandoning a stalled worker", "component", "server")
	}
	if err != nil && !errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	return nil
}

// Retry-after bounds: the hint is the queue-wait p95, but never below the
// floor (a cold histogram would tell clients to hammer) and never above the
// cap (an outlier-poisoned p95 must not park clients for minutes).
const (
	minRetryAfter = 250 * time.Millisecond
	maxRetryAfter = 30 * time.Second
)

// retryAfter derives the client backoff hint carried by queue_full
// rejections from the current queue-wait p95 — "come back when the queue
// you would have joined has likely moved" — clamped to
// [minRetryAfter, maxRetryAfter].
func (s *Server) retryAfter() time.Duration {
	d := time.Duration(s.reg.Histogram("server_queue_wait_ns").Quantile(0.95))
	if d < minRetryAfter {
		return minRetryAfter
	}
	if d > maxRetryAfter {
		return maxRetryAfter
	}
	return d
}

// countShed bumps the per-reason shed counter, server_shed_<reason>_total.
func (s *Server) countShed(reason string) {
	s.reg.Counter("server_shed_" + reason + "_total").Add(1)
}

// ListenAndServe binds addr and calls Serve. The bound address (useful with
// ":0") is reported through onListen when non-nil.
func (s *Server) ListenAndServe(ctx context.Context, addr string, onListen func(net.Addr)) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	if onListen != nil {
		onListen(ln.Addr())
	}
	return s.Serve(ctx, ln)
}
