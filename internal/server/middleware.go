package server

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"net/http"
	"sync/atomic"
	"time"

	"privanalyzer/internal/api"
	"privanalyzer/internal/telemetry"
)

// reqMeta is the per-request observability carrier threaded through the
// context: the pool fills in what the handler can't know up front (queue
// wait, effective priority), and both the access log and the slow-query
// journal read it after the fact. Atomics because the filling happens on a
// pool worker while the access log reads on the handler goroutine.
type reqMeta struct {
	queueWaitNS atomic.Int64
	priority    atomic.Int64
}

type reqMetaKey struct{}

// withReqMeta attaches a fresh carrier to ctx and returns both.
func withReqMeta(ctx context.Context) (context.Context, *reqMeta) {
	m := &reqMeta{}
	return context.WithValue(ctx, reqMetaKey{}, m), m
}

// reqMetaFrom returns the context's carrier, or nil (job contexts descend
// from the server base and get their own).
func reqMetaFrom(ctx context.Context) *reqMeta {
	m, _ := ctx.Value(reqMetaKey{}).(*reqMeta)
	return m
}

// newRequestID mints a correlation id for requests that arrive without one:
// 8 random bytes, hex — short enough to read in a log line, wide enough to
// never collide within a retention window.
func newRequestID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing is a broken platform; serve anyway with a
		// degenerate id rather than refuse traffic.
		return "0000000000000000"
	}
	return hex.EncodeToString(b[:])
}

// statusWriter captures the response status for the serving histograms and
// access log. It forwards Flush so SSE streaming works through the wrapper.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// instrument wraps an API handler with the request-scoped observability the
// whole PR hangs off:
//
//   - Correlation id: the X-Request-ID header (minted when absent) is echoed
//     on the response, carried on the request context
//     (telemetry.WithRequestID — StartSpan and the pool's exec logger pick
//     it up), and stamped on the access-log record, so one id joins logs,
//     spans, job state, and the SSE feed.
//   - Per-route serving histogram: server_http_<route>_<status>_ns (the
//     go 1.22 mux has no route introspection, so the route name is bound
//     here, at registration).
//   - Access log: one Info record per request, with the id.
func (s *Server) instrument(route string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get("X-Request-ID")
		if id == "" {
			id = newRequestID()
		}
		w.Header().Set("X-Request-ID", id)
		sw := &statusWriter{ResponseWriter: w}
		start := time.Now()
		ctx, meta := withReqMeta(telemetry.WithRequestID(r.Context(), id))
		func() {
			// A panicking handler must still answer: net/http's own recovery
			// would drop the connection mid-air, which a client sees as a hang
			// or a truncated body. Recover here and turn it into the uniform
			// 500 envelope — the X-Request-ID header is already set, so the
			// failure stays correlatable.
			defer func() {
				if rec := recover(); rec != nil {
					s.log.Error("handler panic",
						"component", "server", "route", route,
						"request_id", id, "panic", rec)
					if sw.status == 0 {
						s.writeError(sw, http.StatusInternalServerError,
							api.CodeInternal, "internal error: handler panic")
					}
				}
			}()
			h(sw, r.WithContext(ctx))
		}()
		if sw.status == 0 {
			sw.status = http.StatusOK
		}
		elapsed := time.Since(start)
		s.reg.Timer(routeMetricName(route, sw.status)).Observe(elapsed)
		// queue_wait_ns and priority make queue saturation visible per
		// request: a slow response splits into "sat in the queue" vs "ran
		// long". Both stay zero on routes that never touch the pool.
		s.log.Info("http request",
			"component", "server",
			"route", route,
			"method", r.Method,
			"path", r.URL.Path,
			"status", sw.status,
			"request_id", id,
			"queue_wait_ns", meta.queueWaitNS.Load(),
			"priority", meta.priority.Load(),
			"elapsed", elapsed)
	}
}

// routeMetricName builds the per-route histogram name without fmt: the
// status is always three digits.
func routeMetricName(route string, status int) string {
	digits := [3]byte{byte('0' + status/100%10), byte('0' + status/10%10), byte('0' + status%10)}
	return "server_http_" + route + "_" + string(digits[:]) + "_ns"
}
