package server

// The error-envelope golden test: every rejection class renders through one
// versioned shape with a stable code. These bytes are the wire contract —
// a diff here is an API change, not a refactor.

import (
	"net/http/httptest"
	"testing"

	"privanalyzer/internal/api"
)

func TestErrorEnvelopeGolden(t *testing.T) {
	s := New(Config{Concurrency: 1})
	defer s.Close()

	cases := []struct {
		name       string
		status     int
		det        api.ErrorDetail
		wantBody   string
		wantHeader string // Retry-After; "" = absent
	}{
		{
			name:   "bad_request",
			status: 400,
			det:    api.ErrorDetail{Code: api.CodeBadRequest, Message: "program is required"},
			wantBody: `{
  "api_version": "v1",
  "error": {
    "code": "bad_request",
    "message": "program is required"
  }
}
`,
		},
		{
			name:   "not_found",
			status: 404,
			det:    api.ErrorDetail{Code: api.CodeNotFound, Message: "unknown program"},
			wantBody: `{
  "api_version": "v1",
  "error": {
    "code": "not_found",
    "message": "unknown program"
  }
}
`,
		},
		{
			name:   "queue_full",
			status: 503,
			det:    api.ErrorDetail{Code: api.CodeQueueFull, Message: "server: queue saturated", RetryAfterMS: 250},
			wantBody: `{
  "api_version": "v1",
  "error": {
    "code": "queue_full",
    "message": "server: queue saturated",
    "retry_after_ms": 250
  }
}
`,
			wantHeader: "1",
		},
		{
			name:   "deadline_exceeded",
			status: 504,
			det:    api.ErrorDetail{Code: api.CodeDeadlineExceeded, Message: "deadline expired before the request ran"},
			wantBody: `{
  "api_version": "v1",
  "error": {
    "code": "deadline_exceeded",
    "message": "deadline expired before the request ran"
  }
}
`,
		},
		{
			name:   "shutdown",
			status: 503,
			det:    api.ErrorDetail{Code: api.CodeShutdown, Message: "server: shut down before the queued request started"},
			wantBody: `{
  "api_version": "v1",
  "error": {
    "code": "shutdown",
    "message": "server: shut down before the queued request started"
  }
}
`,
		},
		{
			name:   "canceled",
			status: 503,
			det:    api.ErrorDetail{Code: api.CodeCanceled, Message: "request cancelled before execution"},
			wantBody: `{
  "api_version": "v1",
  "error": {
    "code": "canceled",
    "message": "request cancelled before execution"
  }
}
`,
		},
		{
			name:   "internal",
			status: 500,
			det:    api.ErrorDetail{Code: api.CodeInternal, Message: "internal error: handler panic"},
			wantBody: `{
  "api_version": "v1",
  "error": {
    "code": "internal",
    "message": "internal error: handler panic"
  }
}
`,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rr := httptest.NewRecorder()
			s.writeErrorDetail(rr, tc.status, tc.det)
			if rr.Code != tc.status {
				t.Errorf("status = %d, want %d", rr.Code, tc.status)
			}
			if got := rr.Body.String(); got != tc.wantBody {
				t.Errorf("envelope bytes drifted:\ngot:  %q\nwant: %q", got, tc.wantBody)
			}
			if got := rr.Header().Get("Retry-After"); got != tc.wantHeader {
				t.Errorf("Retry-After = %q, want %q", got, tc.wantHeader)
			}
		})
	}
}

// TestErrorCodesPinned pins the code constants' wire values — codes are
// added, never renamed.
func TestErrorCodesPinned(t *testing.T) {
	pinned := []struct{ got, want string }{
		{api.CodeBadRequest, "bad_request"},
		{api.CodeNotFound, "not_found"},
		{api.CodeQueueFull, "queue_full"},
		{api.CodeDeadlineExceeded, "deadline_exceeded"},
		{api.CodeShutdown, "shutdown"},
		{api.CodeCanceled, "canceled"},
		{api.CodeInternal, "internal"},
		{api.CodeSaturated, "queue_full"}, // deprecated alias follows
	}
	for _, p := range pinned {
		if p.got != p.want {
			t.Errorf("code constant = %q, want %q", p.got, p.want)
		}
	}
}
