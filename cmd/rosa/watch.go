package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"privanalyzer/internal/api"
)

// watch retry policy: a dropped stream reconnects on a capped exponential
// backoff. The events endpoint replays a finished job's final stats and
// terminal frames on every connect, so reconnecting is lossless — the
// result frame arrives on whichever attempt finds the job finished.
// Client-error statuses (4xx: bad URL, expired job) never retry — except
// 429, HTTP's generic "later" (a proxy or rate limiter in front of the
// server may send it; a v1 privanalyzerd itself sheds with 503
// queue_full): it retries after the server's own hint (retry_after_ms in
// the envelope, or the Retry-After header), capped by watchMaxBackoff.
// Connection failures, 5xx, and mid-stream drops retry on the exponential
// ladder.
const (
	watchMaxAttempts = 6
	watchBaseBackoff = 500 * time.Millisecond
	watchMaxBackoff  = 8 * time.Second
)

// watchJob follows a privanalyzerd job's Server-Sent-Events stream and
// renders it with the same progress line a local `rosa -progress` run
// paints, so the CLI UX carries over to a remote daemon unchanged. The
// terminal result envelope goes to stdout exactly as the server sent it
// (byte-identical to the synchronous endpoint), so `rosa -watch <url> | jq`
// works like piping the sync response.
//
// url may be the job URL (from a POST /v1/jobs acknowledgment's status_url)
// or the events URL; /events is appended when missing.
func watchJob(url string) int {
	return watchJobTo(url, os.Stdout, os.Stderr, watchBaseBackoff)
}

// watchJobTo is watchJob with the writers and backoff base injected (tests
// shrink the backoff to keep the retry ladder fast).
func watchJobTo(url string, out, errw io.Writer, baseBackoff time.Duration) int {
	if !strings.HasSuffix(url, "/events") {
		url = strings.TrimSuffix(url, "/") + "/events"
	}
	w := &watcher{out: out, errw: errw}
	backoff := baseBackoff
	for attempt := 1; ; attempt++ {
		outcome := streamOnce(url, w)
		if outcome.terminal {
			return outcome.code
		}
		if !outcome.retryable {
			return 1
		}
		// A stream that made progress before dropping earns a fresh retry
		// budget — only consecutive dead connects exhaust the attempts.
		if outcome.sawFrame {
			attempt = 1
			backoff = baseBackoff
		}
		if attempt >= watchMaxAttempts {
			fmt.Fprintf(w.errw, "rosa: -watch: giving up after %d attempts\n", watchMaxAttempts)
			return 1
		}
		wait := backoff
		if outcome.retryAfter > 0 {
			// The server told us when to come back; its hint replaces this
			// step of the ladder (still capped — a pathological hint must
			// not park the client).
			if wait = outcome.retryAfter; wait > watchMaxBackoff {
				wait = watchMaxBackoff
			}
		}
		fmt.Fprintf(w.errw, "rosa: -watch: stream dropped; reconnecting in %s (attempt %d/%d)\n",
			wait, attempt+1, watchMaxAttempts)
		time.Sleep(wait)
		if backoff *= 2; backoff > watchMaxBackoff {
			backoff = watchMaxBackoff
		}
	}
}

// streamOutcome is one connection attempt's result.
type streamOutcome struct {
	// terminal: a result/error frame arrived; code is the exit code.
	terminal bool
	code     int
	// retryable: the failure is transient (connect error, 5xx, dropped
	// stream, 429 Too Many Requests) rather than a client error.
	retryable bool
	// sawFrame: at least one frame was dispatched before the drop.
	sawFrame bool
	// retryAfter: the server's backoff hint on a 429 (retry_after_ms from
	// the error envelope, or the Retry-After header); 0 = no hint.
	retryAfter time.Duration
}

// streamOnce opens the SSE stream once and pumps frames until a terminal
// frame or a drop.
func streamOnce(url string, w *watcher) streamOutcome {
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		fmt.Fprintln(w.errw, "rosa: -watch:", err)
		return streamOutcome{code: 2}
	}
	req.Header.Set("Accept", "text/event-stream")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		fmt.Fprintln(w.errw, "rosa: -watch:", err)
		return streamOutcome{retryable: true}
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		fmt.Fprintf(w.errw, "rosa: -watch: %s: %s\n%s", url, resp.Status, body)
		if resp.StatusCode == http.StatusTooManyRequests {
			// Admission control shed us, not a broken request: retry when
			// the server says the queue will have moved.
			return streamOutcome{retryable: true, retryAfter: retryAfterHint(resp, body)}
		}
		// Other 4xx means the request itself is wrong (bad job id, expired
		// job): retrying replays the same mistake.
		return streamOutcome{retryable: resp.StatusCode >= 500}
	}

	out := streamOutcome{retryable: true}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 16<<20) // result envelopes carry witnesses
	var event string
	var data []string
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "": // blank line dispatches the accumulated frame
			if event != "" {
				out.sawFrame = true
				if code, terminal := w.frame(event, strings.Join(data, "\n")); terminal {
					out.terminal, out.code = true, code
					return out
				}
			}
			event, data = "", nil
		case strings.HasPrefix(line, "event:"):
			event = strings.TrimSpace(strings.TrimPrefix(line, "event:"))
		case strings.HasPrefix(line, "data:"):
			data = append(data, strings.TrimPrefix(strings.TrimPrefix(line, "data:"), " "))
		}
		// Comment lines (":heartbeat") and unknown fields fall through.
	}
	w.endProgress()
	if err := sc.Err(); err != nil {
		fmt.Fprintln(w.errw, "rosa: -watch: stream:", err)
	} else {
		fmt.Fprintln(w.errw, "rosa: -watch: stream ended without a result frame")
	}
	return out
}

// retryAfterHint extracts the server's 429 backoff hint: the error
// envelope's retry_after_ms when the body parses, else the Retry-After
// header's whole seconds. 0 when neither is present.
func retryAfterHint(resp *http.Response, body []byte) time.Duration {
	var env api.ErrorResponse
	if json.Unmarshal(body, &env) == nil && env.Error.RetryAfterMS > 0 {
		return time.Duration(env.Error.RetryAfterMS) * time.Millisecond
	}
	if v := resp.Header.Get("Retry-After"); v != "" {
		if secs, err := strconv.Atoi(v); err == nil && secs > 0 {
			return time.Duration(secs) * time.Second
		}
	}
	return 0
}

// watcher renders one job stream: progress line on stderr, terminal
// envelope on stdout.
type watcher struct {
	out, errw     io.Writer
	progressShown bool
}

// endProgress terminates a live progress line before printing full lines.
func (w *watcher) endProgress() {
	if w.progressShown {
		fmt.Fprintln(w.errw)
		w.progressShown = false
	}
}

// frame handles one SSE frame; terminal is true for result/error, and code
// is the process exit code then.
func (w *watcher) frame(event, data string) (code int, terminal bool) {
	switch event {
	case "stats":
		var st api.SearchStats
		if json.Unmarshal([]byte(data), &st) != nil {
			return 0, false
		}
		rate := 0.0
		if st.ElapsedNS > 0 {
			rate = float64(st.StatesExplored) / (float64(st.ElapsedNS) / 1e9)
		}
		hitRate := 0.0
		if lookups := st.CacheHits + st.CacheMisses; lookups > 0 {
			hitRate = 100 * float64(st.CacheHits) / float64(lookups)
		}
		// The same line shape reporter.report paints for a local -progress
		// run; a remote job has no budget knowledge, so that column is
		// omitted.
		fmt.Fprintf(w.errw, "\rdepth %-3d  %9d states (%.0f/s)  frontier %-7d  cache %5.1f%%  ",
			st.Depth, st.StatesExplored, rate, st.Frontier, hitRate)
		w.progressShown = true
	case "shutdown":
		w.endProgress()
		fmt.Fprintln(w.errw, "server draining; stream stays open while the job finishes")
	case "result":
		w.endProgress()
		fmt.Fprintln(w.out, data)
		return 0, true
	case "error":
		w.endProgress()
		var env api.ErrorResponse
		if json.Unmarshal([]byte(data), &env) == nil && env.Error.Code != "" {
			fmt.Fprintf(w.errw, "rosa: -watch: job failed: %s: %s\n", env.Error.Code, env.Error.Message)
		} else {
			fmt.Fprintf(w.errw, "rosa: -watch: job failed:\n%s\n", data)
		}
		return 1, true
	}
	return 0, false
}
