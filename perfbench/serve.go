package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"privanalyzer/internal/api"
)

// clients is the closed-loop client count of the served workloads: one
// per CPU of the two-CPU reference box, each waiting for its reply before
// sending the next request.
const clients = 2

// daemon is a privanalyzerd child process on a loopback port.
type daemon struct {
	cmd    *exec.Cmd
	base   string
	client *http.Client
	exited chan struct{}

	mu     sync.Mutex
	access map[string]accessRecord // by request ID, when access-logging
}

// accessRecord is the server's own timing of one request, from its JSON
// access log.
type accessRecord struct {
	QueueWaitNS int64 `json:"queue_wait_ns"`
	ElapsedNS   int64 `json:"elapsed"`
}

// startDaemon boots privanalyzerd with its default configuration on an
// ephemeral port and waits until /readyz answers 200. With accessLog the
// daemon also writes its JSON access log, which the traced runs read for
// per-request server-side timings.
func startDaemon(ctx context.Context, bin string, accessLog bool) (*daemon, error) {
	args := []string{"-addr", "127.0.0.1:0"}
	if accessLog {
		args = append(args, "-log-json")
	}
	cmd := exec.Command(bin, args...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL} // never outlive the benchmark
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	d := &daemon{
		cmd: cmd,
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: clients,
			DisableCompression:  true,
		}},
		exited: make(chan struct{}),
		access: make(map[string]accessRecord),
	}
	addr := make(chan string, 1)
	go func() {
		// Read stderr to EOF so the child never blocks on a full pipe; the
		// first "serving http://ADDR" line carries the bound address.
		sc := bufio.NewScanner(stderr)
		sent := false
		for sc.Scan() {
			line := sc.Text()
			if strings.Contains(line, `"msg":"http request"`) {
				d.record(line)
				continue
			}
			if i := strings.Index(line, "serving http://"); i >= 0 && !sent {
				rest := line[i+len("serving http://"):]
				if j := strings.IndexByte(rest, ' '); j >= 0 {
					rest = rest[:j]
				}
				addr <- rest
				sent = true
			}
		}
		_ = cmd.Wait() // the exit status is read by stop via ProcessState
		close(d.exited)
	}()
	select {
	case a := <-addr:
		d.base = "http://" + a
	case <-d.exited:
		return nil, fmt.Errorf("%s exited before serving", bin)
	case <-time.After(30 * time.Second):
		d.kill()
		return nil, fmt.Errorf("%s did not report its address", bin)
	case <-ctx.Done():
		d.kill()
		return nil, ctx.Err()
	}
	for {
		resp, err := d.client.Get(d.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		select {
		case <-d.exited:
			return nil, fmt.Errorf("%s exited before ready", bin)
		case <-ctx.Done():
			d.kill()
			return nil, ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// record keeps one access-log line.
func (d *daemon) record(line string) {
	var rec struct {
		accessRecord
		RequestID string `json:"request_id"`
	}
	if json.Unmarshal([]byte(line), &rec) != nil || rec.RequestID == "" {
		return
	}
	d.mu.Lock()
	d.access[rec.RequestID] = rec.accessRecord
	d.mu.Unlock()
}

// kill stops the child at once and waits for it.
func (d *daemon) kill() {
	_ = d.cmd.Process.Kill() // already exited is fine
	<-d.exited
}

// stop drains the daemon with SIGTERM, waits for it to exit, and returns
// its peak RSS in MiB. A daemon that does not exit within the drain window
// is killed and reported.
func (d *daemon) stop() (float64, error) {
	d.client.CloseIdleConnections()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		d.kill()
		return 0, fmt.Errorf("signal daemon: %w", err)
	}
	select {
	case <-d.exited:
	case <-time.After(20 * time.Second):
		d.kill()
		return 0, fmt.Errorf("daemon did not drain within 20s")
	}
	var rss float64
	if ru, ok := d.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		rss = float64(ru.Maxrss) / 1024
	}
	if !d.cmd.ProcessState.Success() {
		return rss, fmt.Errorf("daemon exited with %v", d.cmd.ProcessState)
	}
	return rss, nil
}

// cpu returns the daemon's user+system CPU time so far, from
// /proc/<pid>/stat (clock ticks of 10 ms).
func (d *daemon) cpu() (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are the
	// 14th and 15th fields of the whole line.
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parse /proc stat: %q %q", f[11], f[12])
	}
	return time.Duration(ut+st) * 10 * time.Millisecond, nil
}

// post sends one JSON request and returns status, body, and client-side
// latency.
func (d *daemon) post(ctx context.Context, path string, body []byte, reqID string) (int, []byte, time.Duration, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, d.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	if reqID != "" {
		req.Header.Set("X-Request-ID", reqID)
	}
	start := time.Now()
	resp, err := d.client.Do(req)
	if err != nil {
		return 0, nil, time.Since(start), err
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	lat := time.Since(start)
	if err == nil && reqID != "" && resp.Header.Get("X-Request-ID") != reqID {
		err = fmt.Errorf("X-Request-ID %q not echoed (got %q)", reqID, resp.Header.Get("X-Request-ID"))
	}
	return resp.StatusCode, b, lat, err
}

func (d *daemon) metrics(ctx context.Context) (*api.MetricsResponse, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.base+"/v1/metrics.json", nil)
	if err != nil {
		return nil, err
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var m api.MetricsResponse
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		return nil, fmt.Errorf("decode metrics: %w", err)
	}
	return &m, nil
}

// analyze runs one /v1/analyze request and checks it against the paper.
// It returns the response (nil on failure), the latency, and a failure
// message ("" when the answer is right).
func (env *benchEnv) analyze(ctx context.Context, d *daemon, program, reqID string) (*api.AnalyzeResponse, time.Duration, string) {
	body := []byte(`{"program":"` + program + `"}`)
	code, b, lat, err := d.post(ctx, "/v1/analyze", body, reqID)
	if err != nil {
		return nil, lat, err.Error()
	}
	if code != http.StatusOK {
		return nil, lat, fmt.Sprintf("analyze %s: HTTP %d: %.200s", program, code, b)
	}
	var resp api.AnalyzeResponse
	if err := json.Unmarshal(b, &resp); err != nil {
		return nil, lat, fmt.Sprintf("analyze %s: %v", program, err)
	}
	if resp.Program != program {
		return nil, lat, fmt.Sprintf("asked for %s, got %s", program, resp.Program)
	}
	if bad := env.paper.checkAnalyze(&resp); len(bad) > 0 {
		return nil, lat, strings.Join(bad, "; ")
	}
	return &resp, lat, ""
}

// bootWarm is the served set-up: boot the daemon and send one analyze per
// program over the closed-loop clients, which fills the checker LRU. The
// warm-up answers are checked and give the run's grid fingerprint.
func (env *benchEnv) bootWarm(ctx context.Context) (*daemon, time.Duration, map[string]*api.AnalyzeResponse, error) {
	start := time.Now()
	d, err := startDaemon(ctx, env.bin("privanalyzerd"), env.trace != nil)
	if err != nil {
		return nil, 0, nil, err
	}
	resps := make(map[string]*api.AnalyzeResponse)
	var mu sync.Mutex
	var firstErr string
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(env.paper.names) {
					return
				}
				name := env.paper.names[i]
				resp, _, bad := env.analyze(ctx, d, name, "")
				mu.Lock()
				if bad != "" && firstErr == "" {
					firstErr = "warm-up: " + bad
				}
				resps[name] = resp
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	took := time.Since(start)
	if firstErr != "" {
		d.kill()
		return nil, 0, nil, fmt.Errorf("%s", firstErr)
	}
	return d, took, resps, nil
}

// serveRepeats is how many boot+warm-up cycles a served run times for
// setup_s; the last daemon serves the measured load.
const serveRepeats = 9

// sample is one measured request.
type sample struct {
	lat time.Duration
	ok  bool
	end time.Duration // completion, since the load started
	key string        // the request's class: its program, or cell/perturbed
}

// closedLoop drives `clients` goroutines that each send op(k) for the
// next stream index k, waiting for each reply, until start+d. It returns
// the samples in completion order.
func closedLoop(start time.Time, d time.Duration, op func(k int) sample) []sample {
	var mu sync.Mutex
	var out []sample
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < d {
				s := op(int(next.Add(1) - 1))
				s.end = time.Since(start)
				mu.Lock()
				out = append(out, s)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return out
}

// window is the length of the slices a served run's rates are measured
// over; the run reports the median slice, so a burst of load from another
// tenant of the machine moves one slice, not the result.
const window = 4 * time.Second

// cpuMark is the daemon's CPU time at one slice boundary.
type cpuMark struct {
	at, cpu time.Duration
}

// sampleCPU records the daemon's CPU time every window from start until
// stop is closed, starting with first at 0. The partial slice at the end is
// left out, unless the run is shorter than one window and it is all there
// is.
func (d *daemon) sampleCPU(start time.Time, first time.Duration, stop <-chan struct{}) []cpuMark {
	marks := []cpuMark{{0, first}}
	tick := time.NewTicker(window)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			if len(marks) == 1 {
				if c, err := d.cpu(); err == nil {
					marks = append(marks, cpuMark{time.Since(start), c})
				}
			}
			return marks
		case <-tick.C:
			if c, err := d.cpu(); err == nil {
				marks = append(marks, cpuMark{time.Since(start), c})
			}
		}
	}
}

// windowRates returns, for each slice between CPU marks, the completed
// operations per second and the CPU seconds per attempted operation.
func windowRates(samples []sample, marks []cpuMark) (rates, costs []float64) {
	for i := 1; i < len(marks); i++ {
		lo, hi := marks[i-1].at, marks[i].at
		var n, ok int
		for _, s := range samples {
			if s.end >= lo && s.end < hi {
				n++
				if s.ok {
					ok++
				}
			}
		}
		if n == 0 {
			continue
		}
		rates = append(rates, float64(ok)/(hi-lo).Seconds())
		costs = append(costs, (marks[i].cpu-marks[i-1].cpu).Seconds()/float64(n))
	}
	return rates, costs
}

// runServed runs one served workload: serveRepeats timed set-ups, then the
// closed-loop load against the last daemon for the run's duration.
func runServed(ctx context.Context, env *benchEnv) (*outcome, error) {
	o := &outcome{}
	var gen *queryGen
	var stream []string
	if env.workload == "serve-query" {
		gen = genQueries(env.seed, env.paper, queryStream)
		if err := gen.reference(ctx); err != nil {
			return nil, err
		}
	} else {
		stream = genAnalyze(env.seed, env.paper.names, analyzeStream)
	}

	repeats := serveRepeats
	if env.trace != nil {
		repeats = 1 // set-up is an end-to-end metric; traced runs skip it
	}
	var d *daemon
	var warm map[string]*api.AnalyzeResponse
	for i := 0; i < repeats; i++ {
		var took time.Duration
		var err error
		d, took, warm, err = env.bootWarm(ctx)
		if err != nil {
			return nil, err
		}
		o.setup = append(o.setup, took.Seconds())
		if i < repeats-1 {
			if _, err := d.stop(); err != nil {
				return nil, err
			}
		}
	}
	stopped := false
	defer func() {
		if !stopped {
			d.kill()
		}
	}()
	fp, err := env.paper.gridPrint(warm)
	if err != nil {
		return nil, err
	}
	o.print = &fp
	perProgram := make(map[string]fingerprint, len(warm))
	for name, r := range warm {
		perProgram[name] = programPrint(r)
	}

	before, err := d.metrics(ctx)
	if err != nil {
		return nil, err
	}
	cpu0, err := d.cpu()
	if err != nil {
		return nil, err
	}
	var op func(k int) sample
	if gen != nil {
		op = func(k int) sample {
			it := &gen.pool[gen.stream[k%len(gen.stream)]]
			reqID := env.trace.reqID("query", k)
			sp := env.trace.begin("client.query", reqID, -1)
			code, b, lat, err := d.post(ctx, "/v1/query", it.Body, reqID)
			env.trace.finish(sp)
			bad := ""
			switch {
			case err != nil:
				bad = err.Error()
			case code != http.StatusOK:
				bad = fmt.Sprintf("query: HTTP %d: %.200s", code, b)
			default:
				var resp api.QueryResponse
				if err := json.Unmarshal(b, &resp); err != nil {
					bad = err.Error()
				} else {
					bad = env.paper.checkQuery(it, &resp)
				}
			}
			o.fail.add(false, bad)
			key := "perturbed"
			if it.Cell != "" {
				key = "cell"
			}
			return sample{lat: lat, ok: bad == "", key: key}
		}
	} else {
		op = func(k int) sample {
			name := stream[k%len(stream)]
			reqID := env.trace.reqID("analyze", k)
			sp := env.trace.begin("client.analyze", reqID, -1)
			resp, lat, bad := env.analyze(ctx, d, name, reqID)
			env.trace.finish(sp)
			if bad == "" {
				if got := programPrint(resp); got != perProgram[name] {
					bad = fmt.Sprintf("%v: %s gave %+v, warm-up gave %+v", errDrift, name, got, perProgram[name])
					o.fail.add(true, bad)
					return sample{lat: lat, key: name}
				}
			}
			o.fail.add(false, bad)
			return sample{lat: lat, ok: bad == "", key: name}
		}
	}
	start := time.Now()
	stopCPU := make(chan struct{})
	marksCh := make(chan []cpuMark, 1)
	go func() { marksCh <- d.sampleCPU(start, cpu0, stopCPU) }()
	samples := closedLoop(start, env.seconds, op)
	close(stopCPU)
	marks := <-marksCh
	after, err := d.metrics(ctx)
	if err != nil {
		return nil, err
	}
	stopped = true
	rss, err := d.stop()
	if err != nil {
		return nil, err
	}

	o.attempted = len(samples)
	byKey := make(map[string][]float64)
	for _, s := range samples {
		o.latMS = append(o.latMS, ms(s.lat))
		byKey[s.key] = append(byKey[s.key], ms(s.lat))
	}
	o.classes = make(map[string]float64)
	for k, v := range byKey {
		o.classes[k+".p50_ms"] = median(v)
		o.classes[k+".count"] = float64(len(v))
	}
	o.sliceRates, o.sliceCosts = windowRates(samples, marks)
	o.opsPerS, o.cpuPerOp = median(o.sliceRates), median(o.sliceCosts)
	o.rssMB = rss
	if env.trace != nil {
		if o.server, err = d.serverLayer(env.trace.snapshot(), before, after); err != nil {
			return nil, err
		}
	}
	if gen != nil {
		o.gen = gen.stats(len(samples))
	} else {
		o.gen = mixStats(stream, len(samples))
	}
	return o, nil
}

// Stream and pool sizes of the served generators. The streams are far
// longer than a run consumes (a run wraps around only past them).
const (
	analyzeStream = 20_000
	queryStream   = 400_000
)

// serverLayer derives the server-layer metrics of a traced run. Queue
// wait, handler time and overhead are per request: the daemon's access-log
// record matched by X-Request-ID to the client span of the same request.
// Checker hits and shedding are counter deltas of /v1/metrics.json taken
// around the load.
func (d *daemon) serverLayer(spans []span, before, after *api.MetricsResponse) (map[string]float64, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	var wait, handler, overhead []float64
	for _, s := range spans {
		if !strings.HasPrefix(s.Name, "client.") {
			continue
		}
		rec, ok := d.access[s.ReqID]
		if !ok {
			return nil, fmt.Errorf("no access-log record for request %s", s.ReqID)
		}
		wait = append(wait, float64(rec.QueueWaitNS)/1e6)
		handler = append(handler, float64(rec.ElapsedNS)/1e6)
		overhead = append(overhead, ms(s.dur())-float64(rec.ElapsedNS)/1e6)
	}
	delta := func(name string) float64 {
		return float64(after.Counters[name] - before.Counters[name])
	}
	hits, misses := delta("rosa_succ_cache_hits_total"), delta("rosa_succ_cache_misses_total")
	var shed float64
	for _, r := range []string{"queue_full", "cost", "brownout", "deadline"} {
		shed += delta("server_shed_" + r + "_total")
	}
	return map[string]float64{
		"server.queue_wait_p50_ms": quantile(wait, 0.50),
		"server.queue_wait_p95_ms": quantile(wait, 0.95),
		"server.handler_p50_ms":    quantile(handler, 0.50),
		"server.overhead_p50_ms":   quantile(overhead, 0.50),
		"server.checker_hit_ratio": ratio(hits, hits+misses),
		"server.shed_total":        shed,
	}, nil
}
