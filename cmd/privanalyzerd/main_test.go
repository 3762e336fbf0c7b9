package main

import (
	"encoding/json"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"privanalyzer/internal/rewrite"
)

// TestDaemonBootServeShutdown boots the daemon on an ephemeral port, drives
// the API and diagnostics surface over real HTTP, then shuts it down with
// the same signal systemd sends.
func TestDaemonBootServeShutdown(t *testing.T) {
	addrc := make(chan net.Addr, 1)
	exit := make(chan int, 1)
	go func() {
		exit <- run([]string{"-addr", "127.0.0.1:0", "-concurrency", "2"},
			func(a net.Addr) { addrc <- a })
	}()
	var base string
	select {
	case a := <-addrc:
		base = "http://" + a.String()
	case code := <-exit:
		t.Fatalf("daemon exited with %d before listening", code)
	case <-time.After(10 * time.Second):
		t.Fatal("daemon never started listening")
	}

	get := func(path string) (int, string) {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(b)
	}

	if code, _ := get("/healthz"); code != 200 {
		t.Errorf("/healthz = %d", code)
	}
	if code, _ := get("/readyz"); code != 200 {
		t.Errorf("/readyz = %d", code)
	}
	if code, body := get("/metrics"); code != 200 || !strings.Contains(body, "server_requests_total") {
		t.Errorf("/metrics = %d, body %q", code, body)
	}
	if code, body := get("/v1/programs"); code != 200 || !strings.Contains(body, "passwd") {
		t.Errorf("/v1/programs = %d, body %q", code, body)
	}

	resp, err := http.Post(base+"/v1/analyze", "application/json",
		strings.NewReader(`{"program":"su"}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("/v1/analyze = %d: %s", resp.StatusCode, body)
	}
	var ar struct {
		APIVersion string `json:"api_version"`
		Program    string `json:"program"`
	}
	if err := json.Unmarshal(body, &ar); err != nil {
		t.Fatalf("analyze response not JSON: %v\n%s", err, body)
	}
	if ar.APIVersion != "v1" || ar.Program != "su" {
		t.Errorf("analyze response header = %+v", ar)
	}

	// SIGTERM drains gracefully: run() returns 0.
	if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case code := <-exit:
		if code != 0 {
			t.Errorf("exit code = %d, want 0", code)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("daemon did not shut down on SIGTERM")
	}
}

// TestDaemonFlagValidation pins the boot-time rejections: -trace-out is
// CLI-only, -workers (which sized the retired per-search worker pool) is
// unknown, and an unknown flag is a usage error.
func TestDaemonFlagValidation(t *testing.T) {
	if code := run([]string{"-trace-out", "x.trace"}, nil); code != 2 {
		t.Errorf("-trace-out exit = %d, want 2", code)
	}
	if code := run([]string{"-workers", strconv.Itoa(rewrite.MaxWorkers + 1)}, nil); code != 2 {
		t.Errorf("-workers %d exit = %d, want 2 (unknown flag)", rewrite.MaxWorkers+1, code)
	}
	if code := run([]string{"-log-level", "nope"}, nil); code != 2 {
		t.Errorf("bad -log-level exit = %d, want 2", code)
	}
	// The queue bound is the daemon's one overload knob and -budget its one
	// state bound; other shedding and budget flags are unknown and fail
	// boot like any typo.
	for _, args := range [][]string{{"-brownout", "q=48"}, {"-max-queue", "1ms"}, {"-escalate", "off"}, {"-mem-budget", "67108864"}} {
		if code := run(args, nil); code != 2 {
			t.Errorf("unknown flag %s exit = %d, want 2", args[0], code)
		}
	}
}
