package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os/exec"
	"syscall"
	"time"

	"privanalyzer/internal/api"
)

// procRun is one finished child process: wall time, CPU and peak RSS from
// its rusage.
type procRun struct {
	wall   time.Duration
	cpu    time.Duration
	rssMB  float64
	stdout []byte
}

// runProc runs bin with args to completion and captures its stdout. A
// non-zero exit is an error carrying the tail of stderr.
func runProc(ctx context.Context, bin string, args ...string) (*procRun, error) {
	var out, errb bytes.Buffer
	cmd := exec.CommandContext(ctx, bin, args...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL} // never outlive the benchmark
	cmd.Stdout, cmd.Stderr = &out, &errb
	start := time.Now()
	err := cmd.Run()
	wall := time.Since(start)
	if err != nil {
		tail := errb.Bytes()
		if len(tail) > 2000 {
			tail = tail[len(tail)-2000:]
		}
		return nil, fmt.Errorf("%s %v: %w\n%s", bin, args, err, tail)
	}
	r := &procRun{wall: wall, stdout: out.Bytes()}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		r.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
		r.rssMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return r, nil
}

// decodeAll decodes the concatenated AnalyzeResponse documents the CLI's
// -json mode prints, keyed by program.
func decodeAll(b []byte) (map[string]*api.AnalyzeResponse, error) {
	out := make(map[string]*api.AnalyzeResponse)
	dec := json.NewDecoder(bytes.NewReader(b))
	for {
		var r api.AnalyzeResponse
		err := dec.Decode(&r)
		if errors.Is(err, io.EOF) {
			return out, nil
		}
		if err != nil {
			return nil, fmt.Errorf("decode evaluation output: %w", err)
		}
		out[r.Program] = &r
	}
}

// setupRepeats is how many cold starts a reproduce run times for setup_s.
const setupRepeats = 15

// runReproduce is the researcher's path: the paper's whole evaluation,
// each pass a fresh `privanalyzer -experiments -json` process (sequential,
// -parallel off), for the run's duration. Every pass is checked against the
// paper and fingerprinted.
func runReproduce(ctx context.Context, env *benchEnv) (*outcome, error) {
	o := &outcome{}
	// Set-up: process start plus building and calibrating all seven models
	// (-tables builds them all and exits), timed from outside.
	var setup []float64
	for i := 0; i < setupRepeats; i++ {
		r, err := runProc(ctx, env.bin("privanalyzer"), "-tables")
		if err != nil {
			return nil, err
		}
		setup = append(setup, r.wall.Seconds())
	}
	o.setup = setup

	var lat, cpu, rss []float64
	var first *fingerprint
	start := time.Now()
	for time.Since(start) < env.seconds || o.attempted < 3 {
		o.attempted++
		r, err := runProc(ctx, env.bin("privanalyzer"), "-experiments", "-json")
		if err != nil {
			o.fail.add(false, err.Error())
			continue
		}
		lat = append(lat, ms(r.wall))
		cpu = append(cpu, r.cpu.Seconds())
		rss = append(rss, r.rssMB)
		resps, err := decodeAll(r.stdout)
		if err != nil {
			o.fail.add(false, err.Error())
			continue
		}
		var bad []string
		for _, resp := range resps {
			bad = append(bad, env.paper.checkAnalyze(resp)...)
		}
		fp, err := env.paper.gridPrint(resps)
		if err != nil {
			bad = append(bad, err.Error())
		}
		if len(bad) > 0 {
			o.fail.add(false, bad...)
			continue
		}
		if first == nil {
			first = &fp
		} else if fp != *first {
			o.fail.add(true, fmt.Sprintf("%v: pass %d gave %+v, first pass %+v", errDrift, o.attempted, fp, *first))
			continue
		}
	}
	elapsed := time.Since(start)
	if first != nil {
		o.print = first
	}
	o.latMS = lat
	o.opsPerS = float64(len(lat)) / elapsed.Seconds()
	o.cpuPerOp = median(cpu)
	o.rssMB = median(rss)
	return o, nil
}
