package api

import (
	"context"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// Bounds for FuzzQueryRequest's runs: a fuzzed budget or worker count must
// not turn the target into a load test.
const (
	fuzzMaxStates  = 2000
	fuzzMaxWorkers = 4
	fuzzDeadline   = 2 * time.Second
	fuzzSlack      = time.Second
)

// FuzzQueryRequest drives arbitrary /v1/query bodies the way the server
// does: a strict decode (unknown fields rejected), then QueryRequest.Build,
// then a run capped at fuzzMaxStates states and fuzzMaxWorkers workers under
// a fuzzDeadline context. A body may fail to decode, build, or set up; it
// must never panic, and a run must return within the deadline plus slack.
func FuzzQueryRequest(f *testing.F) {
	for _, seed := range []string{
		`{"attack":2,"privs":"CapSetuid","syscalls":["open","chown","setuid"]}`,
		`{"attack":2,"privs":"CapSetuid","syscalls":["open","chown","setuid","seteuid","setresuid"]}`,
		`{"attack":2,"privs":"CapSetuid","syscalls":["open","chown","setuid"],"search":{"workers":2305843009213693952}}`,
		`{"attack":2,"privs":"CapSetuid","syscalls":["open","chown","setuid"],"search":{"workers":4611686018427387904}}`,
		`{"attack":1,"uid":"0,1000,0","syscalls":["open","setresuid"],"search":{"budget":100,"escalate":"4:2","no_compile":true,"stats":true}}`,
		`{"attack":3,"privs":"CapNetBindService","syscalls":["socket","bind"],"extended":true,"search":{"escalate":"off","mem_budget":4096}}`,
		`{"source":"objects:\nProcess(1,10,11,12,10,11,12,run,set,set)\nDir(2,\"/etc\",511,40,41,3)\nFile(3,\"/etc/passwd\",0,40,41)\nUser(10)\nmessages:\nopen(1,3,0,0)\nsetuid(1,-1,128)\nchown(1,-1,-1,41,1)\nchmod(1,-1,511,0)\ngoal: read 3\n"}`,
		`{"bogus":1}`,
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, body string) {
		dec := json.NewDecoder(strings.NewReader(body))
		dec.DisallowUnknownFields()
		var req QueryRequest
		if err := dec.Decode(&req); err != nil {
			return
		}
		q, _, err := req.Build()
		if err != nil {
			return
		}
		if q.MaxStates <= 0 || q.MaxStates > fuzzMaxStates {
			q.MaxStates = fuzzMaxStates
		}
		if q.Escalate.Max > fuzzMaxStates {
			q.Escalate.Max = fuzzMaxStates
		}
		if q.Workers <= 0 || q.Workers > fuzzMaxWorkers {
			q.Workers = fuzzMaxWorkers
		}
		ctx, cancel := context.WithTimeout(context.Background(), fuzzDeadline)
		defer cancel()
		start := time.Now()
		if _, err := q.RunContext(ctx); err != nil {
			return
		}
		if elapsed := time.Since(start); elapsed > fuzzDeadline+fuzzSlack {
			t.Errorf("run took %s, past the %s deadline plus %s slack", elapsed, fuzzDeadline, fuzzSlack)
		}
	})
}
