package rosa

import (
	"errors"
	"testing"
)

// figure2Query is the paper's worked example in the query-file format.
const figure2Query = `
# Figures 2-4: can the process read /etc/passwd?
objects:
Process(1,10,11,12,10,11,12,run,set,set)
Dir(2,"/etc",511,40,41,3)
File(3,"/etc/passwd",0,40,41)
User(10)
messages:
open(1,3,0,0)
setuid(1,-1,128)   # 128 = CapSetuid bit
chown(1,-1,-1,41,1) # 1 = CapChown bit
chmod(1,-1,511,0)
goal: read 3
maxstates: 100000
`

func TestParseQueryWorkedExample(t *testing.T) {
	q, err := ParseQuery(figure2Query)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Objects) != 4 || len(q.Messages) != 4 {
		t.Fatalf("objects=%d messages=%d", len(q.Objects), len(q.Messages))
	}
	if q.MaxStates != 100000 {
		t.Errorf("MaxStates = %d", q.MaxStates)
	}
	res, err := q.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != Vulnerable {
		t.Errorf("verdict = %s, want ✓", res.Verdict)
	}
	if len(res.Witness) != 3 {
		t.Errorf("witness = %d steps, want 3", len(res.Witness))
	}
}

func TestParseQueryGoals(t *testing.T) {
	base := `
objects:
Process(1,1000,1000,1000,1000,1000,1000,run,set,set)
Socket(7,22)
messages:
connect(1,7,22,0)
`
	for _, tt := range []struct {
		goal string
		want Verdict
	}{
		{"goal: port 1024", Vulnerable}, // socket 7 already bound to 22
		{"goal: port 10", Safe},
		{"goal: killed 1", Safe},
		{"goal: read 99", Safe},
		{"goal: write 99", Safe},
	} {
		q, err := ParseQuery(base + tt.goal + "\n")
		if err != nil {
			t.Fatalf("%s: %v", tt.goal, err)
		}
		res, err := q.Run()
		if err != nil {
			t.Fatal(err)
		}
		if res.Verdict != tt.want {
			t.Errorf("%s: verdict = %s, want %s", tt.goal, res.Verdict, tt.want)
		}
	}
}

func TestParseQueryExtendedFlag(t *testing.T) {
	src := `
objects:
Process(1,2,2,2,2,2,2,run,set,set)
CapMode(1)
File(3,"/dev/mem",416,2,9)
messages:
open(1,3,0,0)
goal: read 3
extended: true
`
	q, err := ParseQuery(src)
	if err != nil {
		t.Fatal(err)
	}
	if !q.Extended {
		t.Fatal("Extended flag not parsed")
	}
	res, err := q.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != Safe {
		t.Errorf("verdict = %s, want ✗ (capability mode blocks open)", res.Verdict)
	}
}

func TestParseQuerySearchDirectives(t *testing.T) {
	src := `
objects:
Process(1,2,2,2,2,2,2,run,set,set)
messages:
goal: read 3
workers: 4
maxdepth: 7
`
	q, err := ParseQuery(src)
	if err != nil {
		t.Fatal(err)
	}
	if q.Workers != 4 {
		t.Errorf("Workers = %d, want 4", q.Workers)
	}
	if q.MaxDepth != 7 {
		t.Errorf("MaxDepth = %d, want 7", q.MaxDepth)
	}
	// The search always deduplicates visited states; a file that asks
	// otherwise is rejected, not silently run with dedup on.
	if _, err := ParseQuery(src + "dedup: false\n"); !errors.Is(err, ErrQueryFile) {
		t.Errorf("dedup: false: err = %v, want ErrQueryFile", err)
	}
}

func TestParseQueryErrors(t *testing.T) {
	tests := []struct {
		name string
		src  string
	}{
		{"missing goal", "objects:\nProcess(1,0,0,0,0,0,0,run,set,set)\n"},
		{"no objects", "goal: read 3\n"},
		{"term outside section", "Process(1,0,0,0,0,0,0,run,set,set)\ngoal: read 3\n"},
		{"bad goal kind", "objects:\nUser(1)\ngoal: explode 3\n"},
		{"bad goal arg", "objects:\nUser(1)\ngoal: read x\n"},
		{"bad maxstates", "objects:\nUser(1)\ngoal: read 3\nmaxstates: many\n"},
		{"bad term", "objects:\nProcess(1,\ngoal: read 3\n"},
		{"workers above MaxWorkers", "objects:\nUser(1)\ngoal: read 3\nworkers: 1025\n"},
		{"workers 2^61", "objects:\nUser(1)\ngoal: read 3\nworkers: 2305843009213693952\n"},
		{"workers 2^62", "objects:\nUser(1)\ngoal: read 3\nworkers: 4611686018427387904\n"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := ParseQuery(tt.src); !errors.Is(err, ErrQueryFile) {
				t.Errorf("err = %v, want ErrQueryFile", err)
			}
		})
	}
}

func TestSimulate(t *testing.T) {
	q, err := ParseQuery(figure2Query)
	if err != nil {
		t.Fatal(err)
	}
	final, trace, err := q.Simulate(100)
	if err != nil {
		t.Fatal(err)
	}
	if len(trace) == 0 {
		t.Fatal("no syscalls fired")
	}
	// The deterministic run quiesces: all fireable messages consumed.
	for _, e := range final.Args {
		if e.Sym == "setuid" {
			// setuid(CapSetuid) with a User object always fires; it must be
			// consumed by quiescence.
			t.Errorf("setuid message still pending in final state: %s", final)
		}
	}
}
