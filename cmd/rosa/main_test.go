package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"privanalyzer/internal/rosa"
)

// capture runs f with os.Stdout redirected and returns what it printed.
func capture(t *testing.T, f func() int) (string, int) {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	code := f()
	os.Stdout = old
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := io.Copy(&buf, r); err != nil {
		t.Fatal(err)
	}
	return buf.String(), code
}

func TestRunExample(t *testing.T) {
	out, code := capture(t, func() int { return run([]string{"-example"}) })
	if code != 0 {
		t.Fatalf("exit code = %d", code)
	}
	for _, want := range []string{"worked example", "verdict: ✓", "chown", "chmod", "open"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunAttackFlags(t *testing.T) {
	out, code := capture(t, func() int {
		return run([]string{
			"-attack", "1",
			"-privs", "CapSetuid",
			"-uid", "1000,1000,1000",
			"-gid", "1000,1000,1000",
			"-syscalls", "open,setuid",
		})
	})
	if code != 0 {
		t.Fatalf("exit code = %d\n%s", code, out)
	}
	if !strings.Contains(out, "verdict: ✓") {
		t.Errorf("expected vulnerable verdict:\n%s", out)
	}

	out, code = capture(t, func() int {
		return run([]string{
			"-attack", "3",
			"-privs", "",
			"-syscalls", "socket,bind,connect",
		})
	})
	if code != 0 {
		t.Fatalf("exit code = %d", code)
	}
	if !strings.Contains(out, "verdict: ✗") {
		t.Errorf("expected safe verdict:\n%s", out)
	}
}

func TestRunBadFlags(t *testing.T) {
	if _, code := capture(t, func() int { return run([]string{"-privs", "CapBogus"}) }); code != 2 {
		t.Errorf("bad privs exit = %d, want 2", code)
	}
	if _, code := capture(t, func() int { return run([]string{"-uid", "1,2"}) }); code != 2 {
		t.Errorf("bad uid exit = %d, want 2", code)
	}
	if _, code := capture(t, func() int { return run([]string{"-nosuchflag"}) }); code != 2 {
		t.Errorf("bad flag exit = %d, want 2", code)
	}
}

func TestRunQueryFile(t *testing.T) {
	out, code := capture(t, func() int { return run([]string{"-query", "../../testdata/figure2.rosa"}) })
	if code != 0 {
		t.Fatalf("exit code = %d\n%s", code, out)
	}
	if !strings.Contains(out, "verdict: ✓") {
		t.Errorf("expected vulnerable verdict:\n%s", out)
	}
	if _, code := capture(t, func() int { return run([]string{"-query", "/no/such.rosa"}) }); code != 1 {
		t.Errorf("missing query file exit = %d, want 1", code)
	}
}

func TestRunMaudeOutput(t *testing.T) {
	out, code := capture(t, func() int { return run([]string{"-example", "-maude"}) })
	if code != 0 {
		t.Fatalf("exit code = %d", code)
	}
	for _, want := range []string{"(search in UNIX :", "=>* Z:Configuration", "such that (3 in H:Set{Int})"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunSimulate(t *testing.T) {
	out, code := capture(t, func() int {
		return run([]string{"-query", "../../testdata/figure2.rosa", "-simulate"})
	})
	if code != 0 {
		t.Fatalf("exit code = %d\n%s", code, out)
	}
	for _, want := range []string{"deterministic execution", "chown", "final state:"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunStatsFlag(t *testing.T) {
	out, code := capture(t, func() int { return run([]string{"-example", "-stats"}) })
	if code != 0 {
		t.Fatalf("exit code = %d\n%s", code, out)
	}
	for _, want := range []string{
		"states explored:", "dedup hits:", "frontier by depth:",
		"rule profile (by cumulative match latency)", "Cumulative",
		"open", "setuid",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("-stats output missing %q:\n%s", want, out)
		}
	}
}

// explainThttpd runs the thttpd_priv1 grid cell (Figure 9's first bar,
// attack 1) with -explain.
func explainThttpd(t *testing.T) string {
	t.Helper()
	out, code := capture(t, func() int {
		return run([]string{
			"-attack", "1",
			"-privs", "CapChown,CapSetgid,CapSetuid,CapNetBindService,CapSysChroot",
			"-uid", "1000,1000,1000",
			"-gid", "1000,1000,1000",
			"-explain",
		})
	})
	if code != 0 {
		t.Fatalf("exit code = %d\n%s", code, out)
	}
	return out
}

// TestRunExplainThttpd: the thttpd_priv1 attack-1 cell with -explain prints
// a step-annotated witness timeline, every step row with a discovery
// ordinal.
func TestRunExplainThttpd(t *testing.T) {
	out := explainThttpd(t)
	for _, want := range []string{
		"verdict: ✓",
		"attack found in 2 steps",
		"goal matched after 384 states, at depth 2",
		"step", "syscall", "depth", "frontier", "discovered",
		"chown", "open",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("-explain output missing %q:\n%s", want, out)
		}
	}
	rows := 0
	for _, line := range strings.Split(out, "\n") {
		fields := strings.Fields(line)
		if len(fields) >= 5 && (fields[0] == "1" || fields[0] == "2") && fields[2] == fields[0] {
			rows++
			if !strings.HasPrefix(fields[4], "#") {
				t.Errorf("step row missing its discovered ordinal: %q", line)
			}
		}
	}
	if rows != 2 {
		t.Errorf("%d step rows, want 2:\n%s", rows, out)
	}
}

// TestRunExplainGolden pins the whole -explain block of the thttpd_priv1
// attack-1 cell: Frontier [1 382], 384 states. Chown sits in level 1,
// states #2–#383; open is the goal, the 384th state.
func TestRunExplainGolden(t *testing.T) {
	const want = `attack found in 2 steps (384 states explored)
goal matched after 384 states, at depth 2
step  syscall        depth  frontier      discovered  state
   1  chown              1         1         #2–#383  {Dir(2,"/dev",493,0,0,3) File(3,"/dev/mem",416,998,1000)…
   2  open               2       382            #384  {Dir(2,"/dev",493,0,0,3) File(3,"/dev/mem",416,998,1000)…
`
	out := explainThttpd(t)
	i := strings.Index(out, "attack found in")
	if i < 0 {
		t.Fatalf("no -explain block:\n%s", out)
	}
	if got := out[i:]; got != want {
		t.Errorf("-explain block:\n%s\nwant:\n%s", got, want)
	}
}

func TestRunExplainSafe(t *testing.T) {
	out, code := capture(t, func() int {
		return run([]string{
			"-attack", "3",
			"-privs", "",
			"-syscalls", "socket,bind,connect",
			"-explain",
		})
	})
	if code != 0 {
		t.Fatalf("exit code = %d\n%s", code, out)
	}
	if !strings.Contains(out, "no witness to explain") {
		t.Errorf("safe -explain must say there is no witness:\n%s", out)
	}
}

// TestRunExplainBudget: -explain on a ⏱ names the bound that stopped the
// search, by the flag that raises it.
func TestRunExplainBudget(t *testing.T) {
	out, code := capture(t, func() int { return run([]string{"-example", "-budget", "2", "-explain"}) })
	if code != 0 {
		t.Fatalf("exit code = %d\n%s", code, out)
	}
	if !strings.Contains(out, "verdict: ⏱") || !strings.Contains(out, "raise -budget") {
		t.Errorf("a 2-state budget ⏱ must point at -budget:\n%s", out)
	}
	if strings.Contains(out, "-max-states") {
		t.Errorf("-explain names -max-states, which no binary has:\n%s", out)
	}
}

// TestRunTraceOut: the exported file must parse as Chrome Trace Event JSON
// with the rosa.query span and the search's progress counter track, and
// no instant events.
func TestRunTraceOut(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	out, code := capture(t, func() int {
		return run([]string{"-example", "-trace-out", path})
	})
	if code != 0 {
		t.Fatalf("exit code = %d\n%s", code, out)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			TS   float64 `json:"ts"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(data, &trace); err != nil {
		t.Fatalf("-trace-out did not produce valid JSON: %v", err)
	}
	if trace.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q, want ms", trace.DisplayTimeUnit)
	}
	phases := map[string]int{}
	names := map[string]bool{}
	for _, ev := range trace.TraceEvents {
		phases[ev.Ph]++
		names[ev.Name] = true
		if ev.TS < 0 {
			t.Errorf("negative timestamp on %q", ev.Name)
		}
	}
	if phases["X"] == 0 || !names["rosa.query"] {
		t.Errorf("trace missing the rosa.query span: phases %v", phases)
	}
	if phases["C"] == 0 || !names["search"] {
		t.Errorf("trace missing the search counter track: phases %v, names %v", phases, names)
	}
	if phases["i"] != 0 {
		t.Errorf("trace has %d instant events, want none", phases["i"])
	}
	if phases["M"] == 0 {
		t.Errorf("trace missing thread metadata: phases %v", phases)
	}
}

func TestRunTimeoutFlag(t *testing.T) {
	// A generous deadline the tiny example cannot hit: the flag must parse
	// and the verdict must be unaffected.
	out, code := capture(t, func() int { return run([]string{"-example", "-timeout", "1m"}) })
	if code != 0 {
		t.Fatalf("exit code = %d\n%s", code, out)
	}
	if !strings.Contains(out, "verdict: ✓") {
		t.Errorf("expected the worked example's ✓ verdict:\n%s", out)
	}
}

// TestRunBudgetStarved is the CLI budget path: a starved run reports the
// unknown verdict (⏱), and an explicit full budget lands on the verdict and
// witness of a run at the default budget.
func TestRunBudgetStarved(t *testing.T) {
	const queryFile = "../../testdata/figure2.rosa"

	ref, code := capture(t, func() int { return run([]string{"-query", queryFile}) })
	if code != 0 {
		t.Fatalf("reference run exit = %d\n%s", code, ref)
	}
	if !strings.Contains(ref, "verdict: ✓") {
		t.Fatalf("reference run not vulnerable:\n%s", ref)
	}

	out, code := capture(t, func() int {
		return run([]string{"-query", queryFile, "-budget", "2"})
	})
	if code != 0 {
		t.Fatalf("starved run exit = %d\n%s", code, out)
	}
	if !strings.Contains(out, "verdict: ⏱") {
		t.Fatalf("2-state budget did not truncate:\n%s", out)
	}

	out, code = capture(t, func() int {
		return run([]string{"-query", queryFile, "-budget", strconv.Itoa(rosa.DefaultMaxStates)})
	})
	if code != 0 {
		t.Fatalf("full-budget run exit = %d\n%s", code, out)
	}
	if !strings.Contains(out, "verdict: ✓") {
		t.Errorf("full-budget verdict differs from the reference run:\n%s", out)
	}
	if witness(out) != witness(ref) {
		t.Errorf("full-budget witness:\n%s\nreference witness:\n%s", witness(out), witness(ref))
	}
}

// witness extracts the witness block for comparison across runs.
func witness(out string) string {
	i := strings.Index(out, "witness (attack syscall sequence):")
	if i < 0 {
		return ""
	}
	return out[i:]
}

// TestRunEscalateFlag: -escalate tuned the retired budget-escalation
// ladder; a query now runs once at -budget, and the flag is unknown.
func TestRunEscalateFlag(t *testing.T) {
	for _, v := range []string{"off", "2:2"} {
		out, code := capture(t, func() int { return run([]string{"-example", "-escalate", v}) })
		if code != 2 {
			t.Errorf("-escalate %s exit = %d, want 2 (unknown flag)\n%s", v, code, out)
		}
	}
}

// TestRunMemBudgetFlag: -mem-budget set the retired memory-budget ladder;
// -budget is a search's one state bound now, and the flag is unknown.
func TestRunMemBudgetFlag(t *testing.T) {
	for _, v := range []string{"1", "30000"} {
		out, code := capture(t, func() int { return run([]string{"-example", "-mem-budget", v}) })
		if code != 2 {
			t.Errorf("-mem-budget %s exit = %d, want 2 (unknown flag)\n%s", v, code, out)
		}
	}
}

// TestRunWorkersFlag: -workers sized the retired per-search worker pool;
// every search now runs on one goroutine, and the flag is unknown.
func TestRunWorkersFlag(t *testing.T) {
	for _, v := range []string{"1", "4"} {
		out, code := capture(t, func() int { return run([]string{"-example", "-workers", v}) })
		if code != 2 {
			t.Errorf("-workers %s exit = %d, want 2 (unknown flag)\n%s", v, code, out)
		}
	}
}
