package report

import (
	"errors"
	"strings"
	"testing"

	"privanalyzer/internal/core"
	"privanalyzer/internal/programs"
	"privanalyzer/internal/rosa"
)

func TestTableI(t *testing.T) {
	s := TableI()
	for _, want := range []string{
		"TABLE I",
		"Read from /dev/mem",
		"Write to /dev/mem",
		"privileged port",
		"SIGKILL",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("TableI missing %q:\n%s", want, s)
		}
	}
}

func TestTableII(t *testing.T) {
	ping, err := programs.Ping()
	if err != nil {
		t.Fatal(err)
	}
	pr, err := programs.PasswdRefactored()
	if err != nil {
		t.Fatal(err)
	}
	s := TableII([]*programs.Program{ping, pr})
	if !strings.Contains(s, "ping") || !strings.Contains(s, "12202") {
		t.Errorf("TableII missing ping row:\n%s", s)
	}
	if strings.Contains(s, "passwdRef") {
		t.Errorf("TableII must exclude refactored variants:\n%s", s)
	}
}

func TestTableIV(t *testing.T) {
	pr, err := programs.PasswdRefactored()
	if err != nil {
		t.Fatal(err)
	}
	sr, err := programs.SuRefactored()
	if err != nil {
		t.Fatal(err)
	}
	s := TableIV([]*programs.Program{pr, sr})
	for _, want := range []string{"TABLE IV", "passwd.c", "su.c", "shadow library code", "76", "35"} {
		if !strings.Contains(s, want) {
			t.Errorf("TableIV missing %q:\n%s", want, s)
		}
	}
}

func TestEfficacyTableAndSearchTimes(t *testing.T) {
	p, err := programs.Ping()
	if err != nil {
		t.Fatal(err)
	}
	a, err := core.Analyze(p, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := EfficacyTable("TABLE III (ping fragment)", []*core.Analysis{a})
	for _, want := range []string{"ping_priv1", "CapNetAdmin", "✗", "97.21"} {
		if !strings.Contains(s, want) {
			t.Errorf("EfficacyTable missing %q:\n%s", want, s)
		}
	}
	st := SearchTimes(a)
	for _, want := range []string{"ping_priv3", "States", "Verdict"} {
		if !strings.Contains(st, want) {
			t.Errorf("SearchTimes missing %q:\n%s", want, st)
		}
	}
}

func TestFigureChart(t *testing.T) {
	p, err := programs.Ping()
	if err != nil {
		t.Fatal(err)
	}
	a, err := core.Analyze(p, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := FigureChart(a)
	for _, want := range []string{"ping_priv1", "attack1", "attack4", "█", "states"} {
		if !strings.Contains(s, want) {
			t.Errorf("FigureChart missing %q:\n%s", want, s)
		}
	}
}

func TestCompareSummary(t *testing.T) {
	p, err := programs.Ping()
	if err != nil {
		t.Fatal(err)
	}
	a, err := core.Analyze(p, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	c := Compare([]*core.Analysis{a})
	if !c.Clean() {
		t.Fatalf("ping comparison not clean:\n%s", c)
	}
	if c.CountCells != 3 || c.VerdictCells != 12 {
		t.Errorf("cells = %d/%d, want 3/12", c.CountCells, c.VerdictCells)
	}
	if !strings.Contains(c.String(), "reproduction matches the paper") {
		t.Errorf("summary:\n%s", c)
	}

	// A deliberately broken expectation shows up as a mismatch.
	a.Phases[0].Spec.Instructions++
	bad := Compare([]*core.Analysis{a})
	if bad.Clean() {
		t.Error("tampered expectation still clean")
	}
	if !strings.Contains(bad.String(), "deviation") {
		t.Errorf("summary missing deviation:\n%s", bad)
	}
}

// TestExplainUnknownCause: -explain on a ⏱ names the bound that stopped the
// search — a fault, the deadline or the state budget.
func TestExplainUnknownCause(t *testing.T) {
	for _, tc := range []struct {
		res  rosa.Result
		want string
	}{
		{rosa.Result{Err: errors.New("boom"), Interrupted: true}, "faulted before reaching a verdict: boom"},
		{rosa.Result{Interrupted: true}, "raise -timeout"},
		{rosa.Result{}, "raise -budget"},
	} {
		tc.res.Verdict = rosa.Unknown
		if got := ExplainWitness(&tc.res); !strings.Contains(got, tc.want) {
			t.Errorf("%+v: explanation %q does not say %q", tc.res, got, tc.want)
		}
	}
}
