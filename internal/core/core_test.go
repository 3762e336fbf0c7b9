package core

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"

	"privanalyzer/internal/attacks"
	"privanalyzer/internal/programs"
	"privanalyzer/internal/rewrite"
	"privanalyzer/internal/rosa"
)

// analyzeByName runs the pipeline for one program.
func analyzeByName(t *testing.T, name string) *Analysis {
	t.Helper()
	p, err := programs.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	a, err := Analyze(p, Options{Parallel: true})
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// assertMatchesPaper fails on any deviation from the paper's table cells.
func assertMatchesPaper(t *testing.T, a *Analysis) {
	t.Helper()
	for _, m := range a.Mismatches() {
		t.Error(m)
	}
	if t.Failed() {
		t.Logf("full analysis:\n%s", a)
	}
}

// TestTableIII reproduces every cell of Table III: per-phase privilege sets,
// credentials, dynamic instruction counts, and the 4 attack verdicts for the
// five original programs.
func TestTableIII(t *testing.T) {
	if testing.Short() {
		t.Skip("full Table III reproduction is expensive; run without -short")
	}
	for _, name := range []string{"thttpd", "passwd", "su", "ping", "sshd"} {
		name := name
		t.Run(name, func(t *testing.T) {
			assertMatchesPaper(t, analyzeByName(t, name))
		})
	}
}

// TestTableV reproduces Table V for the refactored programs (⏱ cells accept
// Safe or Unknown, see Mismatches).
func TestTableV(t *testing.T) {
	for _, name := range []string{"passwdRef", "suRef"} {
		name := name
		t.Run(name, func(t *testing.T) {
			assertMatchesPaper(t, analyzeByName(t, name))
		})
	}
}

// TestVulnerableShares checks the §VII headline numbers: passwd and su
// retain the ability to read and write /dev/mem for most of their execution;
// the refactored versions for almost none of it.
func TestVulnerableShares(t *testing.T) {
	passwd := analyzeByName(t, "passwd")
	// Attacks 1/2 possible for priv1..4 = 99.77% of execution; attack 4 for
	// priv1+2+3 = 63.02%.
	if s := passwd.VulnerableShare[0]; s < 99.0 {
		t.Errorf("passwd attack1 share = %.2f%%, want >= 99%%", s)
	}
	if s := passwd.VulnerableShare[3]; s < 62.0 || s > 64.0 {
		t.Errorf("passwd attack4 share = %.2f%%, want ≈ 63%% (§VII-C)", s)
	}
	if s := passwd.VulnerableShare[2]; s != 0 {
		t.Errorf("passwd attack3 share = %.2f%%, want 0", s)
	}

	su := analyzeByName(t, "su")
	// §VII-C: su is vulnerable to attacks 1, 2, and 4 for 88% of execution.
	for _, i := range []int{0, 1, 3} {
		if s := su.VulnerableShare[i]; s < 87.0 || s > 89.0 {
			t.Errorf("su attack%d share = %.2f%%, want ≈ 88%%", i+1, s)
		}
	}

	passwdRef := analyzeByName(t, "passwdRef")
	// §VII-D1: refactored passwd is invulnerable to all modeled attacks for
	// 96% of its execution; powerful-privilege window ≈ 4%.
	if s := passwdRef.VulnerableShare[0]; s > 4.1 {
		t.Errorf("passwdRef attack1 share = %.2f%%, want <= 4.1%%", s)
	}
	if s := passwdRef.VulnerableShare[1]; s > 4.0 {
		t.Errorf("passwdRef attack2 share = %.2f%%, want <= 4%%", s)
	}

	suRef := analyzeByName(t, "suRef")
	// §VII-D2: the refactored su cannot launch the modeled attacks for at
	// least 99% of execution under the paper's likely-invulnerable reading
	// of its timeouts.
	if s := suRef.VulnerableShare[1]; s > 1.1 {
		t.Errorf("suRef attack2 share = %.2f%%, want ≈ 1%%", s)
	}
}

// TestRefactoringImprovement is the paper's abstract in one assertion: the
// refactored programs shrink the read+write /dev/mem window dramatically.
func TestRefactoringImprovement(t *testing.T) {
	before := analyzeByName(t, "su")
	after := analyzeByName(t, "suRef")
	if b, a := before.VulnerableShare[1], after.VulnerableShare[1]; a >= b/10 {
		t.Errorf("su write-devmem share: before %.2f%%, after %.2f%%; want >= 10x reduction", b, a)
	}
}

func TestAnalyzeSubsetOfAttacks(t *testing.T) {
	p, err := programs.Ping()
	if err != nil {
		t.Fatal(err)
	}
	a, err := Analyze(p, Options{Attacks: []attacks.ID{attacks.BindPrivPort}})
	if err != nil {
		t.Fatal(err)
	}
	for _, pr := range a.Phases {
		if pr.Verdicts[0] != 0 || pr.Verdicts[3] != 0 {
			t.Error("attacks outside the subset were run")
		}
		if pr.Verdicts[2] != rosa.Safe {
			t.Errorf("ping %s attack3 = %s, want ✗", pr.Spec.Name, pr.Verdicts[2])
		}
	}
}

func TestTinyBudgetYieldsUnknown(t *testing.T) {
	p, err := programs.Passwd()
	if err != nil {
		t.Fatal(err)
	}
	a, err := Analyze(p, Options{
		Search:  rewrite.Options{MaxStates: 2},
		Attacks: []attacks.ID{attacks.ReadDevMem},
	})
	if err != nil {
		t.Fatal(err)
	}
	// With a 2-state budget every non-trivial query truncates.
	sawUnknown := false
	for _, pr := range a.Phases {
		if pr.Verdicts[0] == rosa.Unknown {
			sawUnknown = true
		}
	}
	if !sawUnknown {
		t.Error("expected ⏱ verdicts under a 2-state budget")
	}
}

func TestSearchCostShape(t *testing.T) {
	// §VIII: verdicts for possible attacks come fast; impossible attacks
	// must exhaust the space. Compare states explored for su_priv1
	// (vulnerable to attack 1) and su_priv6 (invulnerable, the paper's
	// ~40 s outlier in Figure 8).
	a := analyzeByName(t, "su")
	var priv1, priv6 *PhaseResult
	for i := range a.Phases {
		switch a.Phases[i].Spec.Name {
		case "su_priv1":
			priv1 = &a.Phases[i]
		case "su_priv6":
			priv6 = &a.Phases[i]
		}
	}
	if priv1 == nil || priv6 == nil {
		t.Fatal("phases missing")
	}
	if priv1.Verdicts[0] != rosa.Vulnerable || priv6.Verdicts[0] != rosa.Safe {
		t.Fatalf("verdicts = %s/%s", priv1.Verdicts[0], priv6.Verdicts[0])
	}
	if priv1.States[0] >= priv6.States[0] {
		t.Errorf("vulnerable phase explored %d states, safe phase %d; want fewer for the found attack",
			priv1.States[0], priv6.States[0])
	}
}

func TestCompareRefactoring(t *testing.T) {
	before := analyzeByName(t, "su")
	after := analyzeByName(t, "suRef")
	d := Compare(before, after)
	if !d.Improved() {
		t.Errorf("refactoring should be a strict improvement:\n%s", d)
	}
	if len(d.NewlyVulnerable) != 0 {
		t.Errorf("refactoring opened attacks: %v", d.NewlyVulnerable)
	}
	s := d.String()
	for _, want := range []string{"su -> suRef", "improved", "attack 1"} {
		if !strings.Contains(s, want) {
			t.Errorf("delta report missing %q:\n%s", want, s)
		}
	}
}

func TestCompareRegression(t *testing.T) {
	// Comparing in the wrong direction must flag regressions, not
	// improvements.
	before := analyzeByName(t, "suRef")
	after := analyzeByName(t, "su")
	d := Compare(before, after)
	if d.Improved() {
		t.Error("reverse comparison reported an improvement")
	}
	if !strings.Contains(d.String(), "REGRESSED") {
		t.Errorf("delta report missing regression marker:\n%s", d)
	}
}

func TestCompareIdentity(t *testing.T) {
	a := analyzeByName(t, "ping")
	d := Compare(a, a)
	if d.Improved() {
		t.Error("self-comparison cannot be an improvement")
	}
	if len(d.NewlyVulnerable) != 0 || len(d.NewlySafe) != 0 {
		t.Errorf("self-comparison changed attack sets: %+v", d)
	}
}

func TestParallelMatchesSequential(t *testing.T) {
	p, err := programs.Su()
	if err != nil {
		t.Fatal(err)
	}
	seq, err := Analyze(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	par, err := Analyze(p, Options{Parallel: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(seq.Phases) != len(par.Phases) {
		t.Fatalf("phase counts differ")
	}
	for i := range seq.Phases {
		if seq.Phases[i].Verdicts != par.Phases[i].Verdicts {
			t.Errorf("phase %d verdicts differ: %v vs %v",
				i, seq.Phases[i].Verdicts, par.Phases[i].Verdicts)
		}
		if seq.Phases[i].States != par.Phases[i].States {
			t.Errorf("phase %d states differ: %v vs %v",
				i, seq.Phases[i].States, par.Phases[i].States)
		}
	}
	if seq.VulnerableShare != par.VulnerableShare {
		t.Errorf("shares differ: %v vs %v", seq.VulnerableShare, par.VulnerableShare)
	}
}

// TestWorkersEquivalenceGrid runs every ROSA query behind Tables III and V —
// all programs, all phases, all four attacks — once sequentially and once
// with 4 search workers, and requires byte-identical verdicts, witnesses,
// and state counts. This is the engine's determinism guarantee checked on
// the real query set rather than toy systems. The sequential column must
// also match the per-cell pin in testdata/grid.golden.
func TestWorkersEquivalenceGrid(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full Table III/V query grid twice")
	}
	var grid []gridCell
	for _, name := range programs.Names() {
		p, err := programs.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		inv := p.Syscalls()
		for _, ph := range p.Phases {
			creds := rosa.Creds{
				RUID: ph.UID[0], EUID: ph.UID[1], SUID: ph.UID[2],
				RGID: ph.GID[0], EGID: ph.GID[1], SGID: ph.GID[2],
			}
			for _, id := range attacks.All {
				runWith := func(workers int) *rosa.Result {
					q := attacks.Build(id, inv, creds, ph.Privs)
					q.MaxStates = DefaultMaxStates
					q.Workers = workers
					res, err := q.Run()
					if err != nil {
						t.Fatalf("%s %s attack%d: %v", name, ph.Name, id, err)
					}
					return res
				}
				seq := runWith(1)
				par := runWith(4)
				grid = append(grid, gridCell{name, ph.Name, int(id), seq.Verdict.String(), seq.StatesExplored})
				if seq.Verdict != par.Verdict || seq.StatesExplored != par.StatesExplored {
					t.Errorf("%s %s attack%d: sequential (%s, %d states) vs parallel (%s, %d states)",
						name, ph.Name, id, seq.Verdict, seq.StatesExplored,
						par.Verdict, par.StatesExplored)
				}
				if len(seq.Witness) != len(par.Witness) {
					t.Errorf("%s %s attack%d: witness lengths %d vs %d",
						name, ph.Name, id, len(seq.Witness), len(par.Witness))
					continue
				}
				for i := range seq.Witness {
					if seq.Witness[i].Rule != par.Witness[i].Rule ||
						!seq.Witness[i].Result.Equal(par.Witness[i].Result) {
						t.Errorf("%s %s attack%d: witness step %d differs (%s vs %s)",
							name, ph.Name, id, i, seq.Witness[i].Rule, par.Witness[i].Rule)
					}
				}
			}
		}
	}
	checkGridGolden(t, grid)
}

var update = flag.Bool("update", false, "rewrite testdata/grid.golden from the sequential grid run")

// gridGolden pins the Figure 5-11 grid: one line per (program, phase,
// attack) cell with its verdict and state count, in grid order.
const gridGolden = "testdata/grid.golden"

// gridCell is one line of the grid golden.
type gridCell struct {
	program, phase string
	attack         int
	verdict        string
	states         int
}

func (c gridCell) String() string {
	return fmt.Sprintf("%s %s %d %s %d", c.program, c.phase, c.attack, c.verdict, c.states)
}

func (c gridCell) key() string {
	return fmt.Sprintf("%s/%s/a%d", c.program, c.phase, c.attack)
}

// readGridGolden parses the golden, rejecting malformed lines.
func readGridGolden(t *testing.T) []gridCell {
	t.Helper()
	data, err := os.ReadFile(gridGolden)
	if err != nil {
		t.Fatal(err)
	}
	var cells []gridCell
	for i, line := range strings.Split(strings.TrimSuffix(string(data), "\n"), "\n") {
		f := strings.Fields(line)
		if len(f) != 5 {
			t.Fatalf("%s:%d: want \"program phase attack verdict states\", got %q", gridGolden, i+1, line)
		}
		attack, err1 := strconv.Atoi(f[2])
		states, err2 := strconv.Atoi(f[4])
		if err1 != nil || err2 != nil {
			t.Fatalf("%s:%d: bad attack or state count in %q", gridGolden, i+1, line)
		}
		cells = append(cells, gridCell{f[0], f[1], attack, f[3], states})
	}
	return cells
}

// checkGridGolden compares a grid run against the golden cell by cell: a
// missing cell (a repeated golden line counts as one), an extra cell, or a
// changed verdict or state count fails, naming the cell and the old -> new
// value. -update rewrites the golden.
func checkGridGolden(t *testing.T, got []gridCell) {
	t.Helper()
	if *update {
		var b strings.Builder
		for _, c := range got {
			fmt.Fprintln(&b, c)
		}
		if err := os.WriteFile(gridGolden, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	var drift []string
	byKey := make(map[string]gridCell, len(got))
	for _, c := range got {
		byKey[c.key()] = c
	}
	for _, w := range readGridGolden(t) {
		g, ok := byKey[w.key()]
		delete(byKey, w.key())
		if !ok {
			drift = append(drift, fmt.Sprintf("%s missing (golden: %s %d)", w.key(), w.verdict, w.states))
			continue
		}
		if g.verdict != w.verdict {
			drift = append(drift, fmt.Sprintf("%s verdict %s -> %s", w.key(), w.verdict, g.verdict))
		}
		if g.states != w.states {
			drift = append(drift, fmt.Sprintf("%s states %d -> %d", w.key(), w.states, g.states))
		}
	}
	for _, c := range got {
		if _, extra := byKey[c.key()]; extra {
			drift = append(drift, fmt.Sprintf("%s not in the golden (%s %d)", c.key(), c.verdict, c.states))
		}
	}
	if len(drift) > 0 {
		t.Errorf("grid drifted from %s (rerun with -update to accept a deliberate change):\n  %s",
			gridGolden, strings.Join(drift, "\n  "))
	}
}

// TestAnalyzeContextDeadline: an already-expired deadline turns every query
// Unknown but still yields a complete, well-formed analysis.
func TestAnalyzeContextDeadline(t *testing.T) {
	p, err := programs.Su()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	a, err := AnalyzeContext(ctx, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Phases) == 0 {
		t.Fatal("no phases analysed")
	}
	for _, pr := range a.Phases {
		for i, v := range pr.Verdicts {
			if v != rosa.Unknown {
				t.Errorf("%s attack%d: verdict %s, want ⏱ under a cancelled context",
					pr.Spec.Name, i+1, v)
			}
		}
	}
	if a.VulnerableShare != [4]float64{} {
		t.Errorf("vulnerable shares %v, want zeros (Unknown counts as not vulnerable)",
			a.VulnerableShare)
	}
}

// TestAnalyzeStatsAttached: the per-query statistics surface reaches the
// analysis layer.
func TestAnalyzeStatsAttached(t *testing.T) {
	p, err := programs.Su()
	if err != nil {
		t.Fatal(err)
	}
	a, err := Analyze(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, pr := range a.Phases {
		for i, v := range pr.Verdicts {
			if v == 0 {
				continue
			}
			if pr.Stats[i] == nil {
				t.Fatalf("%s attack%d: no stats", pr.Spec.Name, i+1)
			}
			if pr.Stats[i].StatesExplored != pr.States[i] {
				t.Errorf("%s attack%d: stats states %d != recorded states %d",
					pr.Spec.Name, i+1, pr.Stats[i].StatesExplored, pr.States[i])
			}
		}
	}
}

// TestSharedCheckerMatchesFresh: injecting a long-lived Checker (the
// privanalyzerd serving path) changes performance, never results — repeat
// analyses against one warm checker return the same verdicts, state counts,
// and witnesses as a cold per-call checker.
func TestSharedCheckerMatchesFresh(t *testing.T) {
	p, err := programs.Su()
	if err != nil {
		t.Fatal(err)
	}
	ref, err := Analyze(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	shared := rosa.NewChecker()
	for run := 0; run < 2; run++ {
		a, err := Analyze(p, Options{Checker: shared})
		if err != nil {
			t.Fatal(err)
		}
		for i, pr := range a.Phases {
			if pr.Verdicts != ref.Phases[i].Verdicts {
				t.Errorf("run %d %s: verdicts %v, fresh checker got %v",
					run, pr.Spec.Name, pr.Verdicts, ref.Phases[i].Verdicts)
			}
			if pr.States != ref.Phases[i].States {
				t.Errorf("run %d %s: states %v, fresh checker got %v",
					run, pr.Spec.Name, pr.States, ref.Phases[i].States)
			}
			for j := range pr.Witnesses {
				if len(pr.Witnesses[j]) != len(ref.Phases[i].Witnesses[j]) {
					t.Errorf("run %d %s attack%d: witness length %d, fresh checker got %d",
						run, pr.Spec.Name, j+1,
						len(pr.Witnesses[j]), len(ref.Phases[i].Witnesses[j]))
				}
			}
		}
	}
}
