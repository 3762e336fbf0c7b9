package programs

import (
	"context"
	"sort"
	"strings"
	"testing"

	"privanalyzer/internal/autopriv"
	"privanalyzer/internal/chronopriv"
	"privanalyzer/internal/interp"
	"privanalyzer/internal/ir"
)

// fast programs for cheap tests (the full set including sshd/thttpd runs in
// TestAllCalibrated).
var fastPrograms = []func() (*Program, error){Passwd, Su, Ping, PasswdRefactored, SuRefactored}

func TestWorkEmitsExactCounts(t *testing.T) {
	for _, n := range []int64{1, 2, 5, 39, 40, 41, 100, 1234, 50000} {
		b := ir.NewModuleBuilder("m")
		f := b.Func("main")
		f.Block("entry").Jmp("w")
		work(f, "w", n, "done")
		f.Block("done").Ret()
		m := b.MustBuild()

		p := &Program{Name: "t", InitialUID: 0, InitialGID: 0}
		rep, _, _, err := measure(context.Background(), m, p, false)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		// entry jmp + prctl + work(n) + ret = n + 3.
		if rep.Total != n+3 {
			t.Errorf("work(%d): total = %d, want %d", n, rep.Total, n+3)
		}
	}
}

func TestFastProgramsCalibrated(t *testing.T) {
	for _, build := range fastPrograms {
		p, err := build()
		if err != nil {
			t.Fatalf("build: %v", err)
		}
		t.Run(p.Name, func(t *testing.T) {
			if err := p.verifyCalibration(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestPhasePercentagesMatchPaper(t *testing.T) {
	// The paper's percentages are derivable from the counts; check our
	// specs are internally consistent with the printed percentages to
	// ±0.01 (their rounding).
	for _, build := range []func() (*Program, error){Passwd, Su, Ping} {
		p, err := build()
		if err != nil {
			t.Fatal(err)
		}
		var total int64
		for _, ph := range p.Phases {
			total += ph.Instructions
		}
		for _, ph := range p.Phases {
			got := 100 * float64(ph.Instructions) / float64(total)
			if diff := got - ph.Percent; diff > 0.011 || diff < -0.011 {
				t.Errorf("%s %s: computed %.3f%%, paper says %.2f%%",
					p.Name, ph.Name, got, ph.Percent)
			}
		}
	}
}

func TestSyscallInventories(t *testing.T) {
	tests := []struct {
		build    func() (*Program, error)
		want     []string // must be present
		excluded []string // must be absent
	}{
		{Passwd, []string{"open", "chown", "unlink", "rename", "setuid", "kill"}, []string{"socket", "bind", "chmod"}},
		{Su, []string{"open", "setuid", "setgid", "setegid", "kill"}, []string{"socket", "chown"}},
		{Ping, []string{"open", "socket"}, []string{"bind", "kill", "setuid"}},
		{PasswdRefactored, []string{"open", "setresuid", "setegid", "unlink", "rename", "kill"}, []string{"chown", "socket"}},
		{SuRefactored, []string{"open", "setresuid", "setresgid", "kill"}, []string{"chown", "socket"}},
	}
	for _, tt := range tests {
		p, err := tt.build()
		if err != nil {
			t.Fatal(err)
		}
		inv := p.Syscalls()
		has := make(map[string]bool, len(inv))
		for _, s := range inv {
			has[s] = true
		}
		for _, s := range tt.want {
			if !has[s] {
				t.Errorf("%s inventory missing %s (have %v)", p.Name, s, inv)
			}
		}
		for _, s := range tt.excluded {
			if has[s] {
				t.Errorf("%s inventory should not contain %s", p.Name, s)
			}
		}
	}
}

func TestNoPermissionFailuresDuringWorkloads(t *testing.T) {
	// Every syscall the workload actually executes must succeed: the
	// models raise the right privileges around the operations that need
	// them, like the AutoPriv-annotated originals.
	for _, build := range fastPrograms {
		p, err := build()
		if err != nil {
			t.Fatal(err)
		}
		t.Run(p.Name, func(t *testing.T) {
			ares, err := autopriv.Analyze(p.Module, autopriv.Options{})
			if err != nil {
				t.Fatal(err)
			}
			k := p.NewKernel(ares.RequiredPermitted)
			k.TraceEnabled = true
			if _, err := interp.Run(ares.Module, k, interp.Options{MainArgs: p.MainArgs}); err != nil {
				t.Fatal(err)
			}
			for _, ev := range k.Trace {
				if ev.Err != "" {
					t.Errorf("%s(%s) failed: %s", ev.Name, ev.Args, ev.Err)
				}
			}
		})
	}
}

func TestRequiredPermittedMatchesFirstPhase(t *testing.T) {
	for _, build := range fastPrograms {
		p, err := build()
		if err != nil {
			t.Fatal(err)
		}
		_, ares, err := p.Measure()
		if err != nil {
			t.Fatal(err)
		}
		first := p.Phases[p.ChronologicalOrder[0]]
		if ares.RequiredPermitted != first.Privs {
			t.Errorf("%s: RequiredPermitted = %s, want %s",
				p.Name, ares.RequiredPermitted, first.Privs)
		}
	}
}

func TestByNameAndNames(t *testing.T) {
	for _, name := range Names() {
		if name == "sshd" || name == "thttpd" {
			continue // covered by TestAllCalibrated; expensive
		}
		p, err := ByName(name)
		if err != nil {
			t.Fatalf("ByName(%q): %v", name, err)
		}
		if p.Name != name {
			t.Errorf("ByName(%q).Name = %q", name, p.Name)
		}
	}
	if _, err := ByName("emacs"); err == nil {
		t.Error("ByName should reject unknown names")
	}
}

func TestSuPhaseOrderChronology(t *testing.T) {
	p, err := Su()
	if err != nil {
		t.Fatal(err)
	}
	rep, _, err := p.Measure()
	if err != nil {
		t.Fatal(err)
	}
	// Observed phases arrive in chronological order; check they map to the
	// declared ChronologicalOrder.
	if len(rep.Phases) != len(p.ChronologicalOrder) {
		t.Fatalf("observed %d phases, want %d", len(rep.Phases), len(p.ChronologicalOrder))
	}
	for i, specIdx := range p.ChronologicalOrder {
		want := p.Phases[specIdx].Key()
		if got := rep.Phases[i].Key(); got != want {
			t.Errorf("chronological position %d: got %v, want %s", i, got, p.Phases[specIdx].Name)
		}
	}
}

func TestRefactoredMetadata(t *testing.T) {
	pr, err := PasswdRefactored()
	if err != nil {
		t.Fatal(err)
	}
	if !pr.Refactored {
		t.Error("passwdRef not marked refactored")
	}
	if pr.LoCChanged["passwd.c"] != [2]int{23, 13} {
		t.Errorf("passwd.c LoC = %v", pr.LoCChanged["passwd.c"])
	}
	if pr.LoCChanged["shadow library code"] != [2]int{7, 76} {
		t.Errorf("shadow library LoC = %v", pr.LoCChanged["shadow library code"])
	}
	sr, err := SuRefactored()
	if err != nil {
		t.Fatal(err)
	}
	if sr.LoCChanged["su.c"] != [2]int{35, 6} {
		t.Errorf("su.c LoC = %v", sr.LoCChanged["su.c"])
	}
}

func TestHeadlineResult(t *testing.T) {
	// §I and the abstract: refactoring reduces the share of execution in
	// which /dev/mem can be read and written from 97%/88% to 4%/1%.
	share := func(p *Program) float64 {
		var total, vulnerable int64
		for _, ph := range p.Phases {
			total += ph.Instructions
			if ph.Vuln[0] == Yes && ph.Vuln[1] == Yes {
				vulnerable += ph.Instructions
			}
		}
		return 100 * float64(vulnerable) / float64(total)
	}
	passwd, err := Passwd()
	if err != nil {
		t.Fatal(err)
	}
	su, err := Su()
	if err != nil {
		t.Fatal(err)
	}
	passwdRef, err := PasswdRefactored()
	if err != nil {
		t.Fatal(err)
	}
	suRef, err := SuRefactored()
	if err != nil {
		t.Fatal(err)
	}
	// passwd: priv1+priv2+priv3 vulnerable to both = 3.81+0.06+59.15+36.75
	// (priv4 also read+write vulnerable) ≈ 99.8%; the abstract's 97% refers
	// to one of the two programs; assert the before/after contrast instead.
	if s := share(passwd); s < 88 {
		t.Errorf("original passwd rw-vulnerable share = %.1f%%, want >= 88%%", s)
	}
	if s := share(su); s < 85 {
		t.Errorf("original su rw-vulnerable share = %.1f%%, want >= 85%%", s)
	}
	if s := share(passwdRef); s > 4.0 {
		t.Errorf("refactored passwd rw-vulnerable share = %.2f%%, want <= 4%%", s)
	}
	if s := share(suRef); s > 1.0 {
		t.Errorf("refactored su rw-vulnerable share = %.2f%%, want <= 1%%", s)
	}
}

func TestInventoryDeterministic(t *testing.T) {
	p1, err := Passwd()
	if err != nil {
		t.Fatal(err)
	}
	p2, err := Passwd()
	if err != nil {
		t.Fatal(err)
	}
	a, b := p1.Syscalls(), p2.Syscalls()
	sort.Strings(a)
	sort.Strings(b)
	if strings.Join(a, ",") != strings.Join(b, ",") {
		t.Errorf("inventories differ: %v vs %v", a, b)
	}
}

func TestAllCalibrated(t *testing.T) {
	// Includes sshd (~63M dynamic instructions) and thttpd (~48M): the two
	// big Table III workloads.
	if testing.Short() {
		t.Skip("skipping full-workload calibration in -short mode")
	}
	all, err := All()
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 7 {
		t.Fatalf("All() = %d programs, want 7", len(all))
	}
	for _, p := range all {
		if p.Name == "sshd" || p.Name == "thttpd" {
			t.Run(p.Name, func(t *testing.T) {
				if err := p.verifyCalibration(); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

func TestModelRoundTrip(t *testing.T) {
	// Every calibrated model prints to the IR text format and reparses to
	// an identical module — the corpus exercising the parser end-to-end.
	for _, build := range fastPrograms {
		p, err := build()
		if err != nil {
			t.Fatal(err)
		}
		text := p.Module.String()
		m2, err := ir.Parse(text)
		if err != nil {
			t.Fatalf("%s: reparse failed: %v", p.Name, err)
		}
		if got := m2.String(); got != text {
			t.Errorf("%s: round trip mismatch", p.Name)
		}
	}
}

func TestMeasureUsesFreshKernel(t *testing.T) {
	// Measuring twice yields identical reports: each run gets a fresh
	// kernel and the calibrated module is immutable.
	p, err := Su()
	if err != nil {
		t.Fatal(err)
	}
	r1, _, err := p.Measure()
	if err != nil {
		t.Fatal(err)
	}
	r2, _, err := p.Measure()
	if err != nil {
		t.Fatal(err)
	}
	if r1.String() != r2.String() {
		t.Errorf("repeated measurement differs:\n%s\n%s", r1, r2)
	}
}

func TestPingWorkloadSensitivity(t *testing.T) {
	// The models are real programs: a different workload (ping -c 100
	// instead of -c 10) executes more instructions in the unprivileged
	// phase and leaves the privileged phases untouched.
	p, err := Ping()
	if err != nil {
		t.Fatal(err)
	}
	run := func(count int64) *chronopriv.Report {
		ares, err := autopriv.Analyze(p.Module, autopriv.Options{})
		if err != nil {
			t.Fatal(err)
		}
		k := p.NewKernel(ares.RequiredPermitted)
		rt := chronopriv.NewRuntime(k)
		if _, err := interp.Run(ares.Module, k, interp.Options{
			MainArgs: []int64{0, count},
			OnStep:   rt.OnStep,
		}); err != nil {
			t.Fatal(err)
		}
		return rt.Report("ping")
	}
	r10 := run(10)
	r100 := run(100)
	if r100.Total <= r10.Total {
		t.Fatalf("more requests should execute more instructions: %d vs %d", r100.Total, r10.Total)
	}
	// The privileged phases are identical; only the empty-set phase grows.
	for i := 0; i < 2; i++ {
		if r10.Phases[i].Instructions != r100.Phases[i].Instructions {
			t.Errorf("privileged phase %d changed with workload: %d vs %d",
				i, r10.Phases[i].Instructions, r100.Phases[i].Instructions)
		}
	}
	// Each extra echo round costs the loop's 6 instructions: the header's
	// cmp+br plus write, read, increment, and the back-edge jmp.
	wantDelta := int64(90 * 6)
	if got := r100.Phases[2].Instructions - r10.Phases[2].Instructions; got != wantDelta {
		t.Errorf("empty-phase delta = %d, want %d", got, wantDelta)
	}
}

func TestBlockModeAgreesOnRealModels(t *testing.T) {
	// The marker-based (block) instrumentation and the per-step hook agree
	// on totals for every fast program model, and per phase within the
	// number of phase transitions (the trailing terminators of transition
	// blocks — see internal/chronopriv's package doc).
	for _, build := range fastPrograms {
		p, err := build()
		if err != nil {
			t.Fatal(err)
		}
		t.Run(p.Name, func(t *testing.T) {
			ares, err := autopriv.Analyze(p.Module, autopriv.Options{})
			if err != nil {
				t.Fatal(err)
			}

			k1 := p.NewKernel(ares.RequiredPermitted)
			rt1 := chronopriv.NewRuntime(k1)
			if _, err := interp.Run(ares.Module, k1, interp.Options{
				MainArgs: p.MainArgs, OnStep: rt1.OnStep,
			}); err != nil {
				t.Fatal(err)
			}
			stepRep := rt1.Report(p.Name)

			inst, err := chronopriv.Instrument(ares.Module)
			if err != nil {
				t.Fatal(err)
			}
			k2 := p.NewKernel(ares.RequiredPermitted)
			rt2 := chronopriv.NewRuntime(k2)
			if _, err := interp.Run(inst, k2, interp.Options{
				MainArgs: p.MainArgs, Intercept: rt2.Intercept,
			}); err != nil {
				t.Fatal(err)
			}
			blockRep := rt2.Report(p.Name)

			if stepRep.Total != blockRep.Total {
				t.Fatalf("totals differ: step %d vs block %d", stepRep.Total, blockRep.Total)
			}
			if len(stepRep.Phases) != len(blockRep.Phases) {
				t.Fatalf("phase counts differ: %d vs %d", len(stepRep.Phases), len(blockRep.Phases))
			}
			transitions := int64(len(stepRep.Phases))
			for i := range stepRep.Phases {
				s, b := stepRep.Phases[i], blockRep.Phases[i]
				if s.Key() != b.Key() {
					t.Errorf("phase %d keys differ", i)
				}
				if diff := s.Instructions - b.Instructions; diff > transitions || diff < -transitions {
					t.Errorf("phase %d skew too large: step %d vs block %d",
						i, s.Instructions, b.Instructions)
				}
			}
		})
	}
}

func TestSegmentChargingAgreesOnAllModels(t *testing.T) {
	// Measure charges whole straight-line segments through OnSteps; an
	// OnStep hook makes the interpreter charge one instruction at a time.
	// Both must give every phase of every model the same count.
	builders := fastPrograms
	if !testing.Short() {
		builders = append([]func() (*Program, error){Thttpd, Sshd}, fastPrograms...)
	}
	for _, build := range builders {
		p, err := build()
		if err != nil {
			t.Fatal(err)
		}
		t.Run(p.Name, func(t *testing.T) {
			segRep, ares, err := p.Measure()
			if err != nil {
				t.Fatal(err)
			}
			k := p.NewKernel(ares.RequiredPermitted)
			rt := chronopriv.NewRuntime(k)
			if _, err := interp.Run(ares.Module, k, interp.Options{
				MainArgs: p.MainArgs, OnStep: rt.OnStep,
			}); err != nil {
				t.Fatal(err)
			}
			if got, want := segRep.String(), rt.Report(p.Name).String(); got != want {
				t.Errorf("segment charging:\n%s\nper-instruction charging:\n%s", got, want)
			}
		})
	}
}
