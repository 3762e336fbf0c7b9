// Package programs provides executable IR models of the paper's five test
// programs (Table II: thttpd, passwd, su, ping, sshd) plus the two
// refactored variants of §VII-D. Each model reproduces, under the
// PrivAnalyzer pipeline, the program's published behaviour:
//
//   - the phase structure of Tables III and V — which privilege sets and
//     user/group IDs are in effect, in chronological order, with the exact
//     dynamic instruction counts the paper reports;
//   - the syscall inventory ROSA's attack model draws from (§VII-A),
//     derived statically from the model IR (dead branches carry syscalls
//     the workload does not execute, exactly as real programs do);
//   - the privilege-annotation style of the AutoPriv test programs: explicit
//     priv_raise/priv_lower around operations needing privileges, with
//     priv_remove inserted by the AutoPriv analysis, never by hand.
//
// The paper's dynamic counts come from running real binaries under LLVM
// instrumentation; our models reproduce them through workload calibration:
// each phase carries a padding workload whose size is solved — once, at
// model construction — so the pipeline-measured counts equal the paper's
// (see DESIGN.md's substitution table).
package programs

import (
	"context"
	"fmt"

	"privanalyzer/internal/autopriv"
	"privanalyzer/internal/caps"
	"privanalyzer/internal/chronopriv"
	"privanalyzer/internal/interp"
	"privanalyzer/internal/ir"
	"privanalyzer/internal/telemetry"
	"privanalyzer/internal/vkernel"
)

// VulnExpect is one expected Table III/V verdict cell.
type VulnExpect uint8

// Expected verdicts.
const (
	// No: the paper reports ✗ (invulnerable).
	No VulnExpect = iota + 1
	// Yes: the paper reports ✓ (vulnerable).
	Yes
	// Timeout: the paper reports ⏱ (ROSA exceeded its budget). The paper
	// argues these are likely invulnerable, so a Safe verdict also
	// satisfies the expectation.
	Timeout
)

// String renders the expectation with the paper's glyphs.
func (v VulnExpect) String() string {
	switch v {
	case No:
		return "✗"
	case Yes:
		return "✓"
	case Timeout:
		return "⏱"
	default:
		return "?"
	}
}

// PhaseSpec is one row of Table III or Table V: a (privileges, UIDs, GIDs)
// combination with the paper's dynamic instruction count and the four attack
// verdicts.
type PhaseSpec struct {
	// Name is the paper's short name, e.g. "passwd_priv1".
	Name string
	// Privs is the permitted privilege set.
	Privs caps.Set
	// UID and GID are {real, effective, saved} triples.
	UID, GID [3]int
	// Instructions is the paper's dynamic instruction count for the phase.
	Instructions int64
	// Percent is the paper-reported percentage (of the program total).
	Percent float64
	// Vuln holds the expected verdicts for attacks 1–4.
	Vuln [4]VulnExpect
}

// Key returns the ChronoPriv phase key of the row.
func (s PhaseSpec) Key() caps.PhaseKey {
	return caps.PhaseKey{
		Permitted: s.Privs,
		RUID:      s.UID[0], EUID: s.UID[1], SUID: s.UID[2],
		RGID: s.GID[0], EGID: s.GID[1], SGID: s.GID[2],
	}
}

// Program bundles one test program: its metadata (Table II), its calibrated
// IR model, its runtime environment, and its expected results.
type Program struct {
	// Name is the program name, e.g. "passwd".
	Name string
	// Version and SLOC reproduce Table II.
	Version string
	SLOC    int
	// Description is the Table II description.
	Description string
	// Workload describes the measured run (§VII-B).
	Workload string
	// Refactored marks the §VII-D variants (Table V rows).
	Refactored bool

	// Module is the calibrated, privilege-annotated model (AutoPriv input).
	Module *ir.Module
	// InitialUID and InitialGID are the credentials the program starts
	// with (the invoking user).
	InitialUID, InitialGID int
	// MainArgs encode the workload for the interpreter.
	MainArgs []int64
	// Files is the file-system layout for the run.
	Files []vkernel.File
	// Phases are the expected table rows in the paper's display order.
	Phases []PhaseSpec
	// ChronologicalOrder maps execution order to Phases indices (the
	// paper's tables order rows by privilege-set size, not time).
	ChronologicalOrder []int
	// LoCChanged reproduces the program's Table IV row (refactored
	// variants only): {added, deleted} for shadow-library code and the
	// program's own source.
	LoCChanged map[string][2]int
}

// SyscallInventory statically scans a module for the ROSA-modeled system
// calls it may execute — the inventory the attack model allows an attacker
// to use (§III, §VII-A). Dead branches count: a real attacker can reach any
// syscall in the binary.
func SyscallInventory(m *ir.Module) []string {
	modeled := map[string]bool{
		"open": true, "chmod": true, "fchmod": true, "chown": true,
		"fchown": true, "unlink": true, "rename": true,
		"setuid": true, "seteuid": true, "setresuid": true,
		"setgid": true, "setegid": true, "setresgid": true,
		"kill": true, "socket": true, "bind": true, "connect": true,
	}
	seen := make(map[string]bool)
	var out []string
	for _, fn := range m.Funcs {
		for _, blk := range fn.Blocks {
			for _, in := range blk.Instrs {
				sys, ok := in.(*ir.SyscallInstr)
				if !ok || !modeled[sys.Name] || seen[sys.Name] {
					continue
				}
				seen[sys.Name] = true
				out = append(out, sys.Name)
			}
		}
	}
	return out
}

// Syscalls returns the program's syscall inventory.
func (p *Program) Syscalls() []string { return SyscallInventory(p.Module) }

// NewKernel builds a fresh simulated kernel with the program's file layout
// and a current process holding the given permitted set (normally AutoPriv's
// RequiredPermitted).
func (p *Program) NewKernel(permitted caps.Set) *vkernel.Kernel {
	k := vkernel.New()
	for _, f := range p.Files {
		k.AddFile(f)
	}
	k.Spawn(p.Name, caps.NewCreds(p.InitialUID, p.InitialGID, permitted))
	return k
}

// Measure runs the full measurement pipeline on the program: AutoPriv
// transforms the model, the interpreter executes the workload on a fresh
// kernel, and ChronoPriv reports per-phase dynamic instruction counts.
func (p *Program) Measure() (*chronopriv.Report, *autopriv.Result, error) {
	return p.MeasureContext(context.Background())
}

// MeasureContext is Measure with telemetry: when ctx carries a
// telemetry.Registry, the AutoPriv analysis and the ChronoPriv interpreter
// run each get a child span tagged with the program, and the run's dynamic
// instruction count feeds the chronopriv_instructions_total counter. With a
// bare context it behaves exactly like Measure.
func (p *Program) MeasureContext(ctx context.Context) (*chronopriv.Report, *autopriv.Result, error) {
	rep, ares, _, err := measure(ctx, p.Module, p, false)
	return rep, ares, err
}

// MeasureProfiled is MeasureContext with the interpreter's hot-block profile
// enabled; the profile feeds the counter tracks of the Chrome Trace export
// (-trace-out). Profiling costs one slice update per charged segment or
// counted loop, so the plain measurement paths keep it off.
func (p *Program) MeasureProfiled(ctx context.Context) (*chronopriv.Report, *autopriv.Result, *interp.BlockProfile, error) {
	return measure(ctx, p.Module, p, true)
}

func measure(ctx context.Context, m *ir.Module, p *Program, profile bool) (*chronopriv.Report, *autopriv.Result, *interp.BlockProfile, error) {
	lg := telemetry.Logger(ctx)
	sp, _ := telemetry.StartSpan(ctx, "autopriv", "program", p.Name)
	ares, err := autopriv.Analyze(m, autopriv.Options{})
	sp.End()
	if err != nil {
		return nil, nil, nil, fmt.Errorf("programs: %s: %w", p.Name, err)
	}
	lg.Debug("autopriv done",
		"component", "autopriv",
		"program", p.Name,
		"required_permitted", ares.RequiredPermitted.String(),
		"removals", len(ares.Removals))
	k := p.NewKernel(ares.RequiredPermitted)
	rt := chronopriv.NewRuntime(k)
	sp, _ = telemetry.StartSpan(ctx, "chronopriv", "program", p.Name)
	res, err := interp.Run(ares.Module, k, interp.Options{
		MainArgs: p.MainArgs,
		OnSteps:  rt.OnSteps,
		Profile:  profile,
		Logger:   lg,
	})
	sp.End()
	if err != nil {
		return nil, nil, nil, fmt.Errorf("programs: %s: %w", p.Name, err)
	}
	lg.Debug("chronopriv done",
		"component", "chronopriv",
		"program", p.Name,
		"instructions", res.Steps)
	reg := telemetry.FromContext(ctx)
	reg.Counter("chronopriv_runs_total").Add(1)
	reg.Counter("chronopriv_instructions_total").Add(res.Steps)
	return rt.Report(p.Name), ares, res.Profile, nil
}

// minPad is the calibration seed: large enough to exceed any phase's fixed
// overhead, small enough that the seed run is fast.
const minPad = 300

// calibrate solves each phase's padding workload so the measured dynamic
// instruction counts equal the paper's. Counts are affine in the pads with
// unit coefficient (each pad instruction lands in exactly one phase), so one
// seed run determines the fixed overhead and a verification run confirms the
// solution.
func calibrate(p *Program, build func(pads []int64) *ir.Module) error {
	n := len(p.Phases)
	pads := make([]int64, n)
	for i := range pads {
		pads[i] = minPad
	}
	p.Module = build(pads)
	rep, _, _, err := measure(context.Background(), p.Module, p, false)
	if err != nil {
		return fmt.Errorf("calibration seed run: %w", err)
	}
	if got, want := len(rep.Phases), n; got != want {
		return fmt.Errorf("programs: %s: seed run produced %d phases, want %d:\n%s",
			p.Name, got, want, rep)
	}
	for chron, specIdx := range p.ChronologicalOrder {
		spec := p.Phases[specIdx]
		ph := rep.Find(spec.Key())
		if ph == nil {
			return fmt.Errorf("programs: %s: phase %s (%s uid=%v gid=%v) not observed:\n%s",
				p.Name, spec.Name, spec.Privs, spec.UID, spec.GID, rep)
		}
		base := ph.Instructions - pads[chron]
		pad := spec.Instructions - base
		if pad < 1 {
			return fmt.Errorf("programs: %s: phase %s overhead %d exceeds target %d",
				p.Name, spec.Name, base, spec.Instructions)
		}
		pads[chron] = pad
	}
	p.Module = build(pads)
	return nil
}

// verifyCalibration re-measures and checks every phase count; tests call it.
func (p *Program) verifyCalibration() error {
	rep, _, err := p.Measure()
	if err != nil {
		return err
	}
	if len(rep.Phases) != len(p.Phases) {
		return fmt.Errorf("%s: %d phases observed, want %d:\n%s",
			p.Name, len(rep.Phases), len(p.Phases), rep)
	}
	for _, spec := range p.Phases {
		ph := rep.Find(spec.Key())
		if ph == nil {
			return fmt.Errorf("%s: phase %s missing:\n%s", p.Name, spec.Name, rep)
		}
		if ph.Instructions != spec.Instructions {
			return fmt.Errorf("%s: phase %s = %d instructions, want %d",
				p.Name, spec.Name, ph.Instructions, spec.Instructions)
		}
	}
	return nil
}

// work emits exactly n dynamic instructions into function f, starting at a
// fresh block named label and ending with a jump to next. Large counts
// compile to a loop (so static module size stays small); small ones to
// straight-line filler. n must be at least 1 (the trailing jump counts).
func work(f *ir.FuncBuilder, label string, n int64, next string) {
	if n < 1 {
		panic(fmt.Sprintf("programs: work %s needs n >= 1, got %d", label, n))
	}
	if n < 40 {
		f.Block(label).Compute(int(n - 1)).Jmp(next)
		return
	}
	// Loop shape: entry(2) + (t+1) header pairs(2) + t bodies(12) +
	// remainder(r) + final jmp(1)  =>  n = 5 + 14t + r, 0 <= r < 14.
	t := (n - 5) / 14
	r := (n - 5) % 14
	i := label + "_i"
	c := label + "_c"
	f.Block(label).
		Const(i, 0).
		Jmp(label + "_h")
	f.Block(label+"_h").
		Cmp(c, ir.Lt, ir.R(i), ir.I(t)).
		Br(ir.R(c), label+"_b", label+"_r")
	f.Block(label+"_b").
		Compute(10).
		Bin(i, ir.Add, ir.R(i), ir.I(1)).
		Jmp(label + "_h")
	f.Block(label + "_r").
		Compute(int(r)).
		Jmp(next)
}

// All builds and calibrates every program model: the five of Table II in
// table order, then the two refactored variants.
func All() ([]*Program, error) {
	builders := []func() (*Program, error){
		Thttpd, Passwd, Su, Ping, Sshd, PasswdRefactored, SuRefactored,
	}
	out := make([]*Program, 0, len(builders))
	for _, build := range builders {
		p, err := build()
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}

// ByName builds the named program ("passwd", "su", "ping", "sshd", "thttpd",
// "passwdRef", "suRef").
func ByName(name string) (*Program, error) {
	switch name {
	case "passwd":
		return Passwd()
	case "su":
		return Su()
	case "ping":
		return Ping()
	case "sshd":
		return Sshd()
	case "thttpd":
		return Thttpd()
	case "passwdRef":
		return PasswdRefactored()
	case "suRef":
		return SuRefactored()
	default:
		return nil, fmt.Errorf("programs: unknown program %q", name)
	}
}

// Names lists the model names ByName accepts, in Table II order followed by
// the refactored variants.
func Names() []string {
	return []string{"thttpd", "passwd", "su", "ping", "sshd", "passwdRef", "suRef"}
}
