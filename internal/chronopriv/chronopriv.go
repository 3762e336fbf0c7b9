// Package chronopriv reimplements the ChronoPriv dynamic analysis from the
// paper (§V-A, §VI): it measures, for each combination of permitted
// privilege set and real/effective/saved user and group IDs (a "phase"), how
// many IR instructions a program executes dynamically, and reports the
// result as the rows of the paper's Tables III and V.
//
// Two measurement styles are provided, matching the paper's implementation
// and its observable semantics:
//
//   - Instrument inserts a marker syscall at the head of every basic block
//     recording the block's counted instruction size, exactly as the paper's
//     LLVM pass adds code to each basic block. The Runtime's Intercept
//     claims these markers during interpretation.
//   - Runtime.OnStep attributes instructions one at a time using the
//     interpreter's step hook, which is exact even when a privilege phase
//     changes in the middle of a block.
//
// Both styles always agree on run totals; per phase they differ by at most
// the instructions that trail a phase change within its basic block (e.g.
// the block's terminator after a priv_remove). The paper's tool has the same
// block-granularity attribution; the step mode is what the reproduction's
// tables use.
package chronopriv

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"privanalyzer/internal/caps"
	"privanalyzer/internal/ir"
	"privanalyzer/internal/vkernel"
)

// MarkerSyscall is the instrumentation marker inserted by Instrument. Its
// two integer arguments are a block identifier and the block's counted
// instruction size.
const MarkerSyscall = "chrono_block"

// Instrument returns a copy of m with a marker syscall prepended to every
// basic block, recording the block's counted instruction size (unreachable
// instructions are omitted from counts, per the paper §VI). The input module
// is not modified.
//
// The measurement path does not call it. It stays because it is the
// paper's instrumentation pass (§VI), and the per-marker counts it yields
// are the reference that programs_test.go's exact-count test
// (TestBlockModeAgreesOnRealModels) holds the per-step counts to, total for
// total, on every fast program model.
func Instrument(m *ir.Module) (*ir.Module, error) {
	if err := m.Verify(); err != nil {
		return nil, fmt.Errorf("chronopriv: %w", err)
	}
	out := m.Clone()
	id := int64(0)
	for _, fn := range out.Funcs {
		for _, blk := range fn.Blocks {
			marker := &ir.SyscallInstr{
				Name: MarkerSyscall,
				Args: []ir.Value{ir.I(id), ir.I(int64(blk.CountedInstrs()))},
			}
			blk.Instrs = append([]ir.Instr{marker}, blk.Instrs...)
			id++
		}
	}
	if err := out.Verify(); err != nil {
		return nil, fmt.Errorf("chronopriv: instrumented module invalid: %w", err)
	}
	return out, nil
}

// Runtime accumulates per-phase instruction counts during a run. Create one
// per execution with NewRuntime, wire OnStep (or Intercept for marker-based
// counting) into the interpreter options, then call Report.
type Runtime struct {
	kernel *vkernel.Kernel
	counts map[caps.PhaseKey]*int64
	order  []caps.PhaseKey

	// Hot-path cache: phase changes are rare relative to instructions, so
	// OnStep increments through a pointer while the phase is unchanged and
	// pays the map lookup only on transitions.
	lastPhase caps.PhaseKey
	lastCount *int64
}

// NewRuntime returns a runtime that reads the current phase from k.
func NewRuntime(k *vkernel.Kernel) *Runtime {
	return &Runtime{
		kernel: k,
		counts: make(map[caps.PhaseKey]*int64),
	}
}

func (r *Runtime) add(ph caps.PhaseKey, n int64) {
	if r.lastCount != nil && ph == r.lastPhase {
		*r.lastCount += n
		return
	}
	c, ok := r.counts[ph]
	if !ok {
		c = new(int64)
		r.counts[ph] = c
		r.order = append(r.order, ph)
	}
	*c += n
	r.lastPhase = ph
	r.lastCount = c
}

// OnStep is an interp.StepHook attributing one instruction to the phase in
// effect when it executes.
func (r *Runtime) OnStep(_ *ir.Function, _ *ir.Block, _ ir.Instr, ph caps.PhaseKey) {
	r.add(ph, 1)
}

// OnSteps is the batched counterpart of OnStep (interp.Options.OnSteps):
// the interpreter reports each run of instructions executed under one phase
// as a single count. Per-phase totals are identical to per-step counting.
func (r *Runtime) OnSteps(n int64, ph caps.PhaseKey) {
	r.add(ph, n)
}

// Intercept claims MarkerSyscall instructions, attributing each block's
// counted size to the phase at block entry. All other syscalls pass through.
func (r *Runtime) Intercept(name string, args []vkernel.Arg) (bool, int64, error) {
	if name != MarkerSyscall {
		return false, 0, nil
	}
	if len(args) != 2 || args[0].IsStr || args[1].IsStr {
		return false, 0, fmt.Errorf("chronopriv: malformed %s marker", MarkerSyscall)
	}
	r.add(r.kernel.Current().Creds.Phase(), args[1].Int)
	return true, 0, nil
}

// Phase is one report row: a distinct (privileges, UIDs, GIDs) combination
// with its dynamic instruction count, as in the paper's Tables III and V.
type Phase struct {
	// Privileges is the permitted capability set of the phase.
	Privileges caps.Set
	// RUID, EUID, SUID are the user IDs.
	RUID, EUID, SUID int
	// RGID, EGID, SGID are the group IDs.
	RGID, EGID, SGID int
	// Instructions is the dynamic instruction count attributed to the phase.
	Instructions int64
	// Percent is Instructions as a share of the run's total, in percent.
	Percent float64
}

// Key returns the phase's identifying combination.
func (p Phase) Key() caps.PhaseKey {
	return caps.PhaseKey{
		Permitted: p.Privileges,
		RUID:      p.RUID, EUID: p.EUID, SUID: p.SUID,
		RGID: p.RGID, EGID: p.EGID, SGID: p.SGID,
	}
}

// UIDString renders "ruid,euid,suid" as in the paper's UID column.
func (p Phase) UIDString() string { return fmt.Sprintf("%d,%d,%d", p.RUID, p.EUID, p.SUID) }

// GIDString renders "rgid,egid,sgid" as in the paper's GID column.
func (p Phase) GIDString() string { return fmt.Sprintf("%d,%d,%d", p.RGID, p.EGID, p.SGID) }

// Report is the ChronoPriv output for one program execution.
type Report struct {
	// Program is the module name.
	Program string
	// Total is the total counted instructions of the run.
	Total int64
	// Phases lists the observed phases in order of first appearance
	// (chronological).
	Phases []Phase
}

// Report builds the report for the completed run.
func (r *Runtime) Report(program string) *Report {
	rep := &Report{Program: program}
	for _, ph := range r.order {
		rep.Total += *r.counts[ph]
	}
	for _, ph := range r.order {
		n := *r.counts[ph]
		pct := 0.0
		if rep.Total > 0 {
			pct = 100 * float64(n) / float64(rep.Total)
		}
		rep.Phases = append(rep.Phases, Phase{
			Privileges: ph.Permitted,
			RUID:       ph.RUID, EUID: ph.EUID, SUID: ph.SUID,
			RGID: ph.RGID, EGID: ph.EGID, SGID: ph.SGID,
			Instructions: n,
			Percent:      pct,
		})
	}
	return rep
}

// Find returns the phase with the given key, or nil.
func (rep *Report) Find(key caps.PhaseKey) *Phase {
	for i := range rep.Phases {
		if rep.Phases[i].Key() == key {
			return &rep.Phases[i]
		}
	}
	return nil
}

// phaseJSON is the wire form of one phase row (cmd/chronopriv -json).
type phaseJSON struct {
	Privileges   []string `json:"privileges"`
	UID          [3]int   `json:"uid"` // real, effective, saved
	GID          [3]int   `json:"gid"`
	Instructions int64    `json:"instructions"`
	Percent      float64  `json:"percent"`
}

// reportJSON is the wire form of a Report.
type reportJSON struct {
	Program string      `json:"program"`
	Total   int64       `json:"total_instructions"`
	Phases  []phaseJSON `json:"phases"`
}

// WriteJSON writes the report as indented JSON: program, run total, and the
// phase rows (privileges as sorted capability names, credential triples,
// dynamic instruction counts) in chronological order — the machine-readable
// Table III/V fragment behind cmd/chronopriv -json.
func (rep *Report) WriteJSON(w io.Writer) error {
	out := reportJSON{Program: rep.Program, Total: rep.Total, Phases: []phaseJSON{}}
	for _, p := range rep.Phases {
		out.Phases = append(out.Phases, phaseJSON{
			Privileges:   p.Privileges.SortedNames(),
			UID:          [3]int{p.RUID, p.EUID, p.SUID},
			GID:          [3]int{p.RGID, p.EGID, p.SGID},
			Instructions: p.Instructions,
			Percent:      p.Percent,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		return fmt.Errorf("chronopriv: %w", err)
	}
	return nil
}

// String renders the report as an ASCII table in the layout of the paper's
// Table III: privileges, UID triple, GID triple, dynamic instruction count
// and percentage.
func (rep *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "ChronoPriv report for %s (total %d instructions)\n", rep.Program, rep.Total)
	fmt.Fprintf(&b, "%-60s %-18s %-18s %s\n", "Privileges", "UID (r,e,s)", "GID (r,e,s)", "Dynamic Instruction Count")
	for _, p := range rep.Phases {
		fmt.Fprintf(&b, "%-60s %-18s %-18s %d (%.2f%%)\n",
			p.Privileges, p.UIDString(), p.GIDString(), p.Instructions, p.Percent)
	}
	return b.String()
}
