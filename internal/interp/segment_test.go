package interp

import (
	"errors"
	"fmt"
	"maps"
	"slices"
	"testing"

	"privanalyzer/internal/caps"
	"privanalyzer/internal/ir"
	"privanalyzer/internal/vkernel"
)

// tally is one run's counting as the step callbacks saw it.
type tally struct {
	batched map[caps.PhaseKey]int64 // OnSteps totals per phase
	hooked  map[caps.PhaseKey]int64 // OnStep totals per phase; nil unless perInstr
	steps   int64                   // Result.Steps, or -1 when the run failed
	ret     int64                   // Result.Ret
	err     error
	// closed counts the counted-loop entries charged in closed form.
	closed int64
	// profile is the hot-block profile, also of a failed run; nil unless
	// the run was profiled.
	profile []BlockCount
}

func (tl tally) errText() string {
	if tl.err == nil {
		return ""
	}
	return tl.err.Error()
}

// runTally runs m on a fresh kernel holding perm. With perInstr it also sets
// OnStep, which charges every instruction on its own; without it the run
// charges whole segments and counted loops in closed form, as ChronoPriv's
// measurement does. profile sets Options.Profile.
func runTally(m *ir.Module, perm caps.Set, fuel int64, perInstr, profile bool) tally {
	tl := tally{batched: map[caps.PhaseKey]int64{}, steps: -1}
	opts := Options{Fuel: fuel, Profile: profile, OnSteps: func(n int64, ph caps.PhaseKey) { tl.batched[ph] += n }}
	if perInstr {
		tl.hooked = map[caps.PhaseKey]int64{}
		opts.OnStep = func(_ *ir.Function, _ *ir.Block, _ ir.Instr, ph caps.PhaseKey) { tl.hooked[ph]++ }
	}
	res, vm, err := execute(m, newKernel(perm), opts)
	tl.err = err
	if err == nil {
		tl.steps, tl.ret = res.Steps, res.Ret
	}
	if vm != nil {
		tl.closed = vm.loopsClosed
		if profile {
			tl.profile = vm.prof.Top(0)
		}
	}
	return tl
}

// mustAgree fails t unless a run charged by segments and counted loops
// (seg) and a per-instruction run (ref) of the same module and fuel agree
// on steps, return value, error text, per-phase counts and, when both were
// profiled, every block's count.
func mustAgree(t *testing.T, fuel int64, seg, ref tally) {
	t.Helper()
	if seg.errText() != ref.errText() || seg.steps != ref.steps || seg.ret != ref.ret {
		t.Fatalf("fuel %d: segment run (%d, %d, %v), per-instruction run (%d, %d, %v)",
			fuel, seg.steps, seg.ret, seg.err, ref.steps, ref.ret, ref.err)
	}
	if !maps.Equal(seg.batched, ref.hooked) || !maps.Equal(ref.batched, ref.hooked) {
		t.Fatalf("fuel %d: per-phase counts differ: OnSteps %v, OnStep %v, OnSteps beside OnStep %v",
			fuel, seg.batched, ref.hooked, ref.batched)
	}
	if !slices.Equal(seg.profile, ref.profile) {
		t.Fatalf("fuel %d: profiles differ:\nsegment run %v\nper-instruction run %v", fuel, seg.profile, ref.profile)
	}
}

func sum(counts map[caps.PhaseKey]int64) int64 {
	var n int64
	for _, c := range counts {
		n += c
	}
	return n
}

// segmentModule exercises every segment boundary: direct and indirect calls
// in the middle of blocks, syscalls that change the phase (one inside a
// callee), a loop, and every quickened Bin shape, including function-pointer
// arithmetic through the register-plus-immediate opcode.
func segmentModule() *ir.Module {
	setuid := caps.NewSet(caps.CapSetuid)
	drs := caps.NewSet(caps.CapDacReadSearch)
	b := ir.NewModuleBuilder("seg")
	f := b.Func("main")
	f.Block("entry").
		Const("i", 0).
		Compute(4).
		CallTo("r", "twice", ir.I(3)).
		Bin("fp0", ir.Add, ir.F("twice"), ir.I(0)).
		Bin("fp", ir.Add, ir.R("fp0"), ir.I(0)).
		CallInd(ir.R("fp"), ir.I(2)).
		Compute(3).
		Jmp("loop")
	f.Block("loop").
		Cmp("c", ir.Lt, ir.R("i"), ir.I(3)).
		Br(ir.R("c"), "body", "done")
	f.Block("body").
		Raise(drs).
		SyscallTo("fd", "open", ir.S("/etc/shadow"), ir.I(vkernel.OpenRead)).
		Lower(drs).
		Bin("i", ir.Add, ir.R("i"), ir.I(1)).
		Bin("j", ir.Sub, ir.R("r"), ir.R("i")).
		Bin("k", ir.Sub, ir.R("j"), ir.I(1)).
		Bin("s", ir.Add, ir.R("j"), ir.R("k")).
		Jmp("loop")
	f.Block("done").
		Compute(2).
		Call("drop", ir.I(int64(setuid))).
		Compute(3).
		RetVal(ir.R("i"))
	d := b.Func("drop", "set")
	d.Block("entry").
		Compute(2).
		Syscall("priv_remove", ir.R("set")).
		Compute(2).
		Ret()
	tw := b.Func("twice", "n")
	tw.Block("entry").
		Bin("m", ir.Mul, ir.R("n"), ir.I(2)).
		Compute(2).
		RetVal(ir.R("m"))
	return b.MustBuild()
}

// phasedModule has main change phase, call work with args and return its
// result; body builds work, which takes one parameter p when args are
// given.
func phasedModule(body func(*ir.FuncBuilder), args ...ir.Value) *ir.Module {
	b := ir.NewModuleBuilder("phased")
	b.Func("main").Block("entry").
		Compute(3).
		Remove(caps.NewSet(caps.CapSetuid)).
		Compute(2).
		CallTo("r", "work", args...).
		Compute(2).
		RetVal(ir.R("r"))
	var params []string
	if len(args) > 0 {
		params = []string{"p"}
	}
	body(b.Func("work", params...))
	b.Func("leaf").Block("entry").Ret()
	return b.MustBuild()
}

// failingModule is a phasedModule whose work body fail completes: a
// failure partway through a segment, with counted instructions before it.
func failingModule(fail func(*ir.BlockBuilder), args ...ir.Value) *ir.Module {
	return phasedModule(func(f *ir.FuncBuilder) { fail(f.Block("entry").Compute(4)) }, args...)
}

// segmentCase is a module whose charged and per-instruction runs must
// agree, and the error its unbounded run ends with.
type segmentCase struct {
	name    string
	m       *ir.Module
	wantErr error
}

// segmentCases covers segment boundaries, mid-segment failures and
// dead-filler elision.
func segmentCases() []segmentCase {
	return []segmentCase{
		{"calls syscalls phases", segmentModule(), nil},
		{"division by zero", failingModule(func(bb *ir.BlockBuilder) {
			bb.Const("z", 0).Bin("q", ir.Div, ir.I(7), ir.R("z")).Compute(4).Ret()
		}), ErrRuntime},
		{"undefined register", failingModule(func(bb *ir.BlockBuilder) {
			bb.Bin("g", ir.Add, ir.R("ghost"), ir.I(1)).Compute(4).Ret()
		}), ErrRuntime},
		{"undefined register in cmp", failingModule(func(bb *ir.BlockBuilder) {
			bb.Cmp("c", ir.Eq, ir.I(1), ir.R("ghost")).Compute(4).Ret()
		}), ErrRuntime},
		{"unreachable", failingModule(func(bb *ir.BlockBuilder) {
			bb.Unreachable()
		}), ErrUnreachable},
		// Dead-filler elision: each of these must run, fail and count
		// exactly as when every instruction executes.
		{"dead const feeding div by zero", failingModule(func(bb *ir.BlockBuilder) {
			bb.Const("z", 0).Compute(3).Bin("q", ir.Div, ir.I(7), ir.R("z")).Compute(4).Ret()
		}), ErrRuntime},
		{"dead chain feeding rem by zero", failingModule(func(bb *ir.BlockBuilder) {
			bb.Const("z", 0).Bin("w", ir.Mul, ir.R("z"), ir.I(3)).Compute(2).
				Bin("q", ir.Rem, ir.I(7), ir.R("w")).Compute(4).Ret()
		}), ErrRuntime},
		{"dead-destination add on a string param", failingModule(func(bb *ir.BlockBuilder) {
			bb.Bin("g", ir.Add, ir.R("p"), ir.I(1)).Compute(4).Ret()
		}, ir.S("str")), ErrRuntime},
		{"dead-destination add on a function reference", failingModule(func(bb *ir.BlockBuilder) {
			bb.Bin("g", ir.Add, ir.R("p"), ir.I(1)).Compute(4).Ret()
		}, ir.F("leaf")), ErrRuntime},
		{"dead-destination mul on an undefined register", failingModule(func(bb *ir.BlockBuilder) {
			bb.Compute(2).Bin("g", ir.Mul, ir.I(2), ir.R("ghost")).Compute(4).Ret()
		}), ErrRuntime},
		{"dead chain split by a call", phasedModule(func(f *ir.FuncBuilder) {
			// s is an integer in the first segment only: the add after the
			// call must stay, or a per-instruction second segment after a
			// charged first one would read s undefined.
			f.Block("entry").Const("s", 1).Compute(2).Call("leaf").
				Bin("t", ir.Add, ir.R("s"), ir.I(1)).Compute(2).Ret()
		}), nil},
		{"scratch register reused across blocks", phasedModule(func(f *ir.FuncBuilder) {
			f.Block("entry").Const("s", 0).Bin("s", ir.Add, ir.R("s"), ir.I(1)).Compute(2).Jmp("again")
			f.Block("again").Const("s", 5).Bin("s", ir.Add, ir.R("s"), ir.I(1)).Compute(2).Jmp("carry")
			f.Block("carry").Bin("s", ir.Add, ir.R("s"), ir.I(1)).Compute(2).Ret()
		}), nil},
		{"dead chain read by ret in another block", phasedModule(func(f *ir.FuncBuilder) {
			f.Block("entry").Const("x", 4).Bin("x", ir.Add, ir.R("x"), ir.I(1)).
				Bin("x", ir.Shl, ir.R("x"), ir.I(2)).Compute(3).Jmp("out")
			f.Block("out").Compute(2).RetVal(ir.R("x"))
		}), nil},
		{"dead cmp", phasedModule(func(f *ir.FuncBuilder) {
			f.Block("entry").Const("a", 3).Cmp("c", ir.Lt, ir.R("a"), ir.I(5)).
				Cmp("d", ir.Eq, ir.R("c"), ir.R("a")).Compute(2).RetVal(ir.I(9))
		}), nil},
	}
}

func TestSegmentChargingMatchesPerInstruction(t *testing.T) {
	for _, tc := range segmentCases() {
		t.Run(tc.name, func(t *testing.T) { checkAllFuels(t, tc, 0, false) })
	}
}

// TestProfileMatchesPerInstruction holds the hot-block profile of a
// segment-charged run to that of a per-instruction run, block by block,
// refunds of failed runs included.
func TestProfileMatchesPerInstruction(t *testing.T) {
	for _, tc := range segmentCases() {
		t.Run(tc.name, func(t *testing.T) { checkAllFuels(t, tc, 0, true) })
	}
	for _, tc := range loopCases() {
		t.Run(tc.name, func(t *testing.T) { checkAllFuels(t, tc.segmentCase, tc.fuel, true) })
	}
}

// checkAllFuels runs tc charged by segments and per instruction, at every
// fuel from 0, the unbounded default, to twice the run's length, and
// requires the two to agree. A case whose run would not end gives maxFuel,
// which caps its unbounded run and ends the sweep.
func checkAllFuels(t *testing.T, tc segmentCase, maxFuel int64, profile bool) {
	t.Helper()
	perm := caps.NewSet(caps.CapSetuid, caps.CapDacReadSearch)
	full := runTally(tc.m, perm, maxFuel, true, false)
	if !errors.Is(full.err, tc.wantErr) {
		t.Fatalf("unbounded run: err = %v, want %v", full.err, tc.wantErr)
	}
	total := sum(full.hooked)
	if len(full.hooked) < 2 {
		t.Fatalf("run saw %d phases, want a phase change", len(full.hooked))
	}
	// Past the run's length the fuel covers every segment whole (a failing
	// run's last segment reaches past the failure).
	top := 2 * total
	if maxFuel > 0 {
		top = maxFuel
	}
	for fuel := int64(0); fuel <= top; fuel++ {
		if fuel == 0 && maxFuel > 0 {
			continue
		}
		ref := runTally(tc.m, perm, fuel, true, profile)
		seg := runTally(tc.m, perm, fuel, false, profile)
		mustAgree(t, fuel, seg, ref)
		if fuel > 0 && fuel < total {
			want := fmt.Sprintf("%v after %d instructions", ErrOutOfFuel, fuel)
			if seg.errText() != want || sum(seg.batched) != fuel {
				t.Fatalf("fuel %d: err %q with %d charged, want %q", fuel, seg.err, sum(seg.batched), want)
			}
		}
	}
}

func TestSegmentsMarkCountedLengths(t *testing.T) {
	b := ir.NewModuleBuilder("m")
	f := b.Func("main")
	f.Block("entry").
		Compute(2).
		Call("leaf").
		Syscall("getuid").
		Const("x", 1).
		Unreachable()
	b.Func("leaf").Block("entry").Ret()
	code, err := compileModule(b.MustBuild())
	if err != nil {
		t.Fatal(err)
	}
	var seg, rest []int64
	for _, in := range code["main"].blocks[0].instrs {
		seg = append(seg, in.seg)
		rest = append(rest, in.rest)
	}
	// Segments: [const add call] [syscall] [const unreachable]; the
	// unreachable is not counted.
	wantSeg := []int64{3, -1, -1, 1, 1, -1}
	wantRest := []int64{2, 1, 0, 0, 0, 0}
	if fmt.Sprint(seg) != fmt.Sprint(wantSeg) || fmt.Sprint(rest) != fmt.Sprint(wantRest) {
		t.Errorf("seg = %v, rest = %v; want %v, %v", seg, rest, wantSeg, wantRest)
	}
	if code["main"].blocks[0].instrs[2].call != code["leaf"] {
		t.Error("direct callee not resolved at compile time")
	}
}

func TestDeadFillerMarked(t *testing.T) {
	code, err := compileModule(buildLoop())
	if err != nil {
		t.Fatal(err)
	}
	blocks := code["main"].blocks
	for _, cb := range blocks {
		if cb.b.Name == "body" {
			continue
		}
		for _, in := range cb.instrs {
			if in.dead {
				t.Errorf("%s: %s marked dead", cb.b.Name, in.src)
			}
		}
	}
	// body: Compute(10), then i = i + 1 and jmp. The padding is dead and
	// a charged run goes from the segment head straight to the counter.
	body := blocks[2]
	var dead []bool
	for _, in := range body.instrs {
		dead = append(dead, in.dead)
	}
	want := []bool{true, true, true, true, true, true, true, true, true, true, false, false}
	if fmt.Sprint(dead) != fmt.Sprint(want) {
		t.Errorf("body dead = %v, want %v", dead, want)
	}
	if body.instrs[0].seg != 12 || body.instrs[0].next != 10 {
		t.Errorf("body head: seg %d next %d, want 12, 10", body.instrs[0].seg, body.instrs[0].next)
	}
}

func TestQuickenedOpcodes(t *testing.T) {
	b := ir.NewModuleBuilder("m")
	f := b.Func("main", "a")
	f.Block("entry").
		Bin("x", ir.Add, ir.R("a"), ir.I(5)).
		Bin("z", ir.Add, ir.R("x"), ir.R("a")).
		Bin("v", ir.Mul, ir.R("z"), ir.I(2)).
		RetVal(ir.R("v"))
	m := b.MustBuild()
	code, err := compileModule(m)
	if err != nil {
		t.Fatal(err)
	}
	var ops []copKind
	for _, in := range code["main"].blocks[0].instrs[:3] {
		ops = append(ops, in.op)
	}
	if want := []copKind{cAddRI, cBin, cBin}; fmt.Sprint(ops) != fmt.Sprint(want) {
		t.Errorf("ops = %v, want %v", ops, want)
	}
	// a=10: x=15, z=25, v=50.
	res, _ := run(t, m, 0, Options{MainArgs: []int64{10}})
	if res.Ret != 50 {
		t.Errorf("Ret = %d, want 50", res.Ret)
	}
}

func TestQuickenedOpcodesKeepGenericErrors(t *testing.T) {
	// A string operand in a quickened shape takes the generic path and its
	// error, unchanged.
	b := ir.NewModuleBuilder("m")
	b.Func("main").Block("entry").Call("f", ir.S("str")).Ret()
	b.Func("f", "s").Block("entry").Bin("r", ir.Add, ir.R("s"), ir.I(1)).Ret()
	_, err := Run(b.MustBuild(), newKernel(0), Options{})
	want := fmt.Sprintf("%v: %s on non-integer operands", ErrRuntime, ir.Add)
	if err == nil || err.Error() != want {
		t.Errorf("err = %v, want %q", err, want)
	}
}
