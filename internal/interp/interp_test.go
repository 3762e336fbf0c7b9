package interp

import (
	"errors"
	"strings"
	"testing"

	"privanalyzer/internal/caps"
	"privanalyzer/internal/ir"
	"privanalyzer/internal/vkernel"
)

func newKernel(perm caps.Set) *vkernel.Kernel {
	k := vkernel.New()
	k.AddFile(vkernel.File{Path: "/etc", Owner: 0, Group: 0, Perms: vkernel.MustMode("rwxr-xr-x"), IsDir: true})
	k.AddFile(vkernel.File{Path: "/etc/shadow", Owner: 0, Group: 42, Perms: vkernel.MustMode("rw-r-----")})
	k.Spawn("prog", caps.NewCreds(1000, 1000, perm))
	return k
}

func run(t *testing.T, m *ir.Module, perm caps.Set, opts Options) (*Result, *vkernel.Kernel) {
	t.Helper()
	k := newKernel(perm)
	res, err := Run(m, k, opts)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return res, k
}

func TestArithmeticAndReturn(t *testing.T) {
	b := ir.NewModuleBuilder("m")
	f := b.Func("main")
	f.Block("entry").
		Const("x", 6).
		Bin("y", ir.Mul, ir.R("x"), ir.I(7)).
		RetVal(ir.R("y"))
	res, _ := run(t, b.MustBuild(), 0, Options{})
	if res.Ret != 42 {
		t.Errorf("Ret = %d, want 42", res.Ret)
	}
	if res.Steps != 3 {
		t.Errorf("Steps = %d, want 3", res.Steps)
	}
}

func TestAllBinOps(t *testing.T) {
	tests := []struct {
		op   ir.BinKind
		x, y int64
		want int64
	}{
		{ir.Add, 5, 3, 8},
		{ir.Sub, 5, 3, 2},
		{ir.Mul, 5, 3, 15},
		{ir.Div, 7, 2, 3},
		{ir.Rem, 7, 2, 1},
		{ir.And, 6, 3, 2},
		{ir.Or, 6, 3, 7},
		{ir.Xor, 6, 3, 5},
		{ir.Shl, 1, 4, 16},
		{ir.Shr, 16, 3, 2},
	}
	for _, tt := range tests {
		b := ir.NewModuleBuilder("m")
		f := b.Func("main")
		f.Block("entry").
			Bin("r", tt.op, ir.I(tt.x), ir.I(tt.y)).
			RetVal(ir.R("r"))
		res, _ := run(t, b.MustBuild(), 0, Options{})
		if res.Ret != tt.want {
			t.Errorf("%s(%d,%d) = %d, want %d", tt.op, tt.x, tt.y, res.Ret, tt.want)
		}
	}
}

func TestCmpAndBranch(t *testing.T) {
	for _, tt := range []struct {
		pred ir.CmpKind
		x, y int64
		want int64
	}{
		{ir.Eq, 2, 2, 1}, {ir.Eq, 2, 3, 0},
		{ir.Ne, 2, 3, 1}, {ir.Lt, 2, 3, 1},
		{ir.Le, 3, 3, 1}, {ir.Gt, 4, 3, 1},
		{ir.Ge, 2, 3, 0},
	} {
		b := ir.NewModuleBuilder("m")
		f := b.Func("main")
		f.Block("entry").
			Cmp("c", tt.pred, ir.I(tt.x), ir.I(tt.y)).
			Br(ir.R("c"), "yes", "no")
		f.Block("yes").RetVal(ir.I(1))
		f.Block("no").RetVal(ir.I(0))
		res, _ := run(t, b.MustBuild(), 0, Options{})
		if res.Ret != tt.want {
			t.Errorf("cmp %s %d,%d branch = %d, want %d", tt.pred, tt.x, tt.y, res.Ret, tt.want)
		}
	}
}

func TestLoopExecutesExactTripCount(t *testing.T) {
	b := ir.NewModuleBuilder("m")
	f := b.Func("main")
	f.Block("entry").Const("i", 0).Const("acc", 0).Jmp("header")
	f.Block("header").
		Cmp("c", ir.Lt, ir.R("i"), ir.I(100)).
		Br(ir.R("c"), "body", "exit")
	f.Block("body").
		Bin("acc", ir.Add, ir.R("acc"), ir.R("i")).
		Bin("i", ir.Add, ir.R("i"), ir.I(1)).
		Jmp("header")
	f.Block("exit").RetVal(ir.R("acc"))
	res, _ := run(t, b.MustBuild(), 0, Options{})
	if res.Ret != 4950 {
		t.Errorf("sum = %d, want 4950", res.Ret)
	}
	// entry(3) + header(2)*101 + body(3)*100 + exit(1)
	want := int64(3 + 2*101 + 3*100 + 1)
	if res.Steps != want {
		t.Errorf("Steps = %d, want %d", res.Steps, want)
	}
}

func TestCallsAndParams(t *testing.T) {
	b := ir.NewModuleBuilder("m")
	f := b.Func("main")
	f.Block("entry").
		CallTo("r", "double", ir.I(21)).
		RetVal(ir.R("r"))
	d := b.Func("double", "n")
	d.Block("entry").
		Bin("m", ir.Mul, ir.R("n"), ir.I(2)).
		RetVal(ir.R("m"))
	res, _ := run(t, b.MustBuild(), 0, Options{})
	if res.Ret != 42 {
		t.Errorf("Ret = %d", res.Ret)
	}
}

func TestIndirectCall(t *testing.T) {
	b := ir.NewModuleBuilder("m")
	f := b.Func("main")
	f.Block("entry").
		Bin("fp", ir.Add, ir.F("triple"), ir.I(0)).
		CallInd(ir.R("fp"), ir.I(5)).
		CallTo("r", "triple", ir.I(14)).
		RetVal(ir.R("r"))
	tr := b.Func("triple", "n")
	tr.Block("entry").
		Bin("m", ir.Mul, ir.R("n"), ir.I(3)).
		RetVal(ir.R("m"))
	res, _ := run(t, b.MustBuild(), 0, Options{})
	if res.Ret != 42 {
		t.Errorf("Ret = %d", res.Ret)
	}
}

func TestRecursionWithBase(t *testing.T) {
	// fact(10) via recursion.
	b := ir.NewModuleBuilder("m")
	f := b.Func("main")
	f.Block("entry").CallTo("r", "fact", ir.I(10)).RetVal(ir.R("r"))
	fa := b.Func("fact", "n")
	fa.Block("entry").
		Cmp("c", ir.Le, ir.R("n"), ir.I(1)).
		Br(ir.R("c"), "base", "rec")
	fa.Block("base").RetVal(ir.I(1))
	fa.Block("rec").
		Bin("n1", ir.Sub, ir.R("n"), ir.I(1)).
		CallTo("sub", "fact", ir.R("n1")).
		Bin("r", ir.Mul, ir.R("n"), ir.R("sub")).
		RetVal(ir.R("r"))
	res, _ := run(t, b.MustBuild(), 0, Options{})
	if res.Ret != 3628800 {
		t.Errorf("fact(10) = %d", res.Ret)
	}
}

func TestInfiniteRecursionAborts(t *testing.T) {
	b := ir.NewModuleBuilder("m")
	f := b.Func("main")
	f.Block("entry").Call("main").Ret()
	k := newKernel(0)
	_, err := Run(b.MustBuild(), k, Options{})
	if !errors.Is(err, ErrRuntime) {
		t.Errorf("err = %v, want ErrRuntime (depth)", err)
	}
}

func TestOutOfFuel(t *testing.T) {
	b := ir.NewModuleBuilder("m")
	f := b.Func("main")
	f.Block("entry").Jmp("loop")
	f.Block("loop").Const("x", 1).Jmp("loop")
	k := newKernel(0)
	_, err := Run(b.MustBuild(), k, Options{Fuel: 1000})
	if !errors.Is(err, ErrOutOfFuel) {
		t.Errorf("err = %v, want ErrOutOfFuel", err)
	}
	// Exactly the budget ran: segment charging falls back to counting one
	// instruction at a time rather than stopping a segment early or late.
	if err == nil || !strings.HasSuffix(err.Error(), "after 1000 instructions") {
		t.Errorf("err = %v, want it to end in %q", err, "after 1000 instructions")
	}
}

func TestUnreachableAborts(t *testing.T) {
	b := ir.NewModuleBuilder("m")
	f := b.Func("main")
	f.Block("entry").Unreachable()
	k := newKernel(0)
	_, err := Run(b.MustBuild(), k, Options{})
	if !errors.Is(err, ErrUnreachable) {
		t.Errorf("err = %v, want ErrUnreachable", err)
	}
}

func TestDivisionByZero(t *testing.T) {
	b := ir.NewModuleBuilder("m")
	f := b.Func("main")
	f.Block("entry").Bin("r", ir.Div, ir.I(1), ir.I(0)).Ret()
	k := newKernel(0)
	_, err := Run(b.MustBuild(), k, Options{})
	if !errors.Is(err, ErrRuntime) {
		t.Errorf("err = %v, want ErrRuntime", err)
	}
}

func TestUndefinedRegister(t *testing.T) {
	b := ir.NewModuleBuilder("m")
	f := b.Func("main")
	f.Block("entry").Bin("r", ir.Add, ir.R("ghost"), ir.I(1)).Ret()
	k := newKernel(0)
	_, err := Run(b.MustBuild(), k, Options{})
	if !errors.Is(err, ErrRuntime) {
		t.Errorf("err = %v, want ErrRuntime", err)
	}
}

func TestSyscallRoundTrip(t *testing.T) {
	// Raise CapDacReadSearch, open /etc/shadow read-only, read 100 bytes.
	drs := caps.NewSet(caps.CapDacReadSearch)
	b := ir.NewModuleBuilder("m")
	f := b.Func("main")
	f.Block("entry").
		Raise(drs).
		SyscallTo("fd", "open", ir.S("/etc/shadow"), ir.I(vkernel.OpenRead)).
		Lower(drs).
		SyscallTo("n", "read", ir.R("fd"), ir.I(100)).
		RetVal(ir.R("n"))
	res, _ := run(t, b.MustBuild(), drs, Options{})
	if res.Ret != 100 {
		t.Errorf("read returned %d, want 100", res.Ret)
	}
}

func TestSyscallPermissionFailureVisible(t *testing.T) {
	// Without privileges, open fails and the program sees -1.
	b := ir.NewModuleBuilder("m")
	f := b.Func("main")
	f.Block("entry").
		SyscallTo("fd", "open", ir.S("/etc/shadow"), ir.I(vkernel.OpenRead)).
		RetVal(ir.R("fd"))
	res, _ := run(t, b.MustBuild(), 0, Options{})
	if res.Ret != -1 {
		t.Errorf("open returned %d, want -1", res.Ret)
	}
}

func TestExitSyscallStopsRun(t *testing.T) {
	b := ir.NewModuleBuilder("m")
	f := b.Func("main")
	f.Block("entry").
		Call("die").
		Const("never", 1). // must not execute
		RetVal(ir.R("never"))
	d := b.Func("die")
	d.Block("entry").Syscall("exit", ir.I(0)).Ret()
	res, _ := run(t, b.MustBuild(), 0, Options{})
	if !res.Exited {
		t.Error("Exited = false")
	}
	// entry: call(1) + die: exit(1) = 2 counted instructions.
	if res.Steps != 2 {
		t.Errorf("Steps = %d, want 2", res.Steps)
	}
}

func TestOnStepPhases(t *testing.T) {
	setuid := caps.NewSet(caps.CapSetuid)
	b := ir.NewModuleBuilder("m")
	f := b.Func("main")
	f.Block("entry").
		Compute(3).
		Remove(setuid).
		Compute(2).
		Ret()
	var phases []caps.Set
	opts := Options{OnStep: func(_ *ir.Function, _ *ir.Block, _ ir.Instr, ph caps.PhaseKey) {
		phases = append(phases, ph.Permitted)
	}}
	res, _ := run(t, b.MustBuild(), setuid, opts)
	if res.Steps != int64(len(phases)) {
		t.Fatalf("Steps %d != hook calls %d", res.Steps, len(phases))
	}
	// 3 compute + the remove itself run with the cap still permitted; the 2
	// compute after it plus ret run without.
	wantBefore, wantAfter := 4, 3
	var before, after int
	for _, p := range phases {
		if p.Has(caps.CapSetuid) {
			before++
		} else {
			after++
		}
	}
	if before != wantBefore || after != wantAfter {
		t.Errorf("phase split = %d/%d, want %d/%d", before, after, wantBefore, wantAfter)
	}
}

func TestInterceptor(t *testing.T) {
	b := ir.NewModuleBuilder("m")
	f := b.Func("main")
	f.Block("entry").
		SyscallTo("x", "chrono_marker", ir.I(7)).
		RetVal(ir.R("x"))
	var seen []int64
	opts := Options{Intercept: func(name string, args []vkernel.Arg) (bool, int64, error) {
		if name != "chrono_marker" {
			return false, 0, nil
		}
		seen = append(seen, args[0].Int)
		return true, 99, nil
	}}
	res, _ := run(t, b.MustBuild(), 0, opts)
	if res.Ret != 99 {
		t.Errorf("intercepted ret = %d, want 99", res.Ret)
	}
	if len(seen) != 1 || seen[0] != 7 {
		t.Errorf("seen = %v", seen)
	}
	// The marker is not counted.
	if res.Steps != 1 {
		t.Errorf("Steps = %d, want 1 (ret only)", res.Steps)
	}
}

func TestMainArgs(t *testing.T) {
	b := ir.NewModuleBuilder("m")
	f := b.Func("main", "a", "b")
	f.Block("entry").Bin("r", ir.Add, ir.R("a"), ir.R("b")).RetVal(ir.R("r"))
	res, _ := run(t, b.MustBuild(), 0, Options{MainArgs: []int64{40, 2}})
	if res.Ret != 42 {
		t.Errorf("Ret = %d", res.Ret)
	}
	// Missing args default to zero.
	res2, _ := run(t, b.MustBuild(), 0, Options{})
	if res2.Ret != 0 {
		t.Errorf("Ret = %d, want 0", res2.Ret)
	}
}

func TestDeterministicSteps(t *testing.T) {
	b := ir.NewModuleBuilder("m")
	f := b.Func("main")
	f.Block("entry").Compute(50).Ret()
	m := b.MustBuild()
	r1, _ := run(t, m, 0, Options{})
	r2, _ := run(t, m, 0, Options{})
	if r1.Steps != r2.Steps {
		t.Errorf("nondeterministic step counts: %d vs %d", r1.Steps, r2.Steps)
	}
}
