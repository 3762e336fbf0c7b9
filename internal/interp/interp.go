// Package interp executes IR modules against a simulated kernel. It is the
// dynamic-execution substrate ChronoPriv measures: every counted instruction
// is charged to the process's current measurement phase (permitted
// privilege set plus the six user/group IDs), reported per instruction to
// Options.OnStep or in per-phase batches to Options.OnSteps, and syscall
// instructions are dispatched to the vkernel, which enforces the same
// capability and DAC semantics the ROSA model checker reasons about.
//
// Functions are pre-compiled to a register-slot form (see compile.go) and
// charged one straight-line segment at a time, skipping dead filler, and a
// counted loop (cmp lt i, n; an increment i += k and dead filler) is
// charged in closed form: trip × (header + body) + header instructions in
// one step. The counts are exact at every edge: a loop is stepped instead
// when the remaining fuel is below its charge (so ErrOutOfFuel names the
// same instruction), when i + trip × k or the charge would overflow int64,
// when i or n is not an integer, and whenever OnStep or Intercept is set;
// nothing in such a loop can fail, so it never owes a refund; and the hot-
// block profile gets the per-block counts stepping would leave. The
// paper's largest dynamic workload, sshd's ~63M instructions in Table III,
// executes in a few milliseconds, because its count is almost all padding
// loops (programs.work).
package interp

import (
	"errors"
	"fmt"
	"log/slog"
	"math"
	"time"

	"privanalyzer/internal/caps"
	"privanalyzer/internal/ir"
	"privanalyzer/internal/vkernel"
)

// Interpreter failure modes.
var (
	// ErrOutOfFuel means the run exceeded Options.Fuel dynamic instructions.
	ErrOutOfFuel = errors.New("interp: out of fuel")
	// ErrUnreachable means the program executed an unreachable instruction,
	// which terminates the program (LLVM semantics; the paper's ChronoPriv
	// omits unreachable from its counts for the same reason).
	ErrUnreachable = errors.New("interp: executed unreachable")
	// ErrRuntime wraps all other dynamic failures (undefined registers,
	// division by zero, bad indirect call, stack overflow).
	ErrRuntime = errors.New("interp: runtime error")
)

// defaultFuel bounds runs that forget to set Options.Fuel.
const defaultFuel = int64(1_000_000_000)

// maxCallDepth bounds recursion.
const maxCallDepth = 10_000

// StepHook observes one counted instruction about to execute. phase is the
// process's measurement phase before the instruction runs.
type StepHook func(fn *ir.Function, blk *ir.Block, in ir.Instr, phase caps.PhaseKey)

// Interceptor may claim a syscall before the kernel sees it; ChronoPriv's
// runtime uses this for its instrumentation markers. Returning handled=false
// passes the call through to the kernel.
type Interceptor func(name string, args []vkernel.Arg) (handled bool, ret int64, err error)

// Options configures a run.
type Options struct {
	// Fuel bounds the number of dynamic instructions; 0 means a large
	// default.
	Fuel int64
	// MainArgs binds the parameters of main, in order; missing ones are 0.
	MainArgs []int64
	// OnStep, if set, observes every counted instruction. Setting it or
	// Intercept makes the run charge instructions one at a time rather
	// than a straight-line segment or a counted loop at once: same counts,
	// more cost.
	OnStep StepHook
	// OnSteps, if set, observes counted instructions in batches: it fires
	// at every phase boundary (credentials change only inside syscalls) and
	// once at run end, with the number of instructions executed under the
	// given phase since the previous report. Totals per phase are identical
	// to OnStep's, at a fraction of the cost — ChronoPriv's bulk counting
	// path. Independent of OnStep; both may be set.
	OnSteps func(n int64, phase caps.PhaseKey)
	// Intercept, if set, may claim syscalls before kernel dispatch.
	// Intercepted syscalls are not counted as executed instructions.
	Intercept Interceptor
	// Profile collects the hot-block profile (counted instructions per
	// basic block), reported in Result.Profile. It keeps segment and
	// counted-loop charging, adding one slice update per charge: a
	// segment head adds the segment's length to its block, a counted loop
	// adds its header's and its body's totals, and a failure takes back
	// what never ran. The counts equal a per-instruction run's.
	Profile bool
	// Logger, if set, receives a debug record when the run finishes (steps,
	// elapsed time, exit mode). Nil keeps the interpreter silent.
	Logger *slog.Logger
}

// Result summarises a completed run.
type Result struct {
	// Ret is main's return value (0 for a void return or exit).
	Ret int64
	// Steps is the number of counted instructions executed.
	Steps int64
	// Exited reports whether the program ended via the exit syscall rather
	// than returning from main.
	Exited bool
	// Profile is the hot-block profile; nil unless Options.Profile was set.
	Profile *BlockProfile
	// Elapsed is the wall-clock execution time of the run.
	Elapsed time.Duration
}

// rkind discriminates runtime values.
type rkind uint8

const (
	rInt rkind = iota + 1
	rStr
	rFn
)

// rval is a runtime value: an integer, a string, or a function reference.
type rval struct {
	kind rkind
	i    int64
	s    string // the string, or the function name of an rFn
}

func intVal(v int64) rval    { return rval{kind: rInt, i: v} }
func strVal(s string) rval   { return rval{kind: rStr, s: s} }
func fnVal(name string) rval { return rval{kind: rFn, s: name} }

// machine is the per-run interpreter state.
type machine struct {
	m      *ir.Module
	code   map[string]*cfunc
	k      *vkernel.Kernel
	opts   Options
	fuel   int64
	steps  int64
	depth  int
	exited bool
	prof   *BlockProfile // nil unless Options.Profile
	// perInstr makes every segment charge per instruction and every
	// counted loop step: OnStep and Intercept each need to see
	// instructions one at a time.
	perInstr bool
	// loopsClosed and loopsStepped count the counted-loop header entries
	// charged in closed form and those stepped instead.
	loopsClosed, loopsStepped int64

	// phase caches the current process's measurement phase. Credentials
	// change only inside kernel syscalls, so the cache is refreshed after
	// every Invoke and read everywhere else — the step hooks never pay a
	// per-instruction phase computation.
	phase caps.PhaseKey
	// flushed is steps at the last OnSteps report; the instructions since
	// then all ran under phase.
	flushed int64
}

// flushSteps reports the pending instruction batch to OnSteps.
func (vm *machine) flushSteps() {
	if n := vm.steps - vm.flushed; n > 0 && vm.opts.OnSteps != nil {
		vm.opts.OnSteps(n, vm.phase)
	}
	vm.flushed = vm.steps
}

// syncPhase refreshes the cached phase after a syscall, flushing the batch
// executed under the old phase first.
func (vm *machine) syncPhase() {
	ph := vm.k.Current().Creds.Phase()
	if ph != vm.phase {
		vm.flushSteps()
		vm.phase = ph
	}
}

// Run executes module m's main function on kernel k. The kernel must have a
// current process (the program under measurement). The module must verify.
func Run(m *ir.Module, k *vkernel.Kernel, opts Options) (*Result, error) {
	res, _, err := execute(m, k, opts)
	return res, err
}

// execute is Run that also returns the machine, once execution has begun, so
// tests can read its loop counters and a failed run's profile.
func execute(m *ir.Module, k *vkernel.Kernel, opts Options) (*Result, *machine, error) {
	if err := m.Verify(); err != nil {
		return nil, nil, fmt.Errorf("interp: %w", err)
	}
	main := m.Main()
	if main == nil {
		return nil, nil, fmt.Errorf("%w: module %q has no main", ErrRuntime, m.Name)
	}
	if k.Current() == nil {
		return nil, nil, fmt.Errorf("%w: kernel has no current process", ErrRuntime)
	}
	code, err := compileModule(m)
	if err != nil {
		return nil, nil, err
	}
	vm := &machine{m: m, code: code, k: k, opts: opts, fuel: opts.Fuel,
		perInstr: opts.OnStep != nil || opts.Intercept != nil}
	vm.phase = k.Current().Creds.Phase()
	if vm.fuel <= 0 {
		vm.fuel = defaultFuel
	}
	if opts.Profile {
		vm.prof = newBlockProfile()
	}
	cf := code["main"]
	args := make([]rval, len(main.Params))
	for i := range main.Params {
		if i < len(opts.MainArgs) {
			args[i] = intVal(opts.MainArgs[i])
		} else {
			args[i] = intVal(0)
		}
	}
	began := time.Now()
	ret, err := vm.call(cf, args)
	vm.flushSteps()
	if err != nil {
		return nil, vm, err
	}
	res := &Result{Steps: vm.steps, Exited: vm.exited, Profile: vm.prof, Elapsed: time.Since(began)}
	if ret.kind == rInt {
		res.Ret = ret.i
	}
	if opts.Logger != nil {
		opts.Logger.Debug("interp run done",
			"component", "interp",
			"module", m.Name,
			"steps", res.Steps,
			"exited", res.Exited,
			"elapsed", res.Elapsed)
	}
	return res, vm, nil
}

// eval resolves a pre-compiled operand. It is small enough to inline; the
// error construction lives in undefErr to keep it that way.
func (vm *machine) eval(cv cval, regs []rval, cf *cfunc) (rval, error) {
	if cv.reg < 0 {
		return cv.val, nil
	}
	v := regs[cv.reg]
	if v.kind == 0 {
		return rval{}, undefErr(cf)
	}
	return v, nil
}

func undefErr(cf *cfunc) error {
	return fmt.Errorf("%w: undefined register in @%s", ErrRuntime, cf.fn.Name)
}

// intOperand resolves an operand for the integer fast path: the value and
// kind, without copying the full rval. Callers check the kind and fall back
// to eval for exact error attribution when it is not rInt.
func intOperand(cv *cval, regs []rval) (int64, rkind) {
	if cv.reg < 0 {
		return cv.val.i, cv.val.kind
	}
	r := &regs[cv.reg]
	return r.i, r.kind
}

// setInt overwrites a register with an integer without touching the string
// fields, so the store needs no GC write barrier — the difference is
// measurable at tens of millions of instructions. A stale string left in an
// rInt register is unreadable: kind gates every access.
func setInt(r *rval, v int64) {
	r.kind = rInt
	r.i = v
}

// call executes one compiled function to completion.
//
// Steps are charged one segment at a time (see compile.go): at a segment
// head the whole segment is charged at once, provided the run needs no
// per-instruction view (vm.perInstr) and the remaining fuel covers it.
// Otherwise the segment is charged per instruction, which raises
// ErrOutOfFuel at exactly the instruction it always did. A failure partway
// through a charged segment refunds the instructions that never ran, so
// Steps and the OnSteps totals match per-instruction charging exactly. A
// charged segment skips its dead instructions; a segment charged per
// instruction executes every one. On the same condition, entering a
// counted loop's header charges the whole loop at once (countedLoop).
func (vm *machine) call(cf *cfunc, args []rval) (rval, error) {
	if vm.depth >= maxCallDepth {
		return rval{}, fmt.Errorf("%w: call depth exceeded in @%s", ErrRuntime, cf.fn.Name)
	}
	vm.depth++
	defer func() { vm.depth-- }()

	regs := make([]rval, cf.nregs)
	for i, slot := range cf.params {
		if i < len(args) {
			regs[slot] = args[i]
		} else {
			regs[slot] = intVal(0)
		}
	}

	hook := vm.opts.OnStep
	var bcounts []int64
	if vm.prof != nil {
		bcounts = vm.prof.slots(cf)
	}
	charged := false // the current segment was charged at its head
	bi := 0
block:
	for {
		cb := &cf.blocks[bi]
		if lp := cb.loop; lp != nil && !vm.perInstr {
			if trip, ok := vm.countedLoop(lp, regs); ok {
				if bcounts != nil {
					bcounts[bi] += (trip + 1) * lp.head
					bcounts[lp.body] += trip * (lp.per - lp.head)
				}
				bi = lp.exit
				continue
			}
		}
		for ii := 0; ii < len(cb.instrs); {
			in := &cb.instrs[ii]

			if in.seg >= 0 {
				charged = !vm.perInstr && vm.fuel-vm.steps >= in.seg
				if charged {
					vm.steps += in.seg
					if bcounts != nil {
						bcounts[bi] += in.seg
					}
					if in.dead {
						ii = in.next
						continue
					}
				}
			}
			if !charged {
				// Instrumentation markers claimed by the interceptor are
				// invisible to counting and to the kernel.
				if in.op == cSyscall && vm.opts.Intercept != nil {
					kargs, err := vm.kernelArgs(in.args, regs, cf)
					if err != nil {
						return rval{}, err
					}
					handled, r, herr := vm.opts.Intercept(in.fn, kargs)
					if herr != nil {
						return rval{}, fmt.Errorf("%w: interceptor: %v", ErrRuntime, herr)
					}
					if handled {
						if in.dst >= 0 {
							regs[in.dst] = intVal(r)
						}
						ii++
						continue
					}
				}
				if in.op != cUnreachable {
					if vm.steps >= vm.fuel {
						return rval{}, fmt.Errorf("%w after %d instructions", ErrOutOfFuel, vm.steps)
					}
					if hook != nil {
						hook(cf.fn, cb.b, in.src, vm.phase)
					}
					vm.steps++
					if bcounts != nil {
						bcounts[bi]++
					}
				}
			}

			switch in.op {
			case cConst:
				if in.dst >= 0 {
					setInt(&regs[in.dst], in.x.val.i) // cConst immediates are always integers
				}
			case cAddRI:
				if r := &regs[in.x.reg]; r.kind == rInt {
					setInt(&regs[in.dst], r.i+in.y.val.i)
				} else if err := vm.binGeneric(in, regs, cf); err != nil {
					return rval{}, vm.refund(in, charged, bcounts, bi, err)
				}
			case cBin:
				xi, xk := intOperand(&in.x, regs)
				yi, yk := intOperand(&in.y, regs)
				if xk == rInt && yk == rInt {
					v, err := binInt(in.bin, xi, yi)
					if err != nil {
						return rval{}, vm.refund(in, charged, bcounts, bi, err)
					}
					if in.dst >= 0 {
						setInt(&regs[in.dst], v)
					}
				} else if err := vm.binGeneric(in, regs, cf); err != nil {
					return rval{}, vm.refund(in, charged, bcounts, bi, err)
				}
			case cCmp:
				xi, xk := intOperand(&in.x, regs)
				yi, yk := intOperand(&in.y, regs)
				if xk != rInt || yk != rInt {
					// Re-resolve through eval so undefined registers get
					// their exact error.
					if _, err := vm.eval(in.x, regs, cf); err != nil {
						return rval{}, vm.refund(in, charged, bcounts, bi, err)
					}
					if _, err := vm.eval(in.y, regs, cf); err != nil {
						return rval{}, vm.refund(in, charged, bcounts, bi, err)
					}
					return rval{}, vm.refund(in, charged, bcounts, bi, fmt.Errorf("%w: cmp on non-integer operands", ErrRuntime))
				}
				var b bool
				switch in.pred {
				case ir.Eq:
					b = xi == yi
				case ir.Ne:
					b = xi != yi
				case ir.Lt:
					b = xi < yi
				case ir.Le:
					b = xi <= yi
				case ir.Gt:
					b = xi > yi
				case ir.Ge:
					b = xi >= yi
				default:
					return rval{}, vm.refund(in, charged, bcounts, bi, fmt.Errorf("%w: unknown predicate", ErrRuntime))
				}
				if in.dst >= 0 {
					if b {
						setInt(&regs[in.dst], 1)
					} else {
						setInt(&regs[in.dst], 0)
					}
				}
			// Calls, syscalls and terminators end their segment, so a
			// failure in one has nothing to refund.
			case cCall:
				r, err := vm.dispatchCall(in.call, in, regs, cf)
				if err != nil {
					return rval{}, err
				}
				if vm.exited {
					return rval{}, nil
				}
				if in.dst >= 0 {
					regs[in.dst] = r
				}
			case cCallInd:
				fp, err := vm.eval(in.x, regs, cf)
				if err != nil {
					return rval{}, err
				}
				if fp.kind != rFn {
					return rval{}, fmt.Errorf("%w: indirect call through non-function value in @%s", ErrRuntime, cf.fn.Name)
				}
				callee := vm.code[fp.s]
				if callee == nil {
					return rval{}, fmt.Errorf("%w: indirect call to undefined @%s", ErrRuntime, fp.s)
				}
				r, err := vm.dispatchCall(callee, in, regs, cf)
				if err != nil {
					return rval{}, err
				}
				if vm.exited {
					return rval{}, nil
				}
				if in.dst >= 0 {
					regs[in.dst] = r
				}
			case cSyscall:
				kargs, err := vm.kernelArgs(in.args, regs, cf)
				if err != nil {
					return rval{}, err
				}
				r, err := vm.k.Invoke(in.fn, kargs)
				if err != nil {
					return rval{}, fmt.Errorf("%w: syscall %s: %v", ErrRuntime, in.fn, err)
				}
				// The syscall instruction itself was counted under the phase
				// in effect before it ran; refresh the cache for whatever
				// follows (syscalls are the only credential mutators).
				vm.syncPhase()
				if in.dst >= 0 {
					regs[in.dst] = intVal(r)
				}
				if in.fn == "exit" {
					vm.exited = true
					return rval{}, nil
				}
			case cBr:
				ci, ck := intOperand(&in.x, regs)
				if ck != rInt {
					if _, err := vm.eval(in.x, regs, cf); err != nil {
						return rval{}, err
					}
					return rval{}, fmt.Errorf("%w: branch on non-integer in @%s", ErrRuntime, cf.fn.Name)
				}
				if ci != 0 {
					bi = in.t1
				} else {
					bi = in.t2
				}
				continue block
			case cJmp:
				bi = in.t1
				continue block
			case cRet:
				if !in.hasRV {
					return intVal(0), nil
				}
				return vm.eval(in.x, regs, cf)
			case cUnreachable:
				return rval{}, fmt.Errorf("%w at @%s:%s", ErrUnreachable, cf.fn.Name, cb.b.Name)
			}
			// A charged segment has paid for its dead instructions; skip
			// them (compile.go).
			next := ii + 1
			if charged {
				next = in.next
			}
			ii = next
		}
		return rval{}, fmt.Errorf("%w: block @%s:%s fell through", ErrRuntime, cf.fn.Name, cb.b.Name)
	}
}

// refund takes back the part of a segment charge that a failure at in, in
// block bi, kept from running, from the steps and from the block's profile
// counter, and passes err through.
func (vm *machine) refund(in *cinstr, charged bool, bcounts []int64, bi int, err error) error {
	if charged {
		vm.steps -= in.rest
		if bcounts != nil {
			bcounts[bi] -= in.rest
		}
	}
	return err
}

// countedLoop charges counted loop lp (compile.go), entered at its header,
// in closed form and reports its trip count: trip iterations of header and
// body plus the final header, with i and c left as stepping leaves them,
// i advanced by trip × k and c = 0. It charges nothing and reports false
// when the loop must be stepped instead: when i or n does not hold an
// integer (stepping raises the error), when i + trip × k or the charge
// would overflow int64 (stepping wraps i), and when the remaining fuel is
// below the charge, so that ErrOutOfFuel names the instruction it always
// did. Phases change only inside syscalls, so the whole charge falls in the
// current OnSteps batch.
func (vm *machine) countedLoop(lp *cloop, regs []rval) (int64, bool) {
	r := &regs[lp.i]
	n, nk := intOperand(&lp.n, regs)
	if r.kind != rInt || nk != rInt {
		vm.loopsStepped++
		return 0, false
	}
	var trip uint64
	if r.i < n {
		// n − i and MaxInt64 − i are exact in uint64.
		d, k := uint64(n)-uint64(r.i), uint64(lp.k)
		trip = d / k
		if d%k != 0 {
			trip++
		}
		if trip > (math.MaxInt64-uint64(r.i))/k || trip > uint64(math.MaxInt64-lp.head)/uint64(lp.per) {
			vm.loopsStepped++
			return 0, false
		}
	}
	charge := int64(trip)*lp.per + lp.head
	if vm.fuel-vm.steps < charge {
		vm.loopsStepped++
		return 0, false
	}
	vm.steps += charge
	setInt(r, r.i+int64(trip)*lp.k)
	setInt(&regs[lp.c], 0)
	vm.loopsClosed++
	return int64(trip), true
}

// binGeneric is the Bin path for anything but two integers: function-pointer
// arithmetic, undefined registers and type errors.
func (vm *machine) binGeneric(in *cinstr, regs []rval, cf *cfunc) error {
	x, err := vm.eval(in.x, regs, cf)
	if err != nil {
		return err
	}
	y, err := vm.eval(in.y, regs, cf)
	if err != nil {
		return err
	}
	v, err := evalBin(in.bin, x, y)
	if err != nil {
		return err
	}
	if in.dst >= 0 {
		regs[in.dst] = v
	}
	return nil
}

// dispatchCall evaluates call arguments and invokes the callee.
func (vm *machine) dispatchCall(callee *cfunc, in *cinstr, regs []rval, cf *cfunc) (rval, error) {
	args := make([]rval, len(in.args))
	for i, a := range in.args {
		v, err := vm.eval(a, regs, cf)
		if err != nil {
			return rval{}, err
		}
		args[i] = v
	}
	return vm.call(callee, args)
}

// kernelArgs converts operands to kernel syscall arguments. Function
// references become string arguments carrying the function name (used by the
// signal syscall's handler argument).
func (vm *machine) kernelArgs(cvs []cval, regs []rval, cf *cfunc) ([]vkernel.Arg, error) {
	out := make([]vkernel.Arg, len(cvs))
	for i, cv := range cvs {
		v, err := vm.eval(cv, regs, cf)
		if err != nil {
			return nil, err
		}
		switch v.kind {
		case rInt:
			out[i] = vkernel.IntArg(v.i)
		case rStr:
			out[i] = vkernel.StrArg(v.s)
		case rFn:
			out[i] = vkernel.StrArg("@" + v.s)
		}
	}
	return out, nil
}

// evalBin applies a binary operation. Function-pointer arithmetic (fn + 0)
// keeps the reference, supporting the address-taken idiom used by
// indirect-call models.
func evalBin(op ir.BinKind, x, y rval) (rval, error) {
	if op == ir.Add {
		if x.kind == rFn && y.kind == rInt && y.i == 0 {
			return x, nil
		}
		if y.kind == rFn && x.kind == rInt && x.i == 0 {
			return y, nil
		}
	}
	if x.kind != rInt || y.kind != rInt {
		return rval{}, fmt.Errorf("%w: %s on non-integer operands", ErrRuntime, op)
	}
	v, err := binInt(op, x.i, y.i)
	if err != nil {
		return rval{}, err
	}
	return intVal(v), nil
}

// binInt applies a binary operation to two integers — the interpreter's
// arithmetic fast path.
func binInt(op ir.BinKind, x, y int64) (int64, error) {
	switch op {
	case ir.Add:
		return x + y, nil
	case ir.Sub:
		return x - y, nil
	case ir.Mul:
		return x * y, nil
	case ir.Div:
		if y == 0 {
			return 0, fmt.Errorf("%w: division by zero", ErrRuntime)
		}
		return x / y, nil
	case ir.Rem:
		if y == 0 {
			return 0, fmt.Errorf("%w: remainder by zero", ErrRuntime)
		}
		return x % y, nil
	case ir.And:
		return x & y, nil
	case ir.Or:
		return x | y, nil
	case ir.Xor:
		return x ^ y, nil
	case ir.Shl:
		return x << (uint64(y) & 63), nil
	case ir.Shr:
		return x >> (uint64(y) & 63), nil
	default:
		return 0, fmt.Errorf("%w: unknown binary op", ErrRuntime)
	}
}
