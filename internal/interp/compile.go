package interp

import (
	"fmt"

	"privanalyzer/internal/ir"
)

// The interpreter pre-compiles each function before execution: virtual
// registers get dense integer slots, branch targets become block indices,
// direct callees become *cfunc pointers, and operands are resolved once.
// Two further steps cut the per-instruction cost that dominates the paper's
// largest workload (sshd's ~63M dynamic instructions, Table III):
//
//   - Segments. Each block is split into straight-line segments, ending
//     after every call, callind and syscall and at the terminator — the
//     only points where the measurement phase can change or an interceptor
//     can act. A segment head records the segment's counted length, so the
//     run charges steps once per segment instead of once per instruction
//     (see machine.call for when it falls back to per-instruction charging).
//   - Operand-shape opcodes. An Add of a register and an integer immediate
//     (the padding chain x = x + 1, and loop counters) is lowered to cAddRI,
//     which adds inline. Any other operand kind at run time takes the
//     generic Bin path.

// copKind is the opcode of a compiled instruction.
type copKind uint8

const (
	cConst copKind = iota + 1
	cBin
	cAddRI // Bin Add of a register and an integer immediate
	cCmp
	cCall
	cCallInd
	cSyscall
	cBr
	cJmp
	cRet
	cUnreachable
)

// cval is a pre-resolved operand: a register slot or an immediate rval.
type cval struct {
	reg int  // register slot when >= 0
	val rval // immediate when reg < 0
}

// cinstr is one compiled instruction. The fields the arithmetic fast paths
// read come first, so that they share the instruction's first cache line.
type cinstr struct {
	op    copKind
	bin   ir.BinKind
	pred  ir.CmpKind
	hasRV bool // ret carries a value (in x)
	dst   int  // destination slot, -1 for none
	// seg is the counted length of the segment this instruction heads, or
	// -1 when it is not a segment head. rest is the number of counted
	// instructions after it in its segment: the charge a failure here
	// must take back. unreachable is never counted.
	seg, rest int64
	x, y      cval
	args      []cval
	fn        string // syscall name
	call      *cfunc // direct-call callee
	t1        int    // branch target block index (then / jmp target)
	t2        int    // else target
	src       ir.Instr
}

// endsSegment reports whether op ends its segment. Terminators end theirs
// too, as the last instruction of the block.
func endsSegment(op copKind) bool {
	return op == cCall || op == cCallInd || op == cSyscall
}

// cblock is a compiled basic block.
type cblock struct {
	b      *ir.Block
	instrs []cinstr
}

// cfunc is a compiled function.
type cfunc struct {
	fn     *ir.Function
	nregs  int
	params []int
	blocks []cblock
}

// compileModule compiles every function of a verified module.
func compileModule(m *ir.Module) (map[string]*cfunc, error) {
	out := make(map[string]*cfunc, len(m.Funcs))
	for _, fn := range m.Funcs {
		out[fn.Name] = &cfunc{fn: fn}
	}
	for _, fn := range m.Funcs {
		if err := compileFunc(out[fn.Name], out); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// compileFunc fills in cf; code holds every function of the module, so
// direct callees resolve here (Verify rejects undefined ones).
func compileFunc(cf *cfunc, code map[string]*cfunc) error {
	fn := cf.fn
	slots := make(map[string]int)
	slot := func(name string) int {
		if s, ok := slots[name]; ok {
			return s
		}
		s := len(slots)
		slots[name] = s
		return s
	}
	blockIdx := make(map[string]int, len(fn.Blocks))
	for i, b := range fn.Blocks {
		blockIdx[b.Name] = i
	}
	for _, p := range fn.Params {
		cf.params = append(cf.params, slot(p))
	}

	cvalOf := func(v ir.Value) (cval, error) {
		switch v.Kind {
		case ir.Reg:
			return cval{reg: slot(v.Reg)}, nil
		case ir.Imm:
			return cval{reg: -1, val: intVal(v.Imm)}, nil
		case ir.FuncRef:
			return cval{reg: -1, val: fnVal(v.Fn)}, nil
		case ir.Str:
			return cval{reg: -1, val: strVal(v.Str)}, nil
		default:
			return cval{}, fmt.Errorf("%w: zero operand in @%s", ErrRuntime, fn.Name)
		}
	}
	cvals := func(vs []ir.Value) ([]cval, error) {
		out := make([]cval, len(vs))
		for i, v := range vs {
			cv, err := cvalOf(v)
			if err != nil {
				return nil, err
			}
			out[i] = cv
		}
		return out, nil
	}
	dstOf := func(name string) int {
		if name == "" {
			return -1
		}
		return slot(name)
	}

	for _, b := range fn.Blocks {
		cb := cblock{b: b, instrs: make([]cinstr, 0, len(b.Instrs))}
		for _, in := range b.Instrs {
			ci := cinstr{src: in, dst: -1, t1: -1, t2: -1}
			var err error
			switch in := in.(type) {
			case *ir.ConstInstr:
				ci.op = cConst
				ci.dst = dstOf(in.Dst)
				ci.x = cval{reg: -1, val: intVal(in.Val)}
			case *ir.BinInstr:
				ci.dst = dstOf(in.Dst)
				ci.bin = in.Op
				if ci.x, err = cvalOf(in.X); err != nil {
					return err
				}
				if ci.y, err = cvalOf(in.Y); err != nil {
					return err
				}
				ci.op = binOp(in, ci.dst)
			case *ir.CmpInstr:
				ci.op = cCmp
				ci.dst = dstOf(in.Dst)
				ci.pred = in.Pred
				if ci.x, err = cvalOf(in.X); err != nil {
					return err
				}
				if ci.y, err = cvalOf(in.Y); err != nil {
					return err
				}
			case *ir.CallInstr:
				ci.op = cCall
				ci.dst = dstOf(in.Dst)
				ci.call = code[in.Callee]
				if ci.args, err = cvals(in.Args); err != nil {
					return err
				}
			case *ir.CallIndInstr:
				ci.op = cCallInd
				ci.dst = dstOf(in.Dst)
				if ci.x, err = cvalOf(in.Fp); err != nil {
					return err
				}
				if ci.args, err = cvals(in.Args); err != nil {
					return err
				}
			case *ir.SyscallInstr:
				ci.op = cSyscall
				ci.dst = dstOf(in.Dst)
				ci.fn = in.Name
				if ci.args, err = cvals(in.Args); err != nil {
					return err
				}
			case *ir.BrInstr:
				ci.op = cBr
				if ci.x, err = cvalOf(in.Cond); err != nil {
					return err
				}
				ci.t1 = blockIdx[in.Then]
				ci.t2 = blockIdx[in.Else]
			case *ir.JmpInstr:
				ci.op = cJmp
				ci.t1 = blockIdx[in.Target]
			case *ir.RetInstr:
				ci.op = cRet
				if !in.Val.IsZero() {
					ci.hasRV = true
					if ci.x, err = cvalOf(in.Val); err != nil {
						return err
					}
				}
			case *ir.UnreachableInstr:
				ci.op = cUnreachable
			default:
				return fmt.Errorf("%w: unknown instruction %T", ErrRuntime, in)
			}
			cb.instrs = append(cb.instrs, ci)
		}
		markSegments(cb.instrs)
		cf.blocks = append(cf.blocks, cb)
	}
	cf.nregs = len(slots)
	return nil
}

// binOp picks the opcode for a Bin from its operator and operand shape.
// The shape is only what the IR states; the run still checks operand kinds
// and sends anything but two integers to the generic path.
func binOp(in *ir.BinInstr, dst int) copKind {
	if in.Op == ir.Add && in.X.Kind == ir.Reg && in.Y.Kind == ir.Imm && dst >= 0 {
		return cAddRI
	}
	return cBin
}

// markSegments splits one block's instructions into segments and records
// each head's counted length and each instruction's counted remainder.
func markSegments(instrs []cinstr) {
	start := 0
	for i := range instrs {
		if !endsSegment(instrs[i].op) && i < len(instrs)-1 {
			continue
		}
		var n int64
		for j := i; j >= start; j-- {
			instrs[j].seg, instrs[j].rest = -1, n
			if instrs[j].op != cUnreachable {
				n++
			}
		}
		instrs[start].seg = n
		start = i + 1
	}
}
