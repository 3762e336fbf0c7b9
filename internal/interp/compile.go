package interp

import (
	"fmt"

	"privanalyzer/internal/ir"
)

// The interpreter pre-compiles each function before execution: virtual
// registers get dense integer slots, branch targets become block indices,
// direct callees become *cfunc pointers, and operands are resolved once.
// Four further steps cut the per-instruction cost that dominates the paper's
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
//   - Dead filler. The calibrated padding (ir.BlockBuilder.Compute) is a
//     const and a chain of adds into a scratch register nothing reads. An
//     instruction is dead when it is pure (const, bin, cmp), cannot fail,
//     and no kept instruction reads its destination (see markDead). A
//     charged segment has already paid for every instruction in it, so the
//     run skips dead ones through cinstr.next; a segment charged one
//     instruction at a time still executes them all. Skipping is exact: a
//     dead instruction raises no error, and the value it would have written
//     is read only by other dead instructions of the same segment, which
//     run or are skipped together with it.
//   - Counted loops. A loop whose header is exactly c = cmp lt i, n;
//     br c, body, exit and whose body is one segment of dead filler, the
//     increment i = i + k (k > 0) and jmp header is marked on its header
//     (see markLoops), and a charged run takes it in closed form
//     (machine.countedLoop): trip = ceil((n - i) / k) iterations charge
//     trip × (header + body) + header at once, i ends at i + trip × k and
//     c at 0. Exactness rests on three guards. The loop is stepped when the
//     remaining fuel is below the charge, so ErrOutOfFuel names the same
//     instruction; when i + trip × k or the charge would overflow int64,
//     where stepping wraps i; and when i or n is not an integer, where
//     stepping raises the error. Nothing else in the loop can fail, so it
//     never owes a refund; a profiled run adds (trip + 1) × header and
//     trip × body to the two blocks' counters, as stepping would.

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

// noOperand fills the operand fields an instruction does not use, so that
// every register operand is one the instruction reads.
var noOperand = cval{reg: -1}

// cinstr is one compiled instruction. The fields the arithmetic fast paths
// read come first, so that they share the instruction's first cache line.
type cinstr struct {
	op    copKind
	bin   ir.BinKind
	pred  ir.CmpKind
	hasRV bool // ret carries a value (in x)
	// dead marks a pure, infallible instruction whose result no kept
	// instruction reads. next is the index of the next instruction that is
	// not dead or heads a segment: where a charged segment goes after this
	// one.
	dead bool
	next int
	dst  int // destination slot, -1 for none
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
	loop   *cloop // set when the block heads a counted loop (markLoops)
}

// cloop is a counted loop, held by its header block (see markLoops).
type cloop struct {
	i, c       int   // induction and condition register slots
	n          cval  // bound: an immediate or a register the loop never writes
	k          int64 // step, > 0
	body, exit int   // block indices
	head, per  int64 // counted length of the header, and of header plus body
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
			ci := cinstr{src: in, dst: -1, t1: -1, t2: -1, x: noOperand, y: noOperand}
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
	markDead(cf)
	markLoops(cf)
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

// knownInt reports whether operand cv holds an integer whenever it is read,
// given the registers marked in ints.
func knownInt(cv cval, ints []bool) bool {
	if cv.reg < 0 {
		return cv.val.kind == rInt
	}
	return ints[cv.reg]
}

// infallible reports whether in is pure (it only computes its destination
// from its operands) and cannot fail, given the registers known to hold
// integers: a const always, and a bin or cmp on two integers unless it
// divides or its operator is unknown.
func infallible(in *cinstr, ints []bool) bool {
	switch in.op {
	case cConst:
		return true
	case cBin, cAddRI:
		switch in.bin {
		case ir.Add, ir.Sub, ir.Mul, ir.And, ir.Or, ir.Xor, ir.Shl, ir.Shr:
			return knownInt(in.x, ints) && knownInt(in.y, ints)
		}
	case cCmp:
		switch in.pred {
		case ir.Eq, ir.Ne, ir.Lt, ir.Le, ir.Gt, ir.Ge:
			return knownInt(in.x, ints) && knownInt(in.y, ints)
		}
	}
	return false
}

// markDead marks cf's dead instructions and links each instruction to the
// next one a charged segment executes.
//
// An instruction may be dead only if it is pure and infallible. A forward
// scan over each segment tracks which registers are known to hold integers:
// a pure, infallible instruction defines one, any other definition clears
// the mark, and every segment starts with none marked (params and call
// results may hold anything). Starting afresh at each segment head keeps
// every register a dead instruction reads defined earlier in its own
// segment, which runs or is skipped as a whole.
//
// Of those, the dead are the ones whose destination is useless. Usefulness
// is a mark-sweep fixpoint over the whole function: every register read by
// a kept instruction is useful, and every pure instruction defining a
// useful register is kept. The roots are the instructions kept whatever
// their destination: calls, syscalls, terminators, and fallible pure
// instructions, whose error must still be raised.
func markDead(cf *cfunc) {
	ints := make([]bool, cf.nregs)
	defs := make([][]*cinstr, cf.nregs) // dead candidates by destination
	var work []*cinstr                  // kept instructions to sweep
	for bi := range cf.blocks {
		instrs := cf.blocks[bi].instrs
		for ii := range instrs {
			in := &instrs[ii]
			if in.seg >= 0 {
				clear(ints)
			}
			in.dead = infallible(in, ints)
			if in.dst >= 0 {
				ints[in.dst] = in.dead
				if in.dead {
					defs[in.dst] = append(defs[in.dst], in)
				}
			}
			if !in.dead {
				work = append(work, in)
			}
		}
	}
	useful := make([]bool, cf.nregs)
	for len(work) > 0 {
		in := work[len(work)-1]
		work = work[:len(work)-1]
		for _, cv := range append([]cval{in.x, in.y}, in.args...) {
			if cv.reg < 0 || useful[cv.reg] {
				continue
			}
			useful[cv.reg] = true
			for _, d := range defs[cv.reg] {
				d.dead = false
				work = append(work, d)
			}
		}
	}
	for bi := range cf.blocks {
		instrs := cf.blocks[bi].instrs
		next := len(instrs)
		for ii := len(instrs) - 1; ii >= 0; ii-- {
			instrs[ii].next = next
			if !instrs[ii].dead || instrs[ii].seg >= 0 {
				next = ii
			}
		}
	}
}

// markLoops marks cf's counted loops on their header blocks. A header is a
// block of exactly
//
//	c = cmp lt i, n
//	br c, body, exit
//
// with i, c and a register n all distinct, and body, exit and the header
// three different blocks. The body must be a single segment ending in
// jmp header in which every instruction but the jmp is dead except one,
// the increment i = i + k with an immediate k > 0 (cAddRI).
//
// Such a loop writes no register but i and c: a dead instruction never
// writes i, n or c, because the kept cmp and br read them (markDead). It
// holds no call, syscall or unreachable, so its phase cannot change, and
// once i and n hold integers none of its instructions can fail. Its run
// is then fixed by i, n and k alone; machine.countedLoop charges it in
// closed form.
func markLoops(cf *cfunc) {
	for hi := range cf.blocks {
		h := cf.blocks[hi].instrs
		if len(h) != 2 || h[0].op != cCmp || h[0].pred != ir.Lt || h[1].op != cBr {
			continue
		}
		cmp, br := &h[0], &h[1]
		i, c, n := cmp.x.reg, cmp.dst, cmp.y.reg
		if i < 0 || c < 0 || c == i || br.x.reg != c || n == i || n == c {
			continue
		}
		bi, exit := br.t1, br.t2
		if bi == hi || exit == hi || exit == bi {
			continue
		}
		body := cf.blocks[bi].instrs
		if len(body) == 0 || body[0].seg != int64(len(body)) {
			continue
		}
		if last := body[len(body)-1]; last.op != cJmp || last.t1 != hi {
			continue
		}
		k, ok := int64(0), true // k == 0: no increment seen yet
		for j := range body[:len(body)-1] {
			switch in := &body[j]; {
			case in.dead:
			case k == 0 && in.op == cAddRI && in.dst == i && in.x.reg == i && in.y.val.i > 0:
				k = in.y.val.i
			default:
				ok = false
			}
		}
		if !ok || k == 0 {
			continue
		}
		cf.blocks[hi].loop = &cloop{i: i, c: c, n: cmp.y, k: k, body: bi, exit: exit,
			head: h[0].seg, per: h[0].seg + body[0].seg}
	}
}
