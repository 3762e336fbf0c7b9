package interp

import (
	"math"
	"testing"

	"privanalyzer/internal/caps"
	"privanalyzer/internal/ir"
)

// loopCase is a segmentCase around one loop, with whether a charged run
// takes the loop in closed form.
type loopCase struct {
	segmentCase
	// closed reports that a charged run with ample fuel charges some entry
	// of the loop in closed form.
	closed bool
	// fuel caps the runs of a loop that would not end; 0 for none.
	fuel int64
}

// loopWork is a work body holding one loop: setup fills the entry block,
// the header tests c = cmp pred i, bound, body fills the loop body ahead
// of its jmp back, and the exit returns 2i + c, so that a run's return
// value pins both registers the closed form sets.
func loopWork(setup func(*ir.BlockBuilder), pred ir.CmpKind, bound ir.Value, body func(*ir.BlockBuilder)) func(*ir.FuncBuilder) {
	return func(f *ir.FuncBuilder) {
		entry := f.Block("entry")
		setup(entry)
		entry.Jmp("h")
		f.Block("h").Cmp("c", pred, ir.R("i"), bound).Br(ir.R("c"), "b", "x")
		b := f.Block("b")
		body(b)
		b.Jmp("h")
		f.Block("x").
			Compute(2).
			Bin("r", ir.Mul, ir.R("i"), ir.I(2)).
			Bin("r", ir.Add, ir.R("r"), ir.R("c")).
			RetVal(ir.R("r"))
	}
}

// from sets i to v in the entry block.
func from(v int64) func(*ir.BlockBuilder) {
	return func(bb *ir.BlockBuilder) { bb.Compute(2).Const("i", v) }
}

// padThenStep is a loop body of pad dead instructions and i += k.
func padThenStep(pad int, k int64) func(*ir.BlockBuilder) {
	return func(bb *ir.BlockBuilder) { bb.Compute(pad).Bin("i", ir.Add, ir.R("i"), ir.I(k)) }
}

// loopCases covers the counted-loop shape charged in closed form and its
// near-misses, each of which must be stepped.
func loopCases() []loopCase {
	lc := func(name string, closed bool, fuel int64, wantErr error, body func(*ir.FuncBuilder), args ...ir.Value) loopCase {
		return loopCase{segmentCase{name, phasedModule(body, args...), wantErr}, closed, fuel}
	}
	return []loopCase{
		lc("counted loop", true, 0, nil,
			loopWork(from(0), ir.Lt, ir.I(5), padThenStep(6, 1))),
		lc("counted loop with a register bound and step 3", true, 0, nil,
			loopWork(func(bb *ir.BlockBuilder) { bb.Const("i", 2).Const("n", 17) }, ir.Lt, ir.R("n"), padThenStep(4, 3))),
		lc("counted loop bound by a parameter", true, 0, nil,
			loopWork(from(-3), ir.Lt, ir.R("p"), padThenStep(3, 2)), ir.I(8)),
		lc("counted loop not entered", true, 0, nil,
			loopWork(from(9), ir.Lt, ir.I(5), padThenStep(6, 1))),
		lc("counted loop without filler", true, 0, nil,
			loopWork(from(0), ir.Lt, ir.I(4), padThenStep(0, 1))),
		lc("counted loop ending at MaxInt64", true, 0, nil,
			loopWork(from(math.MaxInt64-10), ir.Lt, ir.I(math.MaxInt64), padThenStep(2, 5))),
		lc("counted loop entered twice", true, 0, nil, func(f *ir.FuncBuilder) {
			f.Block("entry").Const("o", 0).Jmp("oh")
			f.Block("oh").Cmp("oc", ir.Le, ir.R("o"), ir.I(1)).Br(ir.R("oc"), "init", "out")
			f.Block("init").Const("i", 0).Jmp("h")
			f.Block("h").Cmp("c", ir.Lt, ir.R("i"), ir.I(4)).Br(ir.R("c"), "b", "x")
			f.Block("b").Compute(5).Bin("i", ir.Add, ir.R("i"), ir.I(1)).Jmp("h")
			f.Block("x").Bin("o", ir.Add, ir.R("o"), ir.I(1)).Jmp("oh")
			f.Block("out").RetVal(ir.R("i"))
		}),

		// Near-misses: shapes the pass must not mark, and marked loops
		// whose entry state must be stepped.
		lc("bound written in the body", false, 0, nil,
			loopWork(func(bb *ir.BlockBuilder) { bb.Const("i", 0).Const("n", 5) }, ir.Lt, ir.R("n"),
				func(bb *ir.BlockBuilder) {
					bb.Compute(3).Bin("n", ir.Add, ir.R("n"), ir.I(1)).Bin("i", ir.Add, ir.R("i"), ir.I(2))
				})),
		lc("call in the body", false, 0, nil,
			loopWork(from(0), ir.Lt, ir.I(3), func(bb *ir.BlockBuilder) {
				bb.Compute(2).Call("leaf").Compute(2).Bin("i", ir.Add, ir.R("i"), ir.I(1))
			})),
		lc("syscall in the body", false, 0, nil,
			loopWork(from(0), ir.Lt, ir.I(3), func(bb *ir.BlockBuilder) {
				bb.Compute(2).Syscall("getuid").Bin("i", ir.Add, ir.R("i"), ir.I(1))
			})),
		lc("live body instruction", false, 0, nil, func(f *ir.FuncBuilder) {
			f.Block("entry").Const("i", 0).Const("acc", 0).Jmp("h")
			f.Block("h").Cmp("c", ir.Lt, ir.R("i"), ir.I(5)).Br(ir.R("c"), "b", "x")
			f.Block("b").Compute(3).Bin("acc", ir.Add, ir.R("acc"), ir.R("i")).
				Bin("i", ir.Add, ir.R("i"), ir.I(1)).Jmp("h")
			f.Block("x").RetVal(ir.R("acc"))
		}),
		lc("two increments", false, 0, nil,
			loopWork(from(0), ir.Lt, ir.I(9), func(bb *ir.BlockBuilder) {
				bb.Compute(2).Bin("i", ir.Add, ir.R("i"), ir.I(1)).Bin("i", ir.Add, ir.R("i"), ir.I(2))
			})),
		lc("le header", false, 0, nil,
			loopWork(from(0), ir.Le, ir.I(5), padThenStep(6, 1))),
		lc("ne header", false, 0, nil,
			loopWork(from(0), ir.Ne, ir.I(6), padThenStep(6, 2))),
		lc("gt header", false, 0, nil, func(f *ir.FuncBuilder) {
			f.Block("entry").Const("i", 0).Jmp("h")
			f.Block("h").Cmp("c", ir.Gt, ir.I(5), ir.R("i")).Br(ir.R("c"), "b", "x")
			f.Block("b").Compute(6).Bin("i", ir.Add, ir.R("i"), ir.I(1)).Jmp("h")
			f.Block("x").RetVal(ir.R("i"))
		}),
		lc("zero step", false, 300, ErrOutOfFuel,
			loopWork(from(0), ir.Lt, ir.I(5), padThenStep(4, 0))),
		lc("negative step", false, 300, ErrOutOfFuel,
			loopWork(from(0), ir.Lt, ir.I(5), padThenStep(4, -2))),
		lc("function-reference induction at entry", false, 0, ErrRuntime,
			loopWork(func(bb *ir.BlockBuilder) { bb.Compute(2).Bin("i", ir.Add, ir.R("p"), ir.I(0)) },
				ir.Lt, ir.I(5), padThenStep(4, 1)), ir.F("leaf")),
		lc("string bound at entry", false, 0, ErrRuntime,
			loopWork(from(0), ir.Lt, ir.R("p"), padThenStep(4, 1)), ir.S("str")),
		lc("undefined bound at entry", false, 0, ErrRuntime,
			loopWork(from(0), ir.Lt, ir.R("ghost"), padThenStep(4, 1))),
		lc("induction wraps past MaxInt64", false, 300, ErrOutOfFuel,
			loopWork(from(math.MaxInt64-5), ir.Lt, ir.I(math.MaxInt64), padThenStep(2, 4))),
		lc("charge overflows int64", false, 300, ErrOutOfFuel,
			loopWork(from(math.MinInt64), ir.Lt, ir.I(math.MaxInt64), padThenStep(2, 1))),
		lc("fuel below the charge", false, 300, ErrOutOfFuel,
			loopWork(from(0), ir.Lt, ir.I(1<<40), padThenStep(6, 1))),
	}
}

func TestCountedLoopsMatchPerInstruction(t *testing.T) {
	perm := caps.NewSet(caps.CapSetuid, caps.CapDacReadSearch)
	for _, tc := range loopCases() {
		t.Run(tc.name, func(t *testing.T) {
			checkAllFuels(t, tc.segmentCase, tc.fuel, false)
			fuel := tc.fuel
			if fuel == 0 {
				fuel = 1 << 20
			}
			if closed := runTally(tc.m, perm, fuel, false, false).closed; (closed > 0) != tc.closed {
				t.Errorf("%d loop entries charged in closed form, want closed form %v", closed, tc.closed)
			}
		})
	}
}

func TestCountedLoopShapesMarked(t *testing.T) {
	// Near-misses in the entry state are counted loops that must be
	// stepped; every other near-miss is not a counted loop at all.
	stateMisses := map[string]bool{
		"function-reference induction at entry": true,
		"string bound at entry":                 true,
		"undefined bound at entry":              true,
		"induction wraps past MaxInt64":         true,
		"charge overflows int64":                true,
		"fuel below the charge":                 true,
	}
	for _, tc := range loopCases() {
		code, err := compileModule(tc.m)
		if err != nil {
			t.Fatal(err)
		}
		marked := false
		for _, cb := range code["work"].blocks {
			marked = marked || cb.loop != nil
		}
		if want := tc.closed || stateMisses[tc.name]; marked != want {
			t.Errorf("%s: counted loop marked %v, want %v", tc.name, marked, want)
		}
	}
}

func TestCountedLoopMarked(t *testing.T) {
	code, err := compileModule(buildLoop())
	if err != nil {
		t.Fatal(err)
	}
	blocks := code["main"].blocks
	for bi, cb := range blocks {
		if (cb.loop != nil) != (cb.b.Name == "header") {
			t.Errorf("block %s: loop = %+v", cb.b.Name, cb.loop)
		}
		if cb.loop == nil {
			continue
		}
		lp := *cb.loop
		lp.n = cval{}
		want := cloop{i: blocks[0].instrs[0].dst, c: cb.instrs[0].dst, k: 1,
			body: bi + 1, exit: bi + 2, head: 2, per: 14}
		if lp != want || cb.loop.n.val.i != 1_000_000 {
			t.Errorf("header loop = %+v, want %+v with bound 1000000", *cb.loop, want)
		}
	}
}
