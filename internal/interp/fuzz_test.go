package interp

import (
	"testing"

	"privanalyzer/internal/caps"
	"privanalyzer/internal/ir"
)

// FuzzSegmentEquivalence checks that charging whole segments, which skips
// dead filler and charges counted loops in closed form, and charging one
// instruction at a time, which executes everything, agree on every parsed
// module: same steps, per-phase counts, return value and error text, at any
// fuel up to a few thousand.
func FuzzSegmentEquivalence(f *testing.F) {
	// Seeds: FuzzParse's, and every segmentCases and loopCases module.
	seeds := []string{
		"module \"m\"\n\nfunc @main() {\nentry:\n  ret\n}\n",
		"module \"m\"\nsighandler 15 @h\nfunc @h() {\nentry:\n  ret\n}\n",
		"module \"m\"\nfunc @f(%a, %b) {\nentry:\n  %x = add %a, %b\n  %c = cmp lt, %x, 3\n  br %c, t, e\nt:\n  ret %x\ne:\n  unreachable\n}\n",
		"module \"m\"\nfunc @main() {\nentry:\n  %fd = syscall open(\"/dev/mem\", 2)\n  calli %fd(1)\n  jmp entry\n}\n",
		"garbage",
	}
	for _, tc := range segmentCases() {
		seeds = append(seeds, tc.m.String())
	}
	for _, tc := range loopCases() {
		seeds = append(seeds, tc.m.String())
	}
	for _, src := range seeds {
		f.Add(src, uint16(0))
		f.Add(src, uint16(7))
	}
	perm := caps.NewSet(caps.CapSetuid, caps.CapDacReadSearch)
	f.Fuzz(func(t *testing.T, src string, fuel uint16) {
		m, err := ir.Parse(src)
		if err != nil || m.Verify() != nil {
			return
		}
		// Fuel 0 would mean the unbounded default; keep every run short.
		budget := 1 + int64(fuel)%4096
		mustAgree(t, budget, runTally(m, perm, budget, false, true), runTally(m, perm, budget, true, true))
	})
}

// FuzzCountedLoops generates loops around the counted-loop shape from a few
// numbers and checks that a charged run, which takes a qualifying loop in
// closed form, agrees with a per-instruction run, as FuzzSegmentEquivalence
// does. i starts at i0 and steps by k while cmp pred i, n holds; shape
// picks the predicate (bits 0-1: lt, le, ne, gt) and perturbs the loop:
// bit 2 holds n in a register, bit 3 writes it in the body, bit 4 calls
// from the body, bit 5 adds a live body instruction, bit 6 starts i as a
// function reference, and bit 7 profiles both runs. pad is the body's dead
// filler.
func FuzzCountedLoops(f *testing.F) {
	f.Add(int64(0), int64(5), int64(1), uint8(0), uint8(6), uint16(100))
	f.Add(int64(0), int64(1000), int64(3), uint8(0x80), uint8(10), uint16(4095))
	f.Add(int64(9), int64(5), int64(1), uint8(4), uint8(2), uint16(50))
	f.Add(int64(1<<62), int64(1<<62+7), int64(1<<61), uint8(0), uint8(1), uint16(40))
	f.Add(int64(-1<<63), int64(1<<63-1), int64(1), uint8(0), uint8(0), uint16(9))
	f.Add(int64(0), int64(5), int64(0), uint8(0), uint8(3), uint16(200))
	f.Add(int64(0), int64(5), int64(-1), uint8(0), uint8(3), uint16(200))
	f.Add(int64(0), int64(6), int64(2), uint8(2), uint8(3), uint16(300))
	for _, shape := range []uint8{1, 3, 0x0c, 0x10, 0x20, 0x40} {
		f.Add(int64(0), int64(4), int64(1), shape, uint8(3), uint16(300))
	}
	perm := caps.NewSet(caps.CapSetuid, caps.CapDacReadSearch)
	f.Fuzz(func(t *testing.T, i0, n, k int64, shape, pad uint8, fuel uint16) {
		bound := ir.I(n)
		if shape&4 != 0 {
			bound = ir.R("n")
		}
		m := phasedModule(loopWork(func(bb *ir.BlockBuilder) {
			bb.Const("n", n).Const("acc", 0)
			if shape&0x40 == 0 {
				bb.Bin("i", ir.Add, ir.I(i0), ir.I(0))
			} else {
				bb.Bin("i", ir.Add, ir.R("p"), ir.I(0))
			}
		}, []ir.CmpKind{ir.Lt, ir.Le, ir.Ne, ir.Gt}[shape&3], bound, func(bb *ir.BlockBuilder) {
			bb.Compute(int(pad % 16))
			if shape&8 != 0 {
				bb.Bin("n", ir.Add, ir.R("n"), ir.I(1))
			}
			if shape&0x10 != 0 {
				bb.Call("leaf")
			}
			if shape&0x20 != 0 {
				// A division is fallible, so it is kept and keeps acc live.
				bb.Bin("acc", ir.Add, ir.R("acc"), ir.R("i")).Bin("q", ir.Div, ir.R("acc"), ir.I(1))
			}
			bb.Bin("i", ir.Add, ir.R("i"), ir.I(k))
		}), ir.F("leaf"))
		budget := 1 + int64(fuel)%4096
		profile := shape&0x80 != 0
		mustAgree(t, budget, runTally(m, perm, budget, false, profile), runTally(m, perm, budget, true, profile))
	})
}
