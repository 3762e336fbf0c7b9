package interp

import (
	"maps"
	"testing"

	"privanalyzer/internal/caps"
	"privanalyzer/internal/ir"
)

// FuzzSegmentEquivalence checks that charging whole segments, which skips
// dead filler, and charging one instruction at a time, which executes
// everything, agree on every parsed module: same steps, per-phase counts,
// return value and error text, at any fuel up to a few thousand.
func FuzzSegmentEquivalence(f *testing.F) {
	// Seeds: FuzzParse's, and every segmentCases module.
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
		seg := runTally(m, perm, budget, false)
		ref := runTally(m, perm, budget, true)
		if seg.errText() != ref.errText() || seg.steps != ref.steps || seg.ret != ref.ret {
			t.Fatalf("fuel %d: segment run (%d, %d, %v), per-instruction run (%d, %d, %v)\n%s",
				budget, seg.steps, seg.ret, seg.err, ref.steps, ref.ret, ref.err, src)
		}
		if !maps.Equal(seg.batched, ref.hooked) || !maps.Equal(ref.batched, ref.hooked) {
			t.Fatalf("fuel %d: per-phase counts differ: OnSteps %v, OnStep %v, OnSteps beside OnStep %v\n%s",
				budget, seg.batched, ref.hooked, ref.batched, src)
		}
	})
}
