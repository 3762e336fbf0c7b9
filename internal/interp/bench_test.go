package interp

import (
	"testing"

	"privanalyzer/internal/caps"
	"privanalyzer/internal/ir"
	"privanalyzer/internal/vkernel"
)

// buildLoop constructs a tight arithmetic loop executing 1M × 14 + 5 ≈ 14M
// instructions: the loop header's cmp and br, then a body of Compute(10)
// padding, the counter increment and the jmp. It is a counted loop, which
// a charged run takes in closed form.
func buildLoop() *ir.Module { return buildLoopWith(ir.Lt, 1_000_000) }

// buildSteppedLoop is buildLoop with the header test i <= 999999: the same
// 1M iterations and counts, but the header is not a counted loop's, so a
// charged run steps it, a segment at a time, executing the header, the
// increment and the jmp and skipping the dead padding.
func buildSteppedLoop() *ir.Module { return buildLoopWith(ir.Le, 999_999) }

// buildLoopWith builds buildLoop's module with the header test
// cmp pred i, bound.
func buildLoopWith(pred ir.CmpKind, bound int64) *ir.Module {
	b := ir.NewModuleBuilder("bench")
	f := b.Func("main")
	f.Block("entry").Const("i", 0).Jmp("header")
	f.Block("header").
		Cmp("c", pred, ir.R("i"), ir.I(bound)).
		Br(ir.R("c"), "body", "exit")
	f.Block("body").
		Compute(10).
		Bin("i", ir.Add, ir.R("i"), ir.I(1)).
		Jmp("header")
	f.Block("exit").Ret()
	return b.MustBuild()
}

// runLoop runs module m b.N times under opts (fresh kernel each run),
// reports bytes and ns/instr over the counted instructions, and returns
// their total.
func runLoop(b *testing.B, m *ir.Module, opts Options) int64 {
	b.ReportAllocs()
	var steps int64
	for i := 0; i < b.N; i++ {
		k := vkernel.New()
		k.Spawn("bench", caps.NewCreds(0, 0, 0))
		res, err := Run(m, k, opts)
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(res.Steps)
		steps += res.Steps
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(steps), "ns/instr")
	return steps
}

// BenchmarkInterpreter measures raw stepping throughput (bytes = counted
// instructions) on a loop that is not a counted loop.
func BenchmarkInterpreter(b *testing.B) {
	runLoop(b, buildSteppedLoop(), Options{})
}

// BenchmarkInterpreterOnSteps measures ChronoPriv's configuration, the
// batched per-phase callback programs.measure installs, on a loop it must
// step a segment at a time.
func BenchmarkInterpreterOnSteps(b *testing.B) {
	var total int64
	steps := runLoop(b, buildSteppedLoop(), Options{OnSteps: func(n int64, _ caps.PhaseKey) { total += n }})
	if total != steps {
		b.Fatalf("OnSteps total %d != steps %d", total, steps)
	}
}

// BenchmarkInterpreterWithStepHook measures the ChronoPriv-style overhead of
// observing every instruction: the per-instruction charging path.
func BenchmarkInterpreterWithStepHook(b *testing.B) {
	var n int64
	steps := runLoop(b, buildSteppedLoop(), Options{OnStep: func(*ir.Function, *ir.Block, ir.Instr, caps.PhaseKey) { n++ }})
	if n != steps {
		b.Fatalf("hook count %d != steps %d", n, steps)
	}
}

// BenchmarkCountedLoop measures ChronoPriv's configuration on the counted
// loop, which it charges in closed form: the cost is the run's setup and a
// handful of instructions, whatever the trip count.
func BenchmarkCountedLoop(b *testing.B) {
	var total int64
	steps := runLoop(b, buildLoop(), Options{OnSteps: func(n int64, _ caps.PhaseKey) { total += n }})
	if total != steps || steps != int64(b.N)*14_000_005 {
		b.Fatalf("OnSteps total %d, steps %d; want %d", total, steps, int64(b.N)*14_000_005)
	}
}
