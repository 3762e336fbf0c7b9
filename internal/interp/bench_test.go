package interp

import (
	"testing"

	"privanalyzer/internal/caps"
	"privanalyzer/internal/ir"
	"privanalyzer/internal/vkernel"
)

// buildLoop constructs a tight arithmetic loop executing 1M × 14 + 3 ≈ 14M
// instructions: the loop header's cmp and br, then a body of Compute(10)
// padding, the counter increment and the jmp.
func buildLoop() *ir.Module {
	b := ir.NewModuleBuilder("bench")
	f := b.Func("main")
	f.Block("entry").Const("i", 0).Jmp("header")
	f.Block("header").
		Cmp("c", ir.Lt, ir.R("i"), ir.I(1_000_000)).
		Br(ir.R("c"), "body", "exit")
	f.Block("body").
		Compute(10).
		Bin("i", ir.Add, ir.R("i"), ir.I(1)).
		Jmp("header")
	f.Block("exit").Ret()
	return b.MustBuild()
}

// runLoop runs buildLoop's module b.N times under opts (fresh kernel each
// run), reports bytes and ns/instr over the counted instructions, and
// returns their total.
func runLoop(b *testing.B, opts Options) int64 {
	m := buildLoop()
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

// BenchmarkInterpreter measures raw execution throughput (bytes = counted
// instructions), the budget behind the sshd workload's ~63M instructions.
func BenchmarkInterpreter(b *testing.B) {
	runLoop(b, Options{})
}

// BenchmarkInterpreterOnSteps measures ChronoPriv's real configuration: the
// batched per-phase callback programs.measure installs, charged per segment.
func BenchmarkInterpreterOnSteps(b *testing.B) {
	var total int64
	steps := runLoop(b, Options{OnSteps: func(n int64, _ caps.PhaseKey) { total += n }})
	if total != steps {
		b.Fatalf("OnSteps total %d != steps %d", total, steps)
	}
}

// BenchmarkInterpreterWithStepHook measures the ChronoPriv-style overhead of
// observing every instruction: the per-instruction charging path.
func BenchmarkInterpreterWithStepHook(b *testing.B) {
	var n int64
	steps := runLoop(b, Options{OnStep: func(*ir.Function, *ir.Block, ir.Instr, caps.PhaseKey) { n++ }})
	if n != steps {
		b.Fatalf("hook count %d != steps %d", n, steps)
	}
}
