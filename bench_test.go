package privanalyzer

// The benchmark harness regenerating the paper's evaluation:
//
//   - BenchmarkROSA/<figure>/<program>/<phase>/attack<N>: every bar of
//     Figures 5–11 — ROSA's search time per (program, privilege set, attack)
//     combination; states-explored is reported as a machine-independent
//     metric alongside wall-clock ns/op.
//   - BenchmarkPipeline/<program>: the end-to-end AutoPriv + ChronoPriv
//     measurement per program — the producer of Tables III and V.
//   - BenchmarkAblation/*: the design-choice ablations DESIGN.md calls out
//     that the engine can run (lazy wildcards vs pre-grounded
//     messages); visited-state dedup and BFS vs DFS frontier
//     order are ablated on the reference search (internal/rewrite).
//
// Absolute times differ from the paper's Maude-on-i7-7770 numbers; the shape
// — possible attacks decided fast, impossible ones paying for exhaustion,
// attacks 3 and 4 cheaper than the /dev/mem attacks, refactored programs
// slower to analyse — reproduces. Run with -benchtime=1x for a quick full
// sweep.

import (
	"context"
	"fmt"
	"testing"

	"privanalyzer/internal/attacks"
	"privanalyzer/internal/caps"
	"privanalyzer/internal/core"
	"privanalyzer/internal/programs"
	"privanalyzer/internal/rosa"
	"privanalyzer/internal/telemetry"
)

// benchPrograms caches calibrated models across benchmarks.
var benchPrograms = map[string]*programs.Program{}

func benchProgram(b *testing.B, name string) *programs.Program {
	b.Helper()
	if p, ok := benchPrograms[name]; ok {
		return p
	}
	p, err := programs.ByName(name)
	if err != nil {
		b.Fatal(err)
	}
	benchPrograms[name] = p
	return p
}

// phaseCreds converts a phase spec to ROSA credentials.
func phaseCreds(ph programs.PhaseSpec) rosa.Creds {
	return rosa.Creds{
		RUID: ph.UID[0], EUID: ph.UID[1], SUID: ph.UID[2],
		RGID: ph.GID[0], EGID: ph.GID[1], SGID: ph.GID[2],
	}
}

// figureFor maps a program to the paper figure its search times appear in.
var figureFor = map[string]string{
	"passwd":    "fig5",
	"ping":      "fig6",
	"sshd":      "fig7",
	"su":        "fig8",
	"thttpd":    "fig9",
	"passwdRef": "fig10",
	"suRef":     "fig11",
}

// BenchmarkROSA regenerates Figures 5–11: one sub-benchmark per bar.
func BenchmarkROSA(b *testing.B) {
	for _, name := range programs.Names() {
		p := benchProgram(b, name)
		inv := p.Syscalls()
		for _, ph := range p.Phases {
			for _, id := range attacks.All {
				label := fmt.Sprintf("%s/%s/%s/attack%d", figureFor[name], name, ph.Name, id)
				b.Run(label, func(b *testing.B) {
					var states, found int
					for i := 0; i < b.N; i++ {
						q := attacks.Build(id, inv, phaseCreds(ph), ph.Privs)
						q.MaxStates = core.DefaultMaxStates
						res, err := q.Run()
						if err != nil {
							b.Fatal(err)
						}
						states = res.StatesExplored
						if res.Verdict == rosa.Vulnerable {
							found++
						}
					}
					b.ReportMetric(float64(states), "states")
					b.ReportMetric(float64(found)/float64(b.N), "vulnerable")
				})
			}
		}
	}
}

// BenchmarkPipeline regenerates the measurement side of Tables III and V:
// AutoPriv analysis + transformed-program execution + ChronoPriv report.
func BenchmarkPipeline(b *testing.B) {
	for _, name := range programs.Names() {
		p := benchProgram(b, name)
		b.Run(name, func(b *testing.B) {
			var total int64
			for i := 0; i < b.N; i++ {
				rep, _, err := p.Measure()
				if err != nil {
					b.Fatal(err)
				}
				total = rep.Total
			}
			b.ReportMetric(float64(total), "dyn-instrs")
		})
	}
}

// BenchmarkTelemetry measures the cost of the instrumentation that PR added
// to the measurement pipeline: "disabled" runs with no registry in the
// context (the default for every caller that doesn't opt in — its ns/op must
// stay within noise of BenchmarkPipeline's), "enabled" carries a live
// registry and pays for the spans and counters.
func BenchmarkTelemetry(b *testing.B) {
	p := benchProgram(b, "passwd")
	b.Run("disabled", func(b *testing.B) {
		ctx := context.Background()
		for i := 0; i < b.N; i++ {
			if _, _, err := p.MeasureContext(ctx); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("enabled", func(b *testing.B) {
		ctx := telemetry.NewContext(context.Background(), telemetry.New())
		for i := 0; i < b.N; i++ {
			if _, _, err := p.MeasureContext(ctx); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblation measures the design choices DESIGN.md documents. The
// deduplication and frontier-order ablations run on the test-only
// reference search (BenchmarkAblation in internal/rewrite); the engine has
// no switch for either.
func BenchmarkAblation(b *testing.B) {
	// A mid-size impossible query: the refactored su's three-identity
	// empty-privilege phase (suRef_priv6) against the read-/dev/mem attack —
	// the case whose credential-triple space made the paper's ROSA time out
	// (§VII-D2); our search must exhaust it.
	p := benchProgram(b, "suRef")
	inv := p.Syscalls()
	var empty programs.PhaseSpec
	for _, ph := range p.Phases {
		if ph.Name == "suRef_priv6" {
			empty = ph
		}
	}
	build := func() *rosa.Query {
		q := attacks.Build(attacks.ReadDevMem, inv, phaseCreds(empty), caps.EmptySet)
		q.MaxStates = core.DefaultMaxStates
		return q
	}

	// Lazy wildcard expansion vs pre-grounded message soup.
	b.Run("wildcards/lazy", func(b *testing.B) {
		var states int
		for i := 0; i < b.N; i++ {
			res, err := build().Run()
			if err != nil {
				b.Fatal(err)
			}
			states = res.StatesExplored
		}
		b.ReportMetric(float64(states), "states")
	})
	b.Run("wildcards/grounded", func(b *testing.B) {
		var states int
		for i := 0; i < b.N; i++ {
			q := attacks.Ground(build())
			// The grounded soup is so much more expensive per state (AC
			// matching over ~40 messages) that even a small budget makes
			// the blow-up obvious.
			q.MaxStates = 1_000
			res, err := q.Run()
			if err != nil {
				b.Fatal(err)
			}
			states = res.StatesExplored
		}
		b.ReportMetric(float64(states), "states")
	})
}
