package core

import (
	"context"
	"testing"

	"privanalyzer/internal/programs"
	"privanalyzer/internal/rewrite"
)

// BenchmarkAnalyzeGrid times the full Figure 5-11 analysis grid — every
// program, phase, and attack — the same query set testdata/grid.golden
// pins, in benchmark harness form so `-cpuprofile` and `-benchstat` work
// on it. The compiled/interpreted pair is the headline comparison for
// the compiled-matcher work (EXPERIMENTS.md).
func BenchmarkAnalyzeGrid(b *testing.B) {
	for _, mode := range []struct {
		name string
		opts rewrite.Options
	}{
		{"compiled", rewrite.Options{}},
		{"interpreted", rewrite.Options{NoCompile: true}},
	} {
		b.Run(mode.name, func(b *testing.B) {
			ctx := context.Background()
			for i := 0; i < b.N; i++ {
				for _, name := range programs.Names() {
					p, err := programs.ByName(name)
					if err != nil {
						b.Fatal(err)
					}
					if _, err := AnalyzeContext(ctx, p, Options{Search: mode.opts}); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}
