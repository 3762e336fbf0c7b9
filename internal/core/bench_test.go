package core

import (
	"context"
	"testing"

	"privanalyzer/internal/programs"
)

// BenchmarkAnalyzeGrid times the full Figure 5-11 analysis grid — every
// program, phase, and attack — the same query set testdata/grid.golden
// pins, in benchmark harness form so `-cpuprofile` and `-benchstat` work
// on it.
func BenchmarkAnalyzeGrid(b *testing.B) {
	ctx := context.Background()
	for i := 0; i < b.N; i++ {
		for _, name := range programs.Names() {
			p, err := programs.ByName(name)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := AnalyzeContext(ctx, p, Options{}); err != nil {
				b.Fatal(err)
			}
		}
	}
}
