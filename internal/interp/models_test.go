package interp_test

import (
	"slices"
	"strings"
	"testing"

	"privanalyzer/internal/autopriv"
	"privanalyzer/internal/chronopriv"
	"privanalyzer/internal/interp"
	"privanalyzer/internal/programs"
)

// TestModelWorkLoopsRunClosedForm checks that the counted-loop pass finds
// every padding loop the program models' work helper emits (blocks
// <label>, <label>_h, <label>_b and <label>_r), and that ChronoPriv's
// measurement of each model charges every entry of them in closed form:
// none is stepped.
func TestModelWorkLoopsRunClosedForm(t *testing.T) {
	for _, name := range programs.Names() {
		p, err := programs.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(name, func(t *testing.T) {
			ares, err := autopriv.Analyze(p.Module, autopriv.Options{})
			if err != nil {
				t.Fatal(err)
			}
			loops, err := interp.CountedLoops(ares.Module)
			if err != nil {
				t.Fatal(err)
			}
			var work []string
			for _, fn := range ares.Module.Funcs {
				names := map[string]bool{}
				for _, b := range fn.Blocks {
					names[b.Name] = true
				}
				for _, b := range fn.Blocks {
					label, ok := strings.CutSuffix(b.Name, "_h")
					if ok && names[label] && names[label+"_b"] && names[label+"_r"] {
						work = append(work, "@"+fn.Name+":"+b.Name)
					}
				}
			}
			if len(work) == 0 {
				t.Fatal("model has no work loops")
			}
			for _, h := range work {
				if !slices.Contains(loops, h) {
					t.Errorf("work loop %s not marked as a counted loop", h)
				}
			}
			k := p.NewKernel(ares.RequiredPermitted)
			rt := chronopriv.NewRuntime(k)
			res, closed, stepped, err := interp.RunLoops(ares.Module, k, interp.Options{
				MainArgs: p.MainArgs, OnSteps: rt.OnSteps,
			})
			if err != nil {
				t.Fatal(err)
			}
			if closed == 0 || stepped != 0 {
				t.Errorf("%d loop entries in closed form, %d stepped; want all in closed form", closed, stepped)
			}
			t.Logf("%d work loops, %d counted loops, %d entries in closed form, %d instructions",
				len(work), len(loops), closed, res.Steps)
		})
	}
}
