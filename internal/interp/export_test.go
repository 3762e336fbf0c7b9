package interp

import (
	"privanalyzer/internal/ir"
	"privanalyzer/internal/vkernel"
)

// RunLoops is Run that also reports how many counted-loop header entries
// the run charged in closed form and how many it stepped.
func RunLoops(m *ir.Module, k *vkernel.Kernel, opts Options) (res *Result, closed, stepped int64, err error) {
	res, vm, err := execute(m, k, opts)
	if vm != nil {
		closed, stepped = vm.loopsClosed, vm.loopsStepped
	}
	return res, closed, stepped, err
}

// CountedLoops lists the header blocks of m's counted loops, as
// "@fn:block".
func CountedLoops(m *ir.Module) ([]string, error) {
	code, err := compileModule(m)
	if err != nil {
		return nil, err
	}
	var out []string
	for _, fn := range m.Funcs {
		for _, cb := range code[fn.Name].blocks {
			if cb.loop != nil {
				out = append(out, "@"+fn.Name+":"+cb.b.Name)
			}
		}
	}
	return out, nil
}
