// Package callgraph builds the call graph AutoPriv's interprocedural
// analysis walks. Direct calls yield exact edges. Indirect calls are
// over-approximated the way the paper describes AutoPriv doing it (§VII-C):
// any address-taken function whose signature (arity) matches the call site is
// a possible target. This conservative treatment is what keeps sshd's
// privileges alive inside its client loop; the package also supports
// resolving indirect calls against an oracle so tests can quantify the
// imprecision.
package callgraph

import (
	"sort"

	"privanalyzer/internal/ir"
)

// Mode selects how indirect-call targets are resolved.
type Mode uint8

const (
	// TypeBased over-approximates an indirect call's targets as every
	// address-taken function with matching arity (AutoPriv's behaviour).
	TypeBased Mode = iota + 1
	// Oracle resolves indirect calls using the exact target sets supplied
	// in Options.IndirectTargets, modelling the "more accurate call graph
	// analysis" the paper suggests as future work.
	Oracle
)

// Options configures call-graph construction.
type Options struct {
	// Mode selects indirect-call resolution; the zero value means TypeBased.
	Mode Mode
	// IndirectTargets supplies, for Oracle mode, the exact callee names of
	// each indirect call site, keyed by the name of the function containing
	// the site. All indirect sites within one function share a target set,
	// which is sufficient for our program models.
	IndirectTargets map[string][]string
}

// Graph is a call graph over the functions of one module.
type Graph struct {
	// Module is the analysed module.
	Module *ir.Module

	callees map[string][]string // caller -> sorted unique callee names
}

// Build constructs the call graph of m under the given options.
func Build(m *ir.Module, opts Options) *Graph {
	if opts.Mode == 0 {
		opts.Mode = TypeBased
	}
	g := &Graph{
		Module:  m,
		callees: make(map[string][]string, len(m.Funcs)),
	}

	addressTaken := addressTakenFuncs(m)

	edges := make(map[string]map[string]bool, len(m.Funcs))
	addEdge := func(from, to string) {
		if edges[from] == nil {
			edges[from] = make(map[string]bool)
		}
		edges[from][to] = true
	}

	for _, fn := range m.Funcs {
		for _, blk := range fn.Blocks {
			for _, in := range blk.Instrs {
				switch in := in.(type) {
				case *ir.CallInstr:
					addEdge(fn.Name, in.Callee)
				case *ir.CallIndInstr:
					for _, tgt := range indirectTargets(m, fn, in, opts, addressTaken) {
						addEdge(fn.Name, tgt)
					}
				}
			}
		}
	}

	// Registered signal handlers may run at any point in any function of the
	// program; model this as an edge from every function to each handler so
	// interprocedural privilege liveness keeps handler privileges alive.
	// (AutoPriv's dedicated signal-handler handling, paper §VII-C.)
	for _, handler := range m.SignalHandlers {
		for _, fn := range m.Funcs {
			if fn.Name != handler {
				addEdge(fn.Name, handler)
			}
		}
	}

	for from, tos := range edges {
		for to := range tos {
			g.callees[from] = append(g.callees[from], to)
		}
		sort.Strings(g.callees[from])
	}
	return g
}

// addressTakenFuncs returns the names of functions whose address appears as a
// FuncRef operand anywhere outside a direct call's callee position.
func addressTakenFuncs(m *ir.Module) map[string]bool {
	taken := make(map[string]bool)
	note := func(vals ...ir.Value) {
		for _, v := range vals {
			if v.Kind == ir.FuncRef {
				taken[v.Fn] = true
			}
		}
	}
	for _, fn := range m.Funcs {
		for _, blk := range fn.Blocks {
			for _, in := range blk.Instrs {
				switch in := in.(type) {
				case *ir.BinInstr:
					note(in.X, in.Y)
				case *ir.CmpInstr:
					note(in.X, in.Y)
				case *ir.CallInstr:
					note(in.Args...)
				case *ir.CallIndInstr:
					note(in.Fp)
					note(in.Args...)
				case *ir.SyscallInstr:
					note(in.Args...)
				case *ir.BrInstr:
					note(in.Cond)
				case *ir.RetInstr:
					note(in.Val)
				}
			}
		}
	}
	return taken
}

func indirectTargets(m *ir.Module, caller *ir.Function, in *ir.CallIndInstr, opts Options, addressTaken map[string]bool) []string {
	if opts.Mode == Oracle {
		return opts.IndirectTargets[caller.Name]
	}
	// If the pointer operand is a direct function reference the target is
	// exact even under the conservative mode.
	if in.Fp.Kind == ir.FuncRef {
		return []string{in.Fp.Fn}
	}
	var out []string
	for _, fn := range m.Funcs {
		if addressTaken[fn.Name] && len(fn.Params) == len(in.Args) {
			out = append(out, fn.Name)
		}
	}
	return out
}

// Callees returns the sorted possible callees of the named function.
func (g *Graph) Callees(name string) []string { return g.callees[name] }
