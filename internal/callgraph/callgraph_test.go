package callgraph

import (
	"reflect"
	"testing"

	"privanalyzer/internal/ir"
)

// buildModule constructs:
//
//	main  --direct--> helperA
//	main  --indirect(1 arg)--> {helperA, helperB}  (both address-taken, arity 1)
//	helperC has arity 2, never a candidate
//	handler registered for signal 15
func buildModule(t *testing.T) *ir.Module {
	t.Helper()
	b := ir.NewModuleBuilder("m")
	b.OnSignal(15, "handler")

	f := b.Func("main")
	f.Block("entry").
		Call("helperA", ir.I(1)).
		Bin("fp", ir.Add, ir.F("helperA"), ir.I(0)).
		Bin("fp2", ir.Add, ir.F("helperB"), ir.I(0)).
		CallInd(ir.R("fp"), ir.I(2)).
		Ret()

	a := b.Func("helperA", "x")
	a.Block("entry").RetVal(ir.R("x"))
	hb := b.Func("helperB", "x")
	hb.Block("entry").Call("helperC", ir.R("x"), ir.I(0)).Ret()
	hc := b.Func("helperC", "x", "y")
	hc.Block("entry").Ret()
	hd := b.Func("handler")
	hd.Block("entry").Ret()

	m, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestTypeBasedIndirectCalls(t *testing.T) {
	m := buildModule(t)
	g := Build(m, Options{})

	got := g.Callees("main")
	// Direct helperA, indirect {helperA, helperB} (arity 1, address taken),
	// plus the signal-handler edge.
	want := []string{"handler", "helperA", "helperB"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Callees(main) = %v, want %v", got, want)
	}
	// helperC has arity 2 and must not be an indirect target.
	for _, c := range got {
		if c == "helperC" {
			t.Error("helperC wrongly considered an indirect target")
		}
	}
}

func TestOracleIndirectCalls(t *testing.T) {
	m := buildModule(t)
	g := Build(m, Options{
		Mode:            Oracle,
		IndirectTargets: map[string][]string{"main": {"helperA"}},
	})
	got := g.Callees("main")
	want := []string{"handler", "helperA"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Callees(main) = %v, want %v", got, want)
	}
}

func TestDirectFuncRefIndirectCall(t *testing.T) {
	b := ir.NewModuleBuilder("m")
	f := b.Func("main")
	f.Block("entry").CallInd(ir.F("target"), ir.I(0)).Ret()
	tf := b.Func("target", "x")
	tf.Block("entry").Ret()
	other := b.Func("other", "x")
	other.Block("entry").Ret()
	m, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	g := Build(m, Options{})
	got := g.Callees("main")
	want := []string{"target"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Callees(main) = %v, want %v (exact target through FuncRef)", got, want)
	}
}

func TestSignalHandlerEdges(t *testing.T) {
	m := buildModule(t)
	g := Build(m, Options{})
	// Every function (except the handler itself) gets an edge to the handler.
	for _, fn := range []string{"main", "helperA", "helperB", "helperC"} {
		found := false
		for _, c := range g.Callees(fn) {
			if c == "handler" {
				found = true
			}
		}
		if !found {
			t.Errorf("missing signal-handler edge from %s", fn)
		}
	}
	for _, c := range g.Callees("handler") {
		if c == "handler" {
			t.Error("handler should not call itself via the signal edge")
		}
	}
}

func TestRecursionDoesNotLoopForever(t *testing.T) {
	b := ir.NewModuleBuilder("m")
	f := b.Func("main")
	f.Block("entry").Call("main").Ret()
	m, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	g := Build(m, Options{})
	if got := g.Callees("main"); !reflect.DeepEqual(got, []string{"main"}) {
		t.Errorf("Callees(main) = %v, want [main] (the recursive self-edge)", got)
	}
}
