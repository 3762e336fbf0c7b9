package cfg

import (
	"testing"

	"privanalyzer/internal/ir"
)

// diamond builds:
//
//	entry -> a, b; a -> exit; b -> exit
func diamond(t *testing.T) *ir.Function {
	t.Helper()
	b := ir.NewModuleBuilder("m")
	f := b.Func("main")
	f.Block("entry").Const("c", 1).Br(ir.R("c"), "a", "b")
	f.Block("a").Jmp("exit")
	f.Block("b").Jmp("exit")
	f.Block("exit").Ret()
	m, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return m.Main()
}

// loopFn builds:
//
//	entry -> header; header -> body, exit; body -> header
func loopFn(t *testing.T) *ir.Function {
	t.Helper()
	b := ir.NewModuleBuilder("m")
	f := b.Func("main")
	f.Block("entry").Const("i", 0).Jmp("header")
	f.Block("header").Cmp("c", ir.Lt, ir.R("i"), ir.I(10)).Br(ir.R("c"), "body", "exit")
	f.Block("body").Bin("i", ir.Add, ir.R("i"), ir.I(1)).Jmp("header")
	f.Block("exit").Ret()
	m, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return m.Main()
}

func TestSuccsPreds(t *testing.T) {
	fn := diamond(t)
	g := New(fn)
	entry, a, bb, exit := fn.Block("entry"), fn.Block("a"), fn.Block("b"), fn.Block("exit")

	if s := g.Succs(entry); len(s) != 2 || s[0] != a || s[1] != bb {
		t.Errorf("Succs(entry) = %v", names(s))
	}
	if p := g.Preds(exit); len(p) != 2 {
		t.Errorf("Preds(exit) = %v", names(p))
	}
	if p := g.Preds(entry); len(p) != 0 {
		t.Errorf("Preds(entry) = %v", names(p))
	}
}

func TestDuplicateBranchTargetsDeduped(t *testing.T) {
	b := ir.NewModuleBuilder("m")
	f := b.Func("main")
	f.Block("entry").Const("c", 1).Br(ir.R("c"), "exit", "exit")
	f.Block("exit").Ret()
	m, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	g := New(m.Main())
	if s := g.Succs(m.Main().Block("entry")); len(s) != 1 {
		t.Errorf("Succs = %v, want deduped single edge", names(s))
	}
	if p := g.Preds(m.Main().Block("exit")); len(p) != 1 {
		t.Errorf("Preds = %v", names(p))
	}
}

func TestOrdersAndReachability(t *testing.T) {
	fn := diamond(t)
	g := New(fn)

	rpo := g.ReversePostOrder()
	if len(rpo) != 4 || rpo[0] != fn.Block("entry") || rpo[3] != fn.Block("exit") {
		t.Errorf("RPO = %v", names(rpo))
	}
	po := g.PostOrder()
	if po[len(po)-1] != fn.Block("entry") || po[0] != fn.Block("exit") {
		t.Errorf("PO = %v", names(po))
	}

	reach := g.Reachable()
	if len(reach) != 4 {
		t.Errorf("reachable = %d blocks", len(reach))
	}
}

func TestUnreachableBlockExcluded(t *testing.T) {
	b := ir.NewModuleBuilder("m")
	f := b.Func("main")
	f.Block("entry").Jmp("exit")
	f.Block("dead").Jmp("exit") // no predecessors
	f.Block("exit").Ret()
	m, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	g := New(m.Main())
	if reach := g.Reachable(); reach[m.Main().Block("dead")] {
		t.Error("dead block marked reachable")
	}
	if len(g.PostOrder()) != 2 {
		t.Errorf("PostOrder = %v", names(g.PostOrder()))
	}
}

func TestExitBlocks(t *testing.T) {
	fn := loopFn(t)
	g := New(fn)
	exits := g.ExitBlocks()
	if len(exits) != 1 || exits[0] != fn.Block("exit") {
		t.Errorf("ExitBlocks = %v", names(exits))
	}
}

func names(blocks []*ir.Block) []string {
	out := make([]string, len(blocks))
	for i, b := range blocks {
		out[i] = b.Name
	}
	return out
}
