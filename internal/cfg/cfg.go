// Package cfg provides control-flow-graph utilities over IR functions:
// predecessor maps, traversal orders, reachability and exit blocks.
// AutoPriv's liveness analysis and the priv_remove placement logic are
// built on these.
package cfg

import (
	"privanalyzer/internal/ir"
)

// Graph is the control-flow graph of one IR function, with precomputed
// successor and predecessor edges in deterministic order.
type Graph struct {
	// Fn is the underlying function.
	Fn *ir.Function
	// Blocks lists the function's blocks in declaration order.
	Blocks []*ir.Block

	succs map[*ir.Block][]*ir.Block
	preds map[*ir.Block][]*ir.Block
}

// New builds the CFG of fn. The function must be verified: every block ends
// in a terminator whose targets exist.
func New(fn *ir.Function) *Graph {
	g := &Graph{
		Fn:     fn,
		Blocks: fn.Blocks,
		succs:  make(map[*ir.Block][]*ir.Block, len(fn.Blocks)),
		preds:  make(map[*ir.Block][]*ir.Block, len(fn.Blocks)),
	}
	for _, b := range fn.Blocks {
		term := b.Term()
		if term == nil {
			continue
		}
		seen := make(map[*ir.Block]bool, 2)
		for _, name := range term.Successors() {
			s := fn.Block(name)
			if s == nil || seen[s] {
				continue // both branch arms may target the same block
			}
			seen[s] = true
			g.succs[b] = append(g.succs[b], s)
			g.preds[s] = append(g.preds[s], b)
		}
	}
	return g
}

// Succs returns the distinct successors of b in terminator order.
func (g *Graph) Succs(b *ir.Block) []*ir.Block { return g.succs[b] }

// Preds returns the predecessors of b in declaration order of their sources.
func (g *Graph) Preds(b *ir.Block) []*ir.Block { return g.preds[b] }

// Entry returns the function's entry block.
func (g *Graph) Entry() *ir.Block { return g.Fn.Entry() }

// Reachable returns the set of blocks reachable from the entry block.
func (g *Graph) Reachable() map[*ir.Block]bool {
	seen := make(map[*ir.Block]bool, len(g.Blocks))
	var walk func(b *ir.Block)
	walk = func(b *ir.Block) {
		if b == nil || seen[b] {
			return
		}
		seen[b] = true
		for _, s := range g.succs[b] {
			walk(s)
		}
	}
	walk(g.Entry())
	return seen
}

// PostOrder returns the reachable blocks in depth-first post-order.
func (g *Graph) PostOrder() []*ir.Block {
	var order []*ir.Block
	seen := make(map[*ir.Block]bool, len(g.Blocks))
	var walk func(b *ir.Block)
	walk = func(b *ir.Block) {
		if b == nil || seen[b] {
			return
		}
		seen[b] = true
		for _, s := range g.succs[b] {
			walk(s)
		}
		order = append(order, b)
	}
	walk(g.Entry())
	return order
}

// ReversePostOrder returns the reachable blocks in reverse post-order, the
// natural iteration order for forward dataflow problems.
func (g *Graph) ReversePostOrder() []*ir.Block {
	po := g.PostOrder()
	for i, j := 0, len(po)-1; i < j; i, j = i+1, j-1 {
		po[i], po[j] = po[j], po[i]
	}
	return po
}

// ExitBlocks returns the reachable blocks that terminate the function (ret
// or unreachable), in declaration order.
func (g *Graph) ExitBlocks() []*ir.Block {
	reach := g.Reachable()
	var out []*ir.Block
	for _, b := range g.Blocks {
		if !reach[b] {
			continue
		}
		if t := b.Term(); t != nil && len(t.Successors()) == 0 {
			out = append(out, b)
		}
	}
	return out
}
