package rewrite

// Rule indexing. Every rule fires at the root configuration (Compile admits
// no other shape), and at the root most rules fail because the message they
// consume is no longer in the state. The index removes that cost with static
// structure computed once per System: each rule carries an anchor bitmask —
// the symbols of the non-variable top-level elements its pattern requires
// (the message symbol, Process, File, …) — and a state's element bitmap
// makes the "are all anchors present?" filter a single AND+compare.
//
// Symbol bits come from a process-global registry so bitmaps are
// system-independent. The registry caps out at 61 distinct symbols; later
// symbols share an overflow bit, which only weakens the filter (a shared
// bit can report a symbol present that is not), never its soundness — the
// filter may admit a rule that then fails to match, but never skips a rule
// that could have matched.

import "sync"

const (
	bitOverflow = uint64(1) << 61 // shared bit for symbols past capacity
	maxSymBits  = 61
)

var (
	symBitMu  sync.RWMutex
	symBitTab = make(map[string]uint64)
)

// symbolBit returns the bit assigned to a constructor symbol, assigning the
// next free bit on first sight and the shared overflow bit once the table
// is full.
func symbolBit(sym string) uint64 {
	symBitMu.RLock()
	b, ok := symBitTab[sym]
	symBitMu.RUnlock()
	if ok {
		return b
	}
	symBitMu.Lock()
	defer symBitMu.Unlock()
	if b, ok = symBitTab[sym]; ok {
		return b
	}
	if len(symBitTab) >= maxSymBits {
		b = bitOverflow
	} else {
		b = uint64(1) << len(symBitTab)
	}
	symBitTab[sym] = b
	return b
}

// elemBits returns the bitmap of top-level element symbols of a
// configuration — the state-side half of the anchor filter. Not memoized:
// it is one cheap pass per expansion.
func elemBits(t *Term) uint64 {
	var b uint64
	for _, a := range t.Args {
		if a.Kind == Op {
			b |= symbolBit(a.Sym)
		}
	}
	return b
}

// indexedRule is one rule's entry in the index.
type indexedRule struct {
	idx     int    // index into System.Rules
	anchors uint64 // required element symbols
}

// ruleIndex is the static per-System successor index.
type ruleIndex struct {
	// atConfig lists the rules with their anchors, ascending by rule index,
	// so the filtered expansion emits successors in rule order.
	atConfig []indexedRule
}

// buildRuleIndex computes the index for a rule set that compiled, so every
// LHS is a configuration.
func buildRuleIndex(rules []Rule) *ruleIndex {
	ix := &ruleIndex{atConfig: make([]indexedRule, len(rules))}
	for i := range rules {
		var anchors uint64
		for _, e := range rules[i].LHS.Args {
			if e.Kind == Op {
				anchors |= symbolBit(e.Sym)
			}
		}
		ix.atConfig[i] = indexedRule{idx: i, anchors: anchors}
	}
	return ix
}
