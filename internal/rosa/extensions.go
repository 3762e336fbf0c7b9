package rosa

import (
	"context"

	"privanalyzer/internal/rewrite"
)

// This file implements the two model extensions the paper sketches as
// future work (§X):
//
//  1. Additional privilege models — here FreeBSD's Capsicum: a process that
//     has entered capability mode loses access to global namespaces (no
//     path-based file access, no signalling by pid, no new sockets, no
//     credential changes); only operations on descriptors it already holds
//     keep working. Writing ROSA in a rewriting framework is exactly what
//     makes this a small addition (§V-B: "easily enhanced to model new
//     (existing or hypothetical) access controls").
//
//  2. Weakened attackers — modelling control-flow-integrity defenses: an
//     attacker constrained by CFI cannot reorder the program's system
//     calls, only reach them in program order (argument corruption is still
//     possible — CFI protects control flow, not data). Sequencing is
//     modelled with a fence object and sequenced message wrappers.

// Extension object and message symbols.
const (
	symCapMode = "CapMode"
	symFence   = "Fence"
	symSeq     = "seq"
)

// CapModeObj marks a process as being in Capsicum capability mode.
func CapModeObj(pid int) *rewrite.Term {
	return rewrite.NewOp(symCapMode, rewrite.NewInt(int64(pid)))
}

// CapEnterMsg is the cap_enter(2) message: the process enters capability
// mode (irreversibly).
func CapEnterMsg(pid int) *rewrite.Term {
	return rewrite.NewOp("cap_enter", rewrite.NewInt(int64(pid)))
}

// inCapMode reports whether the configuration (the rule's rest variable)
// holds a CapMode marker for pid.
func inCapMode(cfg *rewrite.Term, pid int64) bool {
	if cfg == nil || cfg.Kind != rewrite.Config {
		return false
	}
	for _, e := range cfg.Args {
		if e.Kind == rewrite.Op && e.Sym == symCapMode && len(e.Args) == 1 &&
			e.Args[0].IsInt() && e.Args[0].IntVal == pid {
			return true
		}
	}
	return false
}

// capEnterRule moves a process into capability mode.
func capEnterRule() rewrite.Rule {
	lhs := rewrite.NewConfig(
		rewrite.NewOp("cap_enter", iv("PID")),
		procPattern("P_", "PID"),
		zvar(),
	)
	ps := procSlotsOf(slotsOf(lhs), "P_", "PID")
	return rewrite.Rule{
		Name: "cap_enter",
		LHS:  lhs,
		BuildAll: func(e *rewrite.Env) []*rewrite.Term {
			p := procFrom(e, ps)
			if !p.running() || inCapMode(e.Rest(), p.id) {
				return nil
			}
			return []*rewrite.Term{e.Replace(p.term(), CapModeObj(int(p.id)))}
		},
	}
}

// capsicumGated lists the syscall rules denied in capability mode: every
// operation on a global namespace (paths, pids, ports, credentials).
// Descriptor-based fchmod/fchown stay usable, matching Capsicum's design.
var capsicumGated = map[string]bool{
	"open": true, "chmod": true, "chown": true, "unlink": true, "rename": true,
	"setuid": true, "seteuid": true, "setresuid": true,
	"setgid": true, "setegid": true, "setresgid": true,
	"kill": true, "socket": true, "bind": true, "connect": true,
}

// gateCapsicum wraps a rule's builder with the capability-mode check: the
// rule is vetoed when the calling process is in capability mode.
func gateCapsicum(r rewrite.Rule) rewrite.Rule {
	if !capsicumGated[r.Name] {
		return r
	}
	inner := r.BuildAll
	pidS := slotsOf(r.LHS)("PID")
	r.BuildAll = func(e *rewrite.Env) []*rewrite.Term {
		if inCapMode(e.Rest(), bindingInt(e, pidS)) {
			return nil
		}
		return inner(e)
	}
	return r
}

// Fence returns the sequencing fence object holding the index of the next
// sequenced message allowed to fire.
func Fence(n int) *rewrite.Term {
	return rewrite.NewOp(symFence, rewrite.NewInt(int64(n)))
}

// SeqMsg wraps a syscall message so it only becomes available when the
// fence reaches index n — the CFI-weakened attacker's program-order
// constraint. Use consecutive indices starting at the fence's initial value.
func SeqMsg(n int, msg *rewrite.Term) *rewrite.Term {
	return rewrite.NewOp(symSeq, rewrite.NewInt(int64(n)), msg)
}

// messageSymbols lists every syscall-message constructor; the sequencing
// rule uses it to detect an unwrapped message that has not executed yet.
var messageSymbols = map[string]bool{
	"open": true, "chmod": true, "fchmod": true, "chown": true,
	"fchown": true, "unlink": true, "rename": true,
	"setuid": true, "seteuid": true, "setresuid": true,
	"setgid": true, "setegid": true, "setresgid": true,
	"kill": true, "socket": true, "bind": true, "connect": true,
	"cap_enter": true,
}

// hasPendingMessage reports whether the configuration holds a bare
// (unwrapped, unconsumed) syscall message.
func hasPendingMessage(cfg *rewrite.Term) bool {
	if cfg == nil || cfg.Kind != rewrite.Config {
		return false
	}
	for _, e := range cfg.Args {
		if e.Kind == rewrite.Op && messageSymbols[e.Sym] {
			return true
		}
	}
	return false
}

// seqRule unwraps the next sequenced message and advances the fence. A new
// message only unwraps once the previous one has been consumed, so executed
// calls respect program order. Together with seqSkipRule (the attacker may
// steer an unprotected conditional branch around a call), the weakened
// attacker executes an arbitrary subsequence of the program's calls in
// program order — CFI protects control transfers, not data or branch
// directions.
func seqRule() rewrite.Rule {
	lhs := seqPattern()
	slot := slotsOf(lhs)
	nS, fnS, msgS := slot("N"), slot("FN"), slot("MSG")
	return rewrite.Rule{
		Name: "seq",
		LHS:  lhs,
		Cond: func(e *rewrite.Env) bool {
			return bindingInt(e, nS) == bindingInt(e, fnS)
		},
		BuildAll: func(e *rewrite.Env) []*rewrite.Term {
			if hasPendingMessage(e.Rest()) {
				return nil
			}
			n := bindingInt(e, nS)
			msg := e.At(msgS)
			if msg == nil {
				return nil
			}
			return []*rewrite.Term{e.Replace(msg, Fence(int(n)+1))}
		},
	}
}

// seqPattern matches the sequenced message at the fence: seq(N, MSG) next
// to Fence(FN).
func seqPattern() *rewrite.Term {
	return rewrite.NewConfig(
		rewrite.NewOp(symSeq, iv("N"), iv("MSG")),
		rewrite.NewOp(symFence, iv("FN")),
		zvar(),
	)
}

// seqSkipRule advances the fence past a sequenced call without executing it:
// the attacker steers the program's (CFI-unprotected) branch around the
// call site.
func seqSkipRule() rewrite.Rule {
	lhs := seqPattern()
	slot := slotsOf(lhs)
	nS, fnS := slot("N"), slot("FN")
	return rewrite.Rule{
		Name: "seq-skip",
		LHS:  lhs,
		Cond: func(e *rewrite.Env) bool {
			return bindingInt(e, nS) == bindingInt(e, fnS)
		},
		BuildAll: func(e *rewrite.Env) []*rewrite.Term {
			n := bindingInt(e, nS)
			return []*rewrite.Term{e.Replace(Fence(int(n) + 1))}
		},
	}
}

// NewExtendedSystem builds the ROSA rewrite theory with the §X extensions
// enabled: the Capsicum capability-mode gate on every namespace syscall,
// the cap_enter rule, and the CFI sequencing rule. The base semantics are
// unchanged for configurations that use no extension objects, so every
// query that runs on NewSystem gives identical verdicts here.
func NewExtendedSystem() *rewrite.System {
	base := NewSystem()
	rules := make([]rewrite.Rule, 0, len(base.Rules)+2)
	for _, r := range base.Rules {
		rules = append(rules, gateCapsicum(r))
	}
	rules = append(rules, capEnterRule(), seqRule(), seqSkipRule())
	base.Rules = rules
	base.Sig[symCapMode] = "Object"
	base.Sig[symFence] = "Object"
	return base
}

// RunExtended executes the query against the extended system.
func (q *Query) RunExtended() (*Result, error) {
	return q.RunExtendedContext(context.Background())
}

// RunExtendedContext executes the query against the extended system under
// ctx, with the same cancellation semantics as RunContext.
func (q *Query) RunExtendedContext(ctx context.Context) (*Result, error) {
	return q.runOn(ctx, NewExtendedSystem())
}
