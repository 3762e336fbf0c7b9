package attacks

import (
	"privanalyzer/internal/rewrite"
	"privanalyzer/internal/rosa"
)

// Ground returns a copy of the query with every wildcard message argument
// pre-expanded into one concrete message per candidate value, instead of the
// lazy at-match-time expansion ROSA's rules perform. This is the design
// ablation DESIGN.md calls out: pre-grounding multiplies the message soup
// (and with it the subset lattice the search walks) by the product of the
// candidate counts, and it is also semantically looser — the attacker gets
// an independent single-use message per grounding rather than one choice —
// so the benchmark reports its state blow-up rather than its verdicts.
//
// Production never calls it. It stays because it is the grounded arm of
// that wildcard ablation (the root package's BenchmarkAblation,
// wildcards/grounded), which must ground the very queries the lazy arm
// builds with this package's attack builders.
func Ground(q *rosa.Query) *rosa.Query {
	users := make([]int64, 0, len(DefaultUsers()))
	for _, u := range DefaultUsers() {
		users = append(users, int64(u))
	}
	groups := make([]int64, 0, len(DefaultGroups()))
	for _, g := range DefaultGroups() {
		groups = append(groups, int64(g))
	}
	var fileIDs []int64
	var procIDs []int64
	for _, o := range q.Objects {
		if o.Kind != rewrite.Op || len(o.Args) == 0 || !o.Args[0].IsInt() {
			continue
		}
		switch o.Sym {
		case "File", "Dir":
			fileIDs = append(fileIDs, o.Args[0].IntVal)
		case "Process":
			procIDs = append(procIDs, o.Args[0].IntVal)
		}
	}

	// candidatesFor maps a wildcard position of a syscall message to its
	// candidate values. Position 0 is the pid (never wildcarded here); the
	// final position is the privilege set.
	candidatesFor := func(sym string, pos int) []int64 {
		switch sym {
		case "open", "chmod", "fchmod", "unlink", "rename":
			if pos == 1 {
				return fileIDs
			}
		case "chown", "fchown":
			switch pos {
			case 1:
				return fileIDs
			case 2:
				return users
			case 3:
				return groups
			}
		case "setuid", "seteuid":
			if pos == 1 {
				return users
			}
		case "setresuid":
			if pos >= 1 && pos <= 3 {
				return users
			}
		case "setgid", "setegid":
			if pos == 1 {
				return groups
			}
		case "setresgid":
			if pos >= 1 && pos <= 3 {
				return groups
			}
		case "kill":
			if pos == 1 {
				return procIDs
			}
		}
		return nil
	}

	out := &rosa.Query{
		Objects:  q.Objects,
		Goal:     q.Goal,
		Options:  q.Options,
		Extended: q.Extended,
	}
	for _, msg := range q.Messages {
		grounded := []*rewrite.Term{msg}
		for pos := 1; pos < len(msg.Args)-1; pos++ {
			var next []*rewrite.Term
			for _, m := range grounded {
				if !m.Args[pos].IsInt() || m.Args[pos].IntVal != rosa.Wild {
					next = append(next, m)
					continue
				}
				cands := candidatesFor(m.Sym, pos)
				if len(cands) == 0 {
					next = append(next, m)
					continue
				}
				for _, c := range cands {
					args := append([]*rewrite.Term(nil), m.Args...)
					args[pos] = rewrite.NewInt(c)
					next = append(next, rewrite.NewOp(m.Sym, args...))
				}
			}
			grounded = next
		}
		out.Messages = append(out.Messages, grounded...)
	}
	return out
}
