package rosa

import (
	"slices"

	"privanalyzer/internal/caps"
	"privanalyzer/internal/rewrite"
	"privanalyzer/internal/vkernel"
)

// Variable helpers for rule patterns.
func iv(name string) *rewrite.Term { return rewrite.NewVar(name, "") }
func zvar() *rewrite.Term          { return rewrite.NewVar("Z", rewrite.SortConfig) }

// procPattern matches a process object, binding "<prefix>id",
// "<prefix>euid", ..., "<prefix>wrf". Passing the same id variable name in
// two patterns ties them together (non-linear matching).
func procPattern(prefix, idVar string) *rewrite.Term {
	return rewrite.NewOp(symProcess,
		iv(idVar),
		iv(prefix+"euid"), iv(prefix+"ruid"), iv(prefix+"suid"),
		iv(prefix+"egid"), iv(prefix+"rgid"), iv(prefix+"sgid"),
		iv(prefix+"state"), iv(prefix+"rdf"), iv(prefix+"wrf"))
}

// filePattern matches a file object, binding "<prefix>id" ... "<prefix>group".
func filePattern(prefix string) *rewrite.Term {
	return rewrite.NewOp(symFile,
		iv(prefix+"id"), iv(prefix+"name"), iv(prefix+"perms"),
		iv(prefix+"owner"), iv(prefix+"group"))
}

// dirPattern matches a directory-entry object.
func dirPattern(prefix string) *rewrite.Term {
	return rewrite.NewOp(symDir,
		iv(prefix+"id"), iv(prefix+"name"), iv(prefix+"perms"),
		iv(prefix+"owner"), iv(prefix+"group"), iv(prefix+"inode"))
}

// slotsOf resolves a rule pattern's variable names to the binding slots
// its callbacks read (rewrite.SlotsOf), once, when the rule is built. A
// name the pattern lacks is a programming error, caught at construction.
func slotsOf(pat *rewrite.Term) func(name string) int {
	slots := rewrite.SlotsOf(pat)
	return func(name string) int {
		s, ok := slots[name]
		if !ok {
			panic("rosa: pattern has no variable " + name)
		}
		return s
	}
}

// procSlots are the binding slots of one procPattern's variables.
type procSlots struct {
	id               int
	euid, ruid, suid int
	egid, rgid, sgid int
	state, rdf, wrf  int
}

func procSlotsOf(slot func(string) int, prefix, idVar string) procSlots {
	return procSlots{
		id:   slot(idVar),
		euid: slot(prefix + "euid"), ruid: slot(prefix + "ruid"), suid: slot(prefix + "suid"),
		egid: slot(prefix + "egid"), rgid: slot(prefix + "rgid"), sgid: slot(prefix + "sgid"),
		state: slot(prefix + "state"), rdf: slot(prefix + "rdf"), wrf: slot(prefix + "wrf"),
	}
}

// fileSlots are the binding slots of one filePattern's variables; inode is
// set for a dirPattern only.
type fileSlots struct {
	id, name, perms, owner, group, inode int
}

func fileSlotsOf(slot func(string) int, prefix string) fileSlots {
	return fileSlots{
		id: slot(prefix + "id"), name: slot(prefix + "name"), perms: slot(prefix + "perms"),
		owner: slot(prefix + "owner"), group: slot(prefix + "group"), inode: -1,
	}
}

func dirSlotsOf(slot func(string) int, prefix string) fileSlots {
	s := fileSlotsOf(slot, prefix)
	s.inode = slot(prefix + "inode")
	return s
}

// procView reads a matched process object out of a match.
type procView struct {
	id         int64
	uids, gids caps.IDs
	state      *rewrite.Term
	rdf, wrf   *rewrite.Term
}

// intAt reads a bound integer, 0 on a mismatch.
func intAt(e *rewrite.Env, slot int) int64 {
	v, _ := e.IntAt(slot)
	return v
}

func procFrom(e *rewrite.Env, s procSlots) procView {
	id := func(slot int) int { return int(intAt(e, slot)) }
	return procView{
		id:    intAt(e, s.id),
		uids:  caps.IDs{R: id(s.ruid), E: id(s.euid), S: id(s.suid)},
		gids:  caps.IDs{R: id(s.rgid), E: id(s.egid), S: id(s.sgid)},
		state: e.At(s.state),
		rdf:   e.At(s.rdf),
		wrf:   e.At(s.wrf),
	}
}

func (p procView) term() *rewrite.Term {
	n := func(v int) *rewrite.Term { return rewrite.NewInt(int64(v)) }
	return rewrite.InternOp(symProcess,
		rewrite.NewInt(p.id),
		n(p.uids.E), n(p.uids.R), n(p.uids.S),
		n(p.gids.E), n(p.gids.R), n(p.gids.S),
		p.state, p.rdf, p.wrf)
}

func (p procView) running() bool {
	return p.state != nil && p.state.Kind == rewrite.Op && p.state.Sym == symRun
}

// ids returns the user IDs, or the group IDs when group is set.
func (p *procView) ids(group bool) *caps.IDs {
	if group {
		return &p.gids
	}
	return &p.uids
}

// mayAccess and maySearch apply the DAC checks (vkernel.MayAccess,
// vkernel.MaySearch) to a matched object. The group bits apply through the
// egid alone: the process term carries no supplementary groups, a model
// choice the paper's ROSA shares (DESIGN.md §2).
func (p procView) mayAccess(f fileView, read, write bool, privs caps.Set) bool {
	return vkernel.MayAccess(f.perms, f.owner, p.uids.E, p.gids.E == f.group, read, write, privs)
}

func (p procView) maySearch(d fileView, privs caps.Set) bool {
	return vkernel.MaySearch(d.perms, d.owner, p.uids.E, p.gids.E == d.group, privs)
}

// fileView reads a matched file object.
type fileView struct {
	id    int64
	name  string
	perms vkernel.Mode
	owner int
	group int
}

func fileFrom(e *rewrite.Env, s fileSlots) fileView {
	name := ""
	if t := e.At(s.name); t != nil && t.Kind == rewrite.Str {
		name = t.StrVal
	}
	return fileView{
		id:    intAt(e, s.id),
		name:  name,
		perms: vkernel.Mode(intAt(e, s.perms)),
		owner: int(intAt(e, s.owner)),
		group: int(intAt(e, s.group)),
	}
}

func (f fileView) term() *rewrite.Term {
	return File(int(f.id), f.name, f.perms, f.owner, f.group)
}

// dirView reads a matched directory entry.
type dirView struct {
	fileView
	inode int64
}

func dirFrom(e *rewrite.Env, s fileSlots) dirView {
	return dirView{fileView: fileFrom(e, s), inode: intAt(e, s.inode)}
}

func (d dirView) term() *rewrite.Term {
	return DirEntry(int(d.id), d.name, d.perms, d.owner, d.group, int(d.inode))
}

// scanUsers returns the uids of User objects in a configuration term.
func scanUsers(cfg *rewrite.Term) []int {
	return scanSingletons(cfg, symUser)
}

// scanGroups returns the gids of Group objects.
func scanGroups(cfg *rewrite.Term) []int {
	return scanSingletons(cfg, symGroup)
}

func scanSingletons(cfg *rewrite.Term, sym string) []int {
	if cfg == nil || cfg.Kind != rewrite.Config {
		return nil
	}
	var out []int
	for _, e := range cfg.Args {
		if e.Kind == rewrite.Op && e.Sym == sym && len(e.Args) == 1 && e.Args[0].IsInt() {
			out = append(out, int(e.Args[0].IntVal))
		}
	}
	return out
}

// distinct drops the repeats from ids in place, keeping first occurrences
// in order.
func distinct(ids []int) []int {
	out := ids[:0]
	for _, v := range ids {
		if !slices.Contains(out, v) {
			out = append(out, v)
		}
	}
	return out
}

// scanDirsPointingAt returns the Dir entries in cfg whose inode is fid — the
// single parent level ROSA checks during pathname lookup.
func scanDirsPointingAt(cfg *rewrite.Term, fid int64) []dirView {
	if cfg == nil || cfg.Kind != rewrite.Config {
		return nil
	}
	var out []dirView
	for _, e := range cfg.Args {
		if e.Kind == rewrite.Op && e.Sym == symDir && len(e.Args) == dirArity {
			if e.Args[dInode].IsInt() && e.Args[dInode].IntVal == fid {
				out = append(out, dirView{
					fileView: fileView{
						id:    e.Args[fID].IntVal,
						name:  e.Args[fName].StrVal,
						perms: vkernel.Mode(e.Args[fPerms].IntVal),
						owner: int(e.Args[fOwner].IntVal),
						group: int(e.Args[fGroup].IntVal),
					},
					inode: e.Args[dInode].IntVal,
				})
			}
		}
	}
	return out
}

// scanBoundPort reports whether any socket in cfg is already bound to port.
func scanBoundPort(cfg *rewrite.Term, port int64) bool {
	if cfg == nil || cfg.Kind != rewrite.Config {
		return false
	}
	for _, e := range cfg.Args {
		if e.Kind == rewrite.Op && e.Sym == symSocket && len(e.Args) == 2 &&
			e.Args[1].IsInt() && e.Args[1].IntVal == port {
			return true
		}
	}
	return false
}

// wildcard resolves a message argument: Wild expands to the candidate list,
// a concrete value to itself.
func wildcard(v int64, candidates []int) []int {
	if v != Wild {
		return []int{int(v)}
	}
	return candidates
}

// bindingInt fetches a bound integer, defaulting to Wild on a mismatch (a
// non-integer subject never satisfies the integer-shaped rules).
func bindingInt(e *rewrite.Env, slot int) int64 {
	v, ok := e.IntAt(slot)
	if !ok {
		return Wild
	}
	return v
}

// privsOf reads the message's privilege-set argument.
func privsOf(e *rewrite.Env, slot int) caps.Set {
	return caps.Set(bindingInt(e, slot))
}

// NewSystem builds the ROSA rewrite theory: one rule per modeled system
// call, each consuming its message when the call would succeed under the
// Linux access controls given the process's credentials and the message's
// privileges.
func NewSystem() *rewrite.System {
	return &rewrite.System{
		Sig: Signature(),
		Rules: []rewrite.Rule{
			openRule(),
			chmodRule(), fchmodRule(),
			chownRule(), fchownRule(),
			unlinkRule(), renameRule(),
			setuidRule(), seteuidRule(), setresuidRule(),
			setgidRule(), setegidRule(), setresgidRule(),
			killRule(),
			socketRule(), bindRule(), connectRule(),
		},
	}
}

// openRule: a successful open adds the file's object ID to the process's
// read and/or write set. Pathname lookup checks search permission on every
// directory entry whose inode is the file (the single parent level §V-B).
func openRule() rewrite.Rule {
	lhs := rewrite.NewConfig(
		rewrite.NewOp("open", iv("PID"), iv("FID"), iv("MODE"), iv("PR")),
		procPattern("P_", "PID"),
		filePattern("F_"),
		zvar(),
	)
	slot := slotsOf(lhs)
	ps, fs := procSlotsOf(slot, "P_", "PID"), fileSlotsOf(slot, "F_")
	fidS, modeS, prS := slot("FID"), slot("MODE"), slot("PR")
	return rewrite.Rule{
		Name: "open",
		LHS:  lhs,
		Cond: func(e *rewrite.Env) bool {
			fid := bindingInt(e, fidS)
			return fid == Wild || fid == bindingInt(e, fs.id)
		},
		BuildAll: func(e *rewrite.Env) []*rewrite.Term {
			p := procFrom(e, ps)
			f := fileFrom(e, fs)
			if !p.running() {
				return nil
			}
			privs := privsOf(e, prS)
			mode := bindingInt(e, modeS)
			read := mode == OpenRead || mode == OpenRDWR
			write := mode == OpenWrite || mode == OpenRDWR
			if !p.mayAccess(f, read, write, privs) {
				return nil
			}
			// Pathname lookup on a single parent level (§V-B): the process
			// reaches the file through some directory entry whose inode is
			// the file's ID, so at least one such entry must grant search
			// permission. A file with no entries is reachable (an already
			// held descriptor).
			if dirs := scanDirsPointingAt(e.Rest(), f.id); len(dirs) > 0 {
				ok := false
				for _, d := range dirs {
					if p.maySearch(d.fileView, privs) {
						ok = true
						break
					}
				}
				if !ok {
					return nil
				}
			}
			if read {
				p.rdf = SetAdd(p.rdf, int(f.id))
			}
			if write {
				p.wrf = SetAdd(p.wrf, int(f.id))
			}
			return []*rewrite.Term{e.Replace(p.term(), f.term())}
		},
	}
}

// chmodRule: the caller must own the file or hold CAP_FOWNER.
func chmodRule() rewrite.Rule {
	return chmodLike("chmod", false)
}

// fchmodRule: chmod through an open descriptor; additionally requires the
// file to be in the process's read or write set.
func fchmodRule() rewrite.Rule {
	return chmodLike("fchmod", true)
}

func chmodLike(name string, needsOpen bool) rewrite.Rule {
	lhs := rewrite.NewConfig(
		rewrite.NewOp(name, iv("PID"), iv("FID"), iv("PERMS"), iv("PR")),
		procPattern("P_", "PID"),
		filePattern("F_"),
		zvar(),
	)
	slot := slotsOf(lhs)
	ps, fs := procSlotsOf(slot, "P_", "PID"), fileSlotsOf(slot, "F_")
	fidS, permsS, prS := slot("FID"), slot("PERMS"), slot("PR")
	return rewrite.Rule{
		Name: name,
		LHS:  lhs,
		Cond: func(e *rewrite.Env) bool {
			fid := bindingInt(e, fidS)
			return fid == Wild || fid == bindingInt(e, fs.id)
		},
		BuildAll: func(e *rewrite.Env) []*rewrite.Term {
			p := procFrom(e, ps)
			f := fileFrom(e, fs)
			if !p.running() {
				return nil
			}
			if needsOpen && !SetHas(p.rdf, int(f.id)) && !SetHas(p.wrf, int(f.id)) {
				return nil
			}
			privs := privsOf(e, prS)
			if !vkernel.MayChmod(f.owner, p.uids.E, privs) {
				return nil
			}
			f.perms = vkernel.Mode(bindingInt(e, permsS)) & 0x1FF
			return []*rewrite.Term{e.Replace(p.term(), f.term())}
		},
	}
}

// chownRule: changing the owner needs CAP_CHOWN; changing the group needs
// CAP_CHOWN, or file ownership plus membership in the target group. Wild
// owner/group arguments range over the configuration's User/Group objects.
func chownRule() rewrite.Rule {
	return chownLike("chown", false)
}

// fchownRule is chown through an open descriptor.
func fchownRule() rewrite.Rule {
	return chownLike("fchown", true)
}

func chownLike(name string, needsOpen bool) rewrite.Rule {
	lhs := rewrite.NewConfig(
		rewrite.NewOp(name, iv("PID"), iv("FID"), iv("OWNER"), iv("GROUP"), iv("PR")),
		procPattern("P_", "PID"),
		filePattern("F_"),
		zvar(),
	)
	slot := slotsOf(lhs)
	ps, fs := procSlotsOf(slot, "P_", "PID"), fileSlotsOf(slot, "F_")
	fidS, ownerS, groupS, prS := slot("FID"), slot("OWNER"), slot("GROUP"), slot("PR")
	return rewrite.Rule{
		Name: name,
		LHS:  lhs,
		Cond: func(e *rewrite.Env) bool {
			fid := bindingInt(e, fidS)
			return fid == Wild || fid == bindingInt(e, fs.id)
		},
		BuildAll: func(e *rewrite.Env) []*rewrite.Term {
			p := procFrom(e, ps)
			f := fileFrom(e, fs)
			if !p.running() {
				return nil
			}
			if needsOpen && !SetHas(p.rdf, int(f.id)) && !SetHas(p.wrf, int(f.id)) {
				return nil
			}
			privs := privsOf(e, prS)
			z := e.Rest()
			var out []*rewrite.Term
			for _, newOwner := range wildcard(bindingInt(e, ownerS), scanUsers(z)) {
				for _, newGroup := range wildcard(bindingInt(e, groupS), scanGroups(z)) {
					if !vkernel.MayChown(f.owner, f.group, newOwner, newGroup, p.uids.E, p.gids.May(newGroup, false), privs) {
						continue
					}
					nf := f
					nf.owner, nf.group = newOwner, newGroup
					out = append(out, e.Replace(p.term(), nf.term()))
				}
			}
			return out
		},
	}
}

// unlinkRule removes a directory entry: it needs search and write permission
// on the entry; the entry's inode becomes Wild (no file).
func unlinkRule() rewrite.Rule {
	lhs := rewrite.NewConfig(
		rewrite.NewOp("unlink", iv("PID"), iv("DID"), iv("PR")),
		procPattern("P_", "PID"),
		dirPattern("D_"),
		zvar(),
	)
	slot := slotsOf(lhs)
	ps, ds := procSlotsOf(slot, "P_", "PID"), dirSlotsOf(slot, "D_")
	didS, prS := slot("DID"), slot("PR")
	return rewrite.Rule{
		Name: "unlink",
		LHS:  lhs,
		Cond: func(e *rewrite.Env) bool {
			did := bindingInt(e, didS)
			return did == Wild || did == bindingInt(e, ds.id)
		},
		BuildAll: func(e *rewrite.Env) []*rewrite.Term {
			p := procFrom(e, ps)
			d := dirFrom(e, ds)
			if !p.running() {
				return nil
			}
			privs := privsOf(e, prS)
			if !p.maySearch(d.fileView, privs) || !p.mayAccess(d.fileView, false, true, privs) {
				return nil
			}
			d.inode = Wild
			return []*rewrite.Term{e.Replace(p.term(), d.term())}
		},
	}
}

// renameRule re-points a directory entry at another file object: write
// permission on the entry is required.
func renameRule() rewrite.Rule {
	lhs := rewrite.NewConfig(
		rewrite.NewOp("rename", iv("PID"), iv("DID"), iv("INODE"), iv("PR")),
		procPattern("P_", "PID"),
		dirPattern("D_"),
		zvar(),
	)
	slot := slotsOf(lhs)
	ps, ds := procSlotsOf(slot, "P_", "PID"), dirSlotsOf(slot, "D_")
	didS, inodeS, prS := slot("DID"), slot("INODE"), slot("PR")
	return rewrite.Rule{
		Name: "rename",
		LHS:  lhs,
		Cond: func(e *rewrite.Env) bool {
			did := bindingInt(e, didS)
			return did == Wild || did == bindingInt(e, ds.id)
		},
		BuildAll: func(e *rewrite.Env) []*rewrite.Term {
			p := procFrom(e, ps)
			d := dirFrom(e, ds)
			if !p.running() {
				return nil
			}
			privs := privsOf(e, prS)
			if !p.mayAccess(d.fileView, false, true, privs) {
				return nil
			}
			d.inode = bindingInt(e, inodeS)
			return []*rewrite.Term{e.Replace(p.term(), d.term())}
		},
	}
}

// idKind returns what a credential call on the user IDs, or on the group
// IDs when group is set, draws wild arguments from and is privileged by.
func idKind(group bool) (scan func(*rewrite.Term) []int, c caps.Cap) {
	if group {
		return scanGroups, caps.CapSetgid
	}
	return scanUsers, caps.CapSetuid
}

// credRule builds the rules of the single-argument credential calls: the
// message sym(PID, ID, PR) plus the calling process, whose user IDs (group
// IDs when group is set) become next's result; next is the caps.IDs
// transition, and ok=false denies the call. A Wild argument ranges over
// the User (Group) objects in the rest of the configuration.
func credRule(sym string, group bool, next func(ids caps.IDs, v int, priv bool) (caps.IDs, bool)) rewrite.Rule {
	lhs := rewrite.NewConfig(
		rewrite.NewOp(sym, iv("PID"), iv("ID"), iv("PR")),
		procPattern("P_", "PID"),
		zvar(),
	)
	slot := slotsOf(lhs)
	ps, argS, prS := procSlotsOf(slot, "P_", "PID"), slot("ID"), slot("PR")
	scan, c := idKind(group)
	return rewrite.Rule{
		Name: sym,
		LHS:  lhs,
		BuildAll: func(e *rewrite.Env) []*rewrite.Term {
			p := procFrom(e, ps)
			if !p.running() {
				return nil
			}
			priv := privsOf(e, prS).Has(c)
			var out []*rewrite.Term
			for _, v := range wildcard(bindingInt(e, argS), scan(e.Rest())) {
				if ids, ok := next(*p.ids(group), v, priv); ok {
					np := p
					*np.ids(group) = ids
					out = append(out, e.Replace(np.term()))
				}
			}
			return out
		},
	}
}

// The single-argument credential rules: setuid(2), seteuid(2) and their
// gid twins, gated on CAP_SETUID and CAP_SETGID.
func setuidRule() rewrite.Rule  { return credRule("setuid", false, caps.IDs.Setid) }
func seteuidRule() rewrite.Rule { return credRule("seteuid", false, caps.IDs.Seteid) }
func setgidRule() rewrite.Rule  { return credRule("setgid", true, caps.IDs.Setid) }
func setegidRule() rewrite.Rule { return credRule("setegid", true, caps.IDs.Seteid) }

// resRule builds setresuid, or setresgid when group is set: each Wild
// component ranges over the distinct User (Group) ids plus the
// corresponding current value, in first-occurrence order (ROSA must try
// every combination — the state-space blow-up the paper's §VIII measures),
// and every combination caps.IDs.Setres accepts is a successor. A repeated
// candidate could only rebuild a successor already emitted, so each is
// tried once. Components Setres would refuse (caps.IDs.May) are pruned
// before the inner loops run.
func resRule(sym string, group bool) rewrite.Rule {
	lhs := rewrite.NewConfig(
		rewrite.NewOp(sym, iv("PID"), iv("R"), iv("E"), iv("S"), iv("PR")),
		procPattern("P_", "PID"),
		zvar(),
	)
	slot := slotsOf(lhs)
	ps, prS := procSlotsOf(slot, "P_", "PID"), slot("PR")
	rS, eS, sS := slot("R"), slot("E"), slot("S")
	scan, c := idKind(group)
	return rewrite.Rule{
		Name: sym,
		LHS:  lhs,
		BuildAll: func(e *rewrite.Env) []*rewrite.Term {
			p := procFrom(e, ps)
			if !p.running() {
				return nil
			}
			priv := privsOf(e, prS).Has(c)
			known := distinct(scan(e.Rest()))
			cur := *p.ids(group)
			candidates := func(arg int64, cur int) []int {
				if arg != Wild {
					return []int{int(arg)}
				}
				if slices.Contains(known, cur) {
					return known
				}
				return append(known[:len(known):len(known)], cur)
			}
			rc := candidates(bindingInt(e, rS), cur.R)
			ec := candidates(bindingInt(e, eS), cur.E)
			sc := candidates(bindingInt(e, sS), cur.S)
			var out []*rewrite.Term
			for _, r := range rc {
				if !cur.May(r, priv) {
					continue
				}
				for _, ev := range ec {
					if !cur.May(ev, priv) {
						continue
					}
					for _, s := range sc {
						ids, ok := cur.Setres(r, ev, s, priv)
						if !ok {
							continue
						}
						np := p
						*np.ids(group) = ids
						out = append(out, e.Replace(np.term()))
					}
				}
			}
			return out
		},
	}
}

// setresuidRule: setresuid(2) under CAP_SETUID.
func setresuidRule() rewrite.Rule { return resRule("setresuid", false) }

// setresgidRule is the group analogue of setresuidRule (CAP_SETGID).
func setresgidRule() rewrite.Rule { return resRule("setresgid", true) }

// killRule: the sender's real or effective UID must match the target's real
// or saved UID, or the message must carry CAP_KILL. SIGKILL and SIGTERM
// terminate the target.
func killRule() rewrite.Rule {
	lhs := rewrite.NewConfig(
		rewrite.NewOp("kill", iv("PID"), iv("TGT"), iv("SIG"), iv("PR")),
		procPattern("P_", "PID"),
		procPattern("T_", "T_id"),
		zvar(),
	)
	slot := slotsOf(lhs)
	ps, ts := procSlotsOf(slot, "P_", "PID"), procSlotsOf(slot, "T_", "T_id")
	tgtS, sigS, prS := slot("TGT"), slot("SIG"), slot("PR")
	return rewrite.Rule{
		Name: "kill",
		LHS:  lhs,
		Cond: func(e *rewrite.Env) bool {
			tgt := bindingInt(e, tgtS)
			return tgt == Wild || tgt == bindingInt(e, ts.id)
		},
		BuildAll: func(e *rewrite.Env) []*rewrite.Term {
			p := procFrom(e, ps)
			t := procFrom(e, ts)
			if !p.running() || !t.running() {
				return nil
			}
			if !vkernel.MayKill(p.uids, t.uids, privsOf(e, prS)) {
				return nil
			}
			sig := bindingInt(e, sigS)
			if sig == 9 || sig == 15 {
				t.state = termState
			}
			return []*rewrite.Term{e.Replace(p.term(), t.term())}
		},
	}
}

// socketRule creates a TCP socket object with the message's socket ID.
func socketRule() rewrite.Rule {
	lhs := rewrite.NewConfig(
		rewrite.NewOp("socket", iv("PID"), iv("SID"), iv("PR")),
		procPattern("P_", "PID"),
		zvar(),
	)
	slot := slotsOf(lhs)
	ps, sidS := procSlotsOf(slot, "P_", "PID"), slot("SID")
	return rewrite.Rule{
		Name: "socket",
		LHS:  lhs,
		BuildAll: func(e *rewrite.Env) []*rewrite.Term {
			p := procFrom(e, ps)
			if !p.running() {
				return nil
			}
			sid := bindingInt(e, sidS)
			return []*rewrite.Term{e.Replace(p.term(), SocketObj(int(sid), 0))}
		},
	}
}

// socketPattern matches a socket object, binding S_id and S_port.
func socketPattern() *rewrite.Term {
	return rewrite.NewOp(symSocket, iv("S_id"), iv("S_port"))
}

// bindRule binds an unbound socket to a TCP port: ports below 1024 require
// CAP_NET_BIND_SERVICE, and a port already bound by another socket is
// unavailable.
func bindRule() rewrite.Rule {
	lhs := rewrite.NewConfig(
		rewrite.NewOp("bind", iv("PID"), iv("SID"), iv("PORT"), iv("PR")),
		procPattern("P_", "PID"),
		socketPattern(),
		zvar(),
	)
	slot := slotsOf(lhs)
	ps, sidS, portS, prS := procSlotsOf(slot, "P_", "PID"), slot("SID"), slot("PORT"), slot("PR")
	sIDS, sPortS := slot("S_id"), slot("S_port")
	return rewrite.Rule{
		Name: "bind",
		LHS:  lhs,
		Cond: func(e *rewrite.Env) bool {
			sid := bindingInt(e, sidS)
			return (sid == Wild || sid == bindingInt(e, sIDS)) && bindingInt(e, sPortS) == 0
		},
		BuildAll: func(e *rewrite.Env) []*rewrite.Term {
			p := procFrom(e, ps)
			if !p.running() {
				return nil
			}
			port := bindingInt(e, portS)
			if !vkernel.MayBind(int(port), scanBoundPort(e.Rest(), port), privsOf(e, prS)) {
				return nil
			}
			sid := bindingInt(e, sIDS)
			return []*rewrite.Term{e.Replace(p.term(), SocketObj(int(sid), int(port)))}
		},
	}
}

// connectRule consumes a connect message on an existing socket; connecting
// needs no privilege in the model.
func connectRule() rewrite.Rule {
	lhs := rewrite.NewConfig(
		rewrite.NewOp("connect", iv("PID"), iv("SID"), iv("PORT"), iv("PR")),
		procPattern("P_", "PID"),
		socketPattern(),
		zvar(),
	)
	slot := slotsOf(lhs)
	ps, sidS := procSlotsOf(slot, "P_", "PID"), slot("SID")
	sIDS, sPortS := slot("S_id"), slot("S_port")
	return rewrite.Rule{
		Name: "connect",
		LHS:  lhs,
		Cond: func(e *rewrite.Env) bool {
			sid := bindingInt(e, sidS)
			return sid == Wild || sid == bindingInt(e, sIDS)
		},
		BuildAll: func(e *rewrite.Env) []*rewrite.Term {
			p := procFrom(e, ps)
			if !p.running() {
				return nil
			}
			sid := bindingInt(e, sIDS)
			port := bindingInt(e, sPortS)
			return []*rewrite.Term{e.Replace(p.term(), SocketObj(int(sid), int(port)))}
		},
	}
}
