package rosa

import (
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

// procView reads a matched process object out of a binding.
type procView struct {
	id               int64
	euid, ruid, suid int64
	egid, rgid, sgid int64
	state            *rewrite.Term
	rdf, wrf         *rewrite.Term
}

func procFrom(b rewrite.Binding, prefix, idVar string) procView {
	geti := func(n string) int64 { v, _ := b.Int(n); return v }
	return procView{
		id:    geti(idVar),
		euid:  geti(prefix + "euid"),
		ruid:  geti(prefix + "ruid"),
		suid:  geti(prefix + "suid"),
		egid:  geti(prefix + "egid"),
		rgid:  geti(prefix + "rgid"),
		sgid:  geti(prefix + "sgid"),
		state: b.Get(prefix + "state"),
		rdf:   b.Get(prefix + "rdf"),
		wrf:   b.Get(prefix + "wrf"),
	}
}

func (p procView) term() *rewrite.Term {
	return rewrite.InternOp(symProcess,
		rewrite.NewInt(p.id),
		rewrite.NewInt(p.euid), rewrite.NewInt(p.ruid), rewrite.NewInt(p.suid),
		rewrite.NewInt(p.egid), rewrite.NewInt(p.rgid), rewrite.NewInt(p.sgid),
		p.state, p.rdf, p.wrf)
}

func (p procView) running() bool {
	return p.state != nil && p.state.Kind == rewrite.Op && p.state.Sym == symRun
}

// uidOK reports whether an unprivileged process may assume uid v.
func (p procView) uidOK(v int64) bool { return v == p.ruid || v == p.euid || v == p.suid }
func (p procView) gidOK(v int64) bool { return v == p.rgid || v == p.egid || v == p.sgid }

// fileView reads a matched file object.
type fileView struct {
	id    int64
	name  string
	perms vkernel.Mode
	owner int64
	group int64
}

func fileFrom(b rewrite.Binding, prefix string) fileView {
	geti := func(n string) int64 { v, _ := b.Int(n); return v }
	name := ""
	if t := b.Get(prefix + "name"); t != nil && t.Kind == rewrite.Str {
		name = t.StrVal
	}
	return fileView{
		id:    geti(prefix + "id"),
		name:  name,
		perms: vkernel.Mode(geti(prefix + "perms")),
		owner: geti(prefix + "owner"),
		group: geti(prefix + "group"),
	}
}

func (f fileView) term() *rewrite.Term {
	return File(int(f.id), f.name, f.perms, int(f.owner), int(f.group))
}

// dirView reads a matched directory entry.
type dirView struct {
	fileView
	inode int64
}

func dirFrom(b rewrite.Binding, prefix string) dirView {
	v, _ := b.Int(prefix + "inode")
	return dirView{fileView: fileFrom(b, prefix), inode: v}
}

func (d dirView) term() *rewrite.Term {
	return DirEntry(int(d.id), d.name, d.perms, int(d.owner), int(d.group), int(d.inode))
}

// scanUsers returns the uids of User objects in a configuration term.
func scanUsers(cfg *rewrite.Term) []int64 {
	return scanSingletons(cfg, symUser)
}

// scanGroups returns the gids of Group objects.
func scanGroups(cfg *rewrite.Term) []int64 {
	return scanSingletons(cfg, symGroup)
}

func scanSingletons(cfg *rewrite.Term, sym string) []int64 {
	if cfg == nil || cfg.Kind != rewrite.Config {
		return nil
	}
	var out []int64
	for _, e := range cfg.Args {
		if e.Kind == rewrite.Op && e.Sym == sym && len(e.Args) == 1 && e.Args[0].IsInt() {
			out = append(out, e.Args[0].IntVal)
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
						owner: e.Args[fOwner].IntVal,
						group: e.Args[fGroup].IntVal,
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

// dacAllowed is the Linux DAC check with capability bypasses:
// CAP_DAC_OVERRIDE bypasses everything, CAP_DAC_READ_SEARCH bypasses
// read-only access. privs is the privilege set the message may use (the
// attacker raises any of them).
//
// It differs from the vkernel's accessAllowed by a deliberate model choice:
// ROSA's process term carries no supplementary groups (neither does the
// paper's), so the group bits apply only when the egid equals the file's
// group, and any other process is judged on the other-bits. The vkernel also
// grants the group bits through p.Supp. searchDirAllowed makes the same
// choice for directories.
func dacAllowed(p procView, f fileView, read, write bool, privs caps.Set) bool {
	if privs.Has(caps.CapDacOverride) {
		return true
	}
	if read && !write && privs.Has(caps.CapDacReadSearch) {
		return true
	}
	var rBit, wBit vkernel.Mode
	switch {
	case p.euid == f.owner:
		rBit, wBit = vkernel.OwnerR, vkernel.OwnerW
	case p.egid == f.group:
		rBit, wBit = vkernel.GroupR, vkernel.GroupW
	default:
		rBit, wBit = vkernel.OtherR, vkernel.OtherW
	}
	if read && f.perms&rBit == 0 {
		return false
	}
	if write && f.perms&wBit == 0 {
		return false
	}
	return true
}

// searchDirAllowed checks search (execute) permission on a directory entry.
func searchDirAllowed(p procView, d dirView, privs caps.Set) bool {
	if privs.Has(caps.CapDacOverride) || privs.Has(caps.CapDacReadSearch) {
		return true
	}
	var xBit vkernel.Mode
	switch {
	case p.euid == d.owner:
		xBit = vkernel.OwnerX
	case p.egid == d.group:
		xBit = vkernel.GroupX
	default:
		xBit = vkernel.OtherX
	}
	return d.perms&xBit != 0
}

// wildcard resolves a message argument: Wild expands to the candidate list,
// a concrete value to itself.
func wildcard(v int64, candidates []int64) []int64 {
	if v != Wild {
		return []int64{v}
	}
	return candidates
}

// bindingInt fetches a bound integer, defaulting to Wild on a mismatch (a
// non-integer subject never satisfies the integer-shaped rules).
func bindingInt(b rewrite.Binding, name string) int64 {
	v, ok := b.Int(name)
	if !ok {
		return Wild
	}
	return v
}

// privsOf reads the message's privilege-set argument.
func privsOf(b rewrite.Binding, name string) caps.Set {
	return caps.Set(bindingInt(b, name))
}

// rebuild assembles the post-state configuration: the rest variable Z plus
// the updated matched objects (the consumed message is simply not included).
// It interns through InternConfig: a rewrite step usually reconstructs a
// state the search has already canonicalized, and the parts-probe returns
// that canonical term without building a fresh configuration first.
func rebuild(b rewrite.Binding, objs ...*rewrite.Term) *rewrite.Term {
	if z := b.Get("Z"); z != nil {
		objs = append(objs, z)
	}
	return rewrite.InternConfig(objs...)
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
	return rewrite.Rule{
		Name: "open",
		LHS: rewrite.NewConfig(
			rewrite.NewOp("open", iv("PID"), iv("FID"), iv("MODE"), iv("PR")),
			procPattern("P_", "PID"),
			filePattern("F_"),
			zvar(),
		),
		Cond: func(b rewrite.Binding) bool {
			fid := bindingInt(b, "FID")
			return fid == Wild || fid == bindingInt(b, "F_id")
		},
		BuildAll: func(b rewrite.Binding) []*rewrite.Term {
			p := procFrom(b, "P_", "PID")
			f := fileFrom(b, "F_")
			if !p.running() {
				return nil
			}
			privs := privsOf(b, "PR")
			mode := bindingInt(b, "MODE")
			read := mode == OpenRead || mode == OpenRDWR
			write := mode == OpenWrite || mode == OpenRDWR
			if !dacAllowed(p, f, read, write, privs) {
				return nil
			}
			// Pathname lookup on a single parent level (§V-B): the process
			// reaches the file through some directory entry whose inode is
			// the file's ID, so at least one such entry must grant search
			// permission. A file with no entries is reachable (an already
			// held descriptor).
			if dirs := scanDirsPointingAt(b.Get("Z"), f.id); len(dirs) > 0 {
				ok := false
				for _, d := range dirs {
					if searchDirAllowed(p, d, privs) {
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
			return []*rewrite.Term{rebuild(b, p.term(), f.term())}
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
	return rewrite.Rule{
		Name: name,
		LHS: rewrite.NewConfig(
			rewrite.NewOp(name, iv("PID"), iv("FID"), iv("PERMS"), iv("PR")),
			procPattern("P_", "PID"),
			filePattern("F_"),
			zvar(),
		),
		Cond: func(b rewrite.Binding) bool {
			fid := bindingInt(b, "FID")
			return fid == Wild || fid == bindingInt(b, "F_id")
		},
		BuildAll: func(b rewrite.Binding) []*rewrite.Term {
			p := procFrom(b, "P_", "PID")
			f := fileFrom(b, "F_")
			if !p.running() {
				return nil
			}
			if needsOpen && !SetHas(p.rdf, int(f.id)) && !SetHas(p.wrf, int(f.id)) {
				return nil
			}
			privs := privsOf(b, "PR")
			if p.euid != f.owner && !privs.Has(caps.CapFowner) {
				return nil
			}
			f.perms = vkernel.Mode(bindingInt(b, "PERMS")) & 0x1FF
			return []*rewrite.Term{rebuild(b, p.term(), f.term())}
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
	return rewrite.Rule{
		Name: name,
		LHS: rewrite.NewConfig(
			rewrite.NewOp(name, iv("PID"), iv("FID"), iv("OWNER"), iv("GROUP"), iv("PR")),
			procPattern("P_", "PID"),
			filePattern("F_"),
			zvar(),
		),
		Cond: func(b rewrite.Binding) bool {
			fid := bindingInt(b, "FID")
			return fid == Wild || fid == bindingInt(b, "F_id")
		},
		BuildAll: func(b rewrite.Binding) []*rewrite.Term {
			p := procFrom(b, "P_", "PID")
			f := fileFrom(b, "F_")
			if !p.running() {
				return nil
			}
			if needsOpen && !SetHas(p.rdf, int(f.id)) && !SetHas(p.wrf, int(f.id)) {
				return nil
			}
			privs := privsOf(b, "PR")
			z := b.Get("Z")
			var out []*rewrite.Term
			for _, newOwner := range wildcard(bindingInt(b, "OWNER"), scanUsers(z)) {
				for _, newGroup := range wildcard(bindingInt(b, "GROUP"), scanGroups(z)) {
					nf := f
					if newOwner != f.owner {
						if !privs.Has(caps.CapChown) {
							continue
						}
						nf.owner = newOwner
					}
					if newGroup != f.group {
						ownGroup := p.gidOK(newGroup)
						if !privs.Has(caps.CapChown) && !(p.euid == f.owner && ownGroup) {
							continue
						}
						nf.group = newGroup
					}
					out = append(out, rebuild(b, p.term(), nf.term()))
				}
			}
			return out
		},
	}
}

// unlinkRule removes a directory entry: it needs search and write permission
// on the entry; the entry's inode becomes Wild (no file).
func unlinkRule() rewrite.Rule {
	return rewrite.Rule{
		Name: "unlink",
		LHS: rewrite.NewConfig(
			rewrite.NewOp("unlink", iv("PID"), iv("DID"), iv("PR")),
			procPattern("P_", "PID"),
			dirPattern("D_"),
			zvar(),
		),
		Cond: func(b rewrite.Binding) bool {
			did := bindingInt(b, "DID")
			return did == Wild || did == bindingInt(b, "D_id")
		},
		BuildAll: func(b rewrite.Binding) []*rewrite.Term {
			p := procFrom(b, "P_", "PID")
			d := dirFrom(b, "D_")
			if !p.running() {
				return nil
			}
			privs := privsOf(b, "PR")
			if !searchDirAllowed(p, d, privs) || !dacAllowed(p, d.fileView, false, true, privs) {
				return nil
			}
			d.inode = Wild
			return []*rewrite.Term{rebuild(b, p.term(), d.term())}
		},
	}
}

// renameRule re-points a directory entry at another file object: write
// permission on the entry is required.
func renameRule() rewrite.Rule {
	return rewrite.Rule{
		Name: "rename",
		LHS: rewrite.NewConfig(
			rewrite.NewOp("rename", iv("PID"), iv("DID"), iv("INODE"), iv("PR")),
			procPattern("P_", "PID"),
			dirPattern("D_"),
			zvar(),
		),
		Cond: func(b rewrite.Binding) bool {
			did := bindingInt(b, "DID")
			return did == Wild || did == bindingInt(b, "D_id")
		},
		BuildAll: func(b rewrite.Binding) []*rewrite.Term {
			p := procFrom(b, "P_", "PID")
			d := dirFrom(b, "D_")
			if !p.running() {
				return nil
			}
			privs := privsOf(b, "PR")
			if !dacAllowed(p, d.fileView, false, true, privs) {
				return nil
			}
			d.inode = bindingInt(b, "INODE")
			return []*rewrite.Term{rebuild(b, p.term(), d.term())}
		},
	}
}

// setuidRule: with CAP_SETUID all three UIDs become the chosen value; an
// unprivileged call may only adopt the real or saved UID and changes the
// effective UID only.
func setuidRule() rewrite.Rule {
	return rewrite.Rule{
		Name: "setuid",
		LHS: rewrite.NewConfig(
			rewrite.NewOp("setuid", iv("PID"), iv("UID"), iv("PR")),
			procPattern("P_", "PID"),
			zvar(),
		),
		BuildAll: func(b rewrite.Binding) []*rewrite.Term {
			p := procFrom(b, "P_", "PID")
			if !p.running() {
				return nil
			}
			privs := privsOf(b, "PR")
			var out []*rewrite.Term
			for _, uid := range wildcard(bindingInt(b, "UID"), scanUsers(b.Get("Z"))) {
				np := p
				if privs.Has(caps.CapSetuid) {
					np.ruid, np.euid, np.suid = uid, uid, uid
				} else if uid == p.ruid || uid == p.suid {
					np.euid = uid
				} else {
					continue
				}
				out = append(out, rebuild(b, np.term()))
			}
			return out
		},
	}
}

// seteuidRule changes only the effective UID, privileged or to the real or
// saved UID.
func seteuidRule() rewrite.Rule {
	return rewrite.Rule{
		Name: "seteuid",
		LHS: rewrite.NewConfig(
			rewrite.NewOp("seteuid", iv("PID"), iv("UID"), iv("PR")),
			procPattern("P_", "PID"),
			zvar(),
		),
		BuildAll: func(b rewrite.Binding) []*rewrite.Term {
			p := procFrom(b, "P_", "PID")
			if !p.running() {
				return nil
			}
			privs := privsOf(b, "PR")
			var out []*rewrite.Term
			for _, uid := range wildcard(bindingInt(b, "UID"), scanUsers(b.Get("Z"))) {
				if !privs.Has(caps.CapSetuid) && uid != p.ruid && uid != p.suid {
					continue
				}
				np := p
				np.euid = uid
				out = append(out, rebuild(b, np.term()))
			}
			return out
		},
	}
}

// setresuidRule: each Wild component ranges over the User objects plus the
// corresponding current value (ROSA must try every combination — the
// state-space blow-up the paper's §VIII measures). Unprivileged calls may
// set each component only to one of the current real, effective, or saved
// UIDs.
func setresuidRule() rewrite.Rule {
	return rewrite.Rule{
		Name: "setresuid",
		LHS: rewrite.NewConfig(
			rewrite.NewOp("setresuid", iv("PID"), iv("R"), iv("E"), iv("S"), iv("PR")),
			procPattern("P_", "PID"),
			zvar(),
		),
		BuildAll: func(b rewrite.Binding) []*rewrite.Term {
			p := procFrom(b, "P_", "PID")
			if !p.running() {
				return nil
			}
			privs := privsOf(b, "PR")
			users := scanUsers(b.Get("Z"))
			priv := privs.Has(caps.CapSetuid)
			candidates := func(arg, cur int64) []int64 {
				if arg != Wild {
					return []int64{arg}
				}
				return append(append([]int64(nil), users...), cur)
			}
			var out []*rewrite.Term
			for _, r := range candidates(bindingInt(b, "R"), p.ruid) {
				if !priv && !p.uidOK(r) {
					continue
				}
				for _, e := range candidates(bindingInt(b, "E"), p.euid) {
					if !priv && !p.uidOK(e) {
						continue
					}
					for _, s := range candidates(bindingInt(b, "S"), p.suid) {
						if !priv && !p.uidOK(s) {
							continue
						}
						np := p
						np.ruid, np.euid, np.suid = r, e, s
						out = append(out, rebuild(b, np.term()))
					}
				}
			}
			return out
		},
	}
}

// setgidRule is the group analogue of setuidRule (CAP_SETGID).
func setgidRule() rewrite.Rule {
	return rewrite.Rule{
		Name: "setgid",
		LHS: rewrite.NewConfig(
			rewrite.NewOp("setgid", iv("PID"), iv("GID"), iv("PR")),
			procPattern("P_", "PID"),
			zvar(),
		),
		BuildAll: func(b rewrite.Binding) []*rewrite.Term {
			p := procFrom(b, "P_", "PID")
			if !p.running() {
				return nil
			}
			privs := privsOf(b, "PR")
			var out []*rewrite.Term
			for _, gid := range wildcard(bindingInt(b, "GID"), scanGroups(b.Get("Z"))) {
				np := p
				if privs.Has(caps.CapSetgid) {
					np.rgid, np.egid, np.sgid = gid, gid, gid
				} else if gid == p.rgid || gid == p.sgid {
					np.egid = gid
				} else {
					continue
				}
				out = append(out, rebuild(b, np.term()))
			}
			return out
		},
	}
}

// setegidRule changes only the effective GID.
func setegidRule() rewrite.Rule {
	return rewrite.Rule{
		Name: "setegid",
		LHS: rewrite.NewConfig(
			rewrite.NewOp("setegid", iv("PID"), iv("GID"), iv("PR")),
			procPattern("P_", "PID"),
			zvar(),
		),
		BuildAll: func(b rewrite.Binding) []*rewrite.Term {
			p := procFrom(b, "P_", "PID")
			if !p.running() {
				return nil
			}
			privs := privsOf(b, "PR")
			var out []*rewrite.Term
			for _, gid := range wildcard(bindingInt(b, "GID"), scanGroups(b.Get("Z"))) {
				if !privs.Has(caps.CapSetgid) && gid != p.rgid && gid != p.sgid {
					continue
				}
				np := p
				np.egid = gid
				out = append(out, rebuild(b, np.term()))
			}
			return out
		},
	}
}

// setresgidRule is the group analogue of setresuidRule.
func setresgidRule() rewrite.Rule {
	return rewrite.Rule{
		Name: "setresgid",
		LHS: rewrite.NewConfig(
			rewrite.NewOp("setresgid", iv("PID"), iv("R"), iv("E"), iv("S"), iv("PR")),
			procPattern("P_", "PID"),
			zvar(),
		),
		BuildAll: func(b rewrite.Binding) []*rewrite.Term {
			p := procFrom(b, "P_", "PID")
			if !p.running() {
				return nil
			}
			privs := privsOf(b, "PR")
			groups := scanGroups(b.Get("Z"))
			priv := privs.Has(caps.CapSetgid)
			candidates := func(arg, cur int64) []int64 {
				if arg != Wild {
					return []int64{arg}
				}
				return append(append([]int64(nil), groups...), cur)
			}
			var out []*rewrite.Term
			for _, r := range candidates(bindingInt(b, "R"), p.rgid) {
				if !priv && !p.gidOK(r) {
					continue
				}
				for _, e := range candidates(bindingInt(b, "E"), p.egid) {
					if !priv && !p.gidOK(e) {
						continue
					}
					for _, s := range candidates(bindingInt(b, "S"), p.sgid) {
						if !priv && !p.gidOK(s) {
							continue
						}
						np := p
						np.rgid, np.egid, np.sgid = r, e, s
						out = append(out, rebuild(b, np.term()))
					}
				}
			}
			return out
		},
	}
}

// killRule: the sender's real or effective UID must match the target's real
// or saved UID, or the message must carry CAP_KILL. SIGKILL and SIGTERM
// terminate the target.
func killRule() rewrite.Rule {
	return rewrite.Rule{
		Name: "kill",
		LHS: rewrite.NewConfig(
			rewrite.NewOp("kill", iv("PID"), iv("TGT"), iv("SIG"), iv("PR")),
			procPattern("P_", "PID"),
			procPattern("T_", "T_id"),
			zvar(),
		),
		Cond: func(b rewrite.Binding) bool {
			tgt := bindingInt(b, "TGT")
			return tgt == Wild || tgt == bindingInt(b, "T_id")
		},
		BuildAll: func(b rewrite.Binding) []*rewrite.Term {
			p := procFrom(b, "P_", "PID")
			t := procFrom(b, "T_", "T_id")
			if !p.running() || !t.running() {
				return nil
			}
			privs := privsOf(b, "PR")
			allowed := privs.Has(caps.CapKill) ||
				p.euid == t.ruid || p.euid == t.suid ||
				p.ruid == t.ruid || p.ruid == t.suid
			if !allowed {
				return nil
			}
			sig := bindingInt(b, "SIG")
			if sig == 9 || sig == 15 {
				t.state = termState
			}
			return []*rewrite.Term{rebuild(b, p.term(), t.term())}
		},
	}
}

// socketRule creates a TCP socket object with the message's socket ID.
func socketRule() rewrite.Rule {
	return rewrite.Rule{
		Name: "socket",
		LHS: rewrite.NewConfig(
			rewrite.NewOp("socket", iv("PID"), iv("SID"), iv("PR")),
			procPattern("P_", "PID"),
			zvar(),
		),
		BuildAll: func(b rewrite.Binding) []*rewrite.Term {
			p := procFrom(b, "P_", "PID")
			if !p.running() {
				return nil
			}
			sid := bindingInt(b, "SID")
			return []*rewrite.Term{rebuild(b, p.term(), SocketObj(int(sid), 0))}
		},
	}
}

// bindRule binds an unbound socket to a TCP port: ports below 1024 require
// CAP_NET_BIND_SERVICE, and a port already bound by another socket is
// unavailable.
func bindRule() rewrite.Rule {
	return rewrite.Rule{
		Name: "bind",
		LHS: rewrite.NewConfig(
			rewrite.NewOp("bind", iv("PID"), iv("SID"), iv("PORT"), iv("PR")),
			procPattern("P_", "PID"),
			rewrite.NewOp(symSocket, iv("S_id"), iv("S_port")),
			zvar(),
		),
		Cond: func(b rewrite.Binding) bool {
			sid := bindingInt(b, "SID")
			return (sid == Wild || sid == bindingInt(b, "S_id")) && bindingInt(b, "S_port") == 0
		},
		BuildAll: func(b rewrite.Binding) []*rewrite.Term {
			p := procFrom(b, "P_", "PID")
			if !p.running() {
				return nil
			}
			privs := privsOf(b, "PR")
			port := bindingInt(b, "PORT")
			if port <= 0 {
				return nil
			}
			if port < 1024 && !privs.Has(caps.CapNetBindService) {
				return nil
			}
			if scanBoundPort(b.Get("Z"), port) {
				return nil
			}
			sid := bindingInt(b, "S_id")
			return []*rewrite.Term{rebuild(b, p.term(), SocketObj(int(sid), int(port)))}
		},
	}
}

// connectRule consumes a connect message on an existing socket; connecting
// needs no privilege in the model.
func connectRule() rewrite.Rule {
	return rewrite.Rule{
		Name: "connect",
		LHS: rewrite.NewConfig(
			rewrite.NewOp("connect", iv("PID"), iv("SID"), iv("PORT"), iv("PR")),
			procPattern("P_", "PID"),
			rewrite.NewOp(symSocket, iv("S_id"), iv("S_port")),
			zvar(),
		),
		Cond: func(b rewrite.Binding) bool {
			sid := bindingInt(b, "SID")
			return sid == Wild || sid == bindingInt(b, "S_id")
		},
		BuildAll: func(b rewrite.Binding) []*rewrite.Term {
			p := procFrom(b, "P_", "PID")
			if !p.running() {
				return nil
			}
			sid := bindingInt(b, "S_id")
			port := bindingInt(b, "S_port")
			return []*rewrite.Term{rebuild(b, p.term(), SocketObj(int(sid), int(port)))}
		},
	}
}
