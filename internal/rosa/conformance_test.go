package rosa

import (
	"fmt"
	"sort"
	"testing"

	"privanalyzer/internal/caps"
	"privanalyzer/internal/rewrite"
	"privanalyzer/internal/vkernel"
)

// This file checks that the two models of Linux access control agree call
// by call: the simulated kernel (internal/vkernel), which enforces the rules
// while ChronoPriv runs a program, and ROSA's rewrite rules, which the model
// checker searches. For every point of a small exhaustive domain and every
// syscall modeled on both sides, vkernel's allow/deny and resulting state
// must equal the set of ROSA's one-step successors. The two are matched so:
//
//   - a message's privs stand for a vkernel process whose effective and
//     permitted sets are both privs;
//   - a Wild argument stands for every explicit vkernel call it ranges over:
//     the User/Group objects 0, 1 and 2 of the configuration, plus, for
//     setresuid/setresgid, the current value, which vkernel spells WildID
//     ("leave unchanged").
//
// Where the models differ on purpose, the difference is a named model
// choice with a test of its own at the end of the file; the exhaustive
// loops exclude nothing else.

// confIDs is the id domain of every uid and gid.
var confIDs = []int{0, 1, 2}

// confSys is the rule set under test; one-step successors never mutate it.
var confSys = NewSystem()

// confMismatch reports one disagreement, and stops the test after a few so
// that a broken rule does not flood the log.
type confMismatch struct {
	t *testing.T
	n int
}

func (m *confMismatch) check(equal bool, format string, args ...any) {
	m.t.Helper()
	if equal {
		return
	}
	m.n++
	m.t.Errorf(format, args...)
	if m.n >= 10 {
		m.t.FailNow()
	}
}

// triples returns every real/effective/saved triple over confIDs.
func triples() [][3]int {
	var out [][3]int
	for _, r := range confIDs {
		for _, e := range confIDs {
			for _, s := range confIDs {
				out = append(out, [3]int{r, e, s})
			}
		}
	}
	return out
}

// subsets returns every subset of cs.
func subsets(cs ...caps.Cap) []caps.Set {
	out := []caps.Set{caps.EmptySet}
	for _, c := range cs {
		for _, s := range out {
			out = append(out, s.Union(caps.NewSet(c)))
		}
	}
	return out
}

// withWild returns confIDs plus Wild: every value a message argument takes.
func withWild() []int { return append(append([]int(nil), confIDs...), Wild) }

// expand returns the explicit vkernel arguments a ROSA argument stands for:
// itself, or for Wild the configuration's ids plus, when current is set,
// vkernel's WildID.
func expand(v int, current bool) []int {
	if v != Wild {
		return []int{v}
	}
	out := append([]int(nil), confIDs...)
	if current {
		out = append(out, caps.WildID)
	}
	return out
}

// product returns every combination of one value from each list.
func product(lists ...[]int) [][]int {
	out := [][]int{nil}
	for _, l := range lists {
		var next [][]int
		for _, prefix := range out {
			for _, v := range l {
				next = append(next, append(append([]int(nil), prefix...), v))
			}
		}
		out = next
	}
	return out
}

// universe is the User and Group objects Wild arguments range over.
func universe() []*rewrite.Term {
	var out []*rewrite.Term
	for _, id := range confIDs {
		out = append(out, User(id), GroupObj(id))
	}
	return out
}

// rosaNext returns what read extracts from each of ROSA's one-step
// successors of objs plus msg.
func rosaNext[T comparable](t *testing.T, objs []*rewrite.Term, msg *rewrite.Term, read func(cfg *rewrite.Term) T) map[T]bool {
	t.Helper()
	init := rewrite.NewConfig(append(append([]*rewrite.Term(nil), objs...), msg)...)
	steps, err := confSys.Successors(init)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[T]bool, len(steps))
	for _, s := range steps {
		out[read(s.Result)] = true
	}
	return out
}

// object returns the configuration element with the given symbol and id.
func object(cfg *rewrite.Term, sym string, id int) *rewrite.Term {
	for _, e := range cfg.Args {
		if e.Kind == rewrite.Op && e.Sym == sym && len(e.Args) > 0 && e.Args[0].IsInt() && e.Args[0].IntVal == int64(id) {
			return e
		}
	}
	return nil
}

// procCreds reads the credentials of process id.
func procCreds(cfg *rewrite.Term, id int) Creds {
	p := object(cfg, symProcess, id)
	at := func(i int) int { return int(p.Args[i].IntVal) }
	return Creds{
		RUID: at(pRUID), EUID: at(pEUID), SUID: at(pSUID),
		RGID: at(pRGID), EGID: at(pEGID), SGID: at(pSGID),
	}
}

// vkCreds is the ROSA view of a vkernel process's credentials.
func vkCreds(c caps.Creds) Creds {
	return Creds{RUID: c.RUID, EUID: c.EUID, SUID: c.SUID, RGID: c.RGID, EGID: c.EGID, SGID: c.SGID}
}

// newKernel returns a kernel whose current process has the credentials and
// Effective = Permitted = privs.
func newKernel(c Creds, privs caps.Set) (*vkernel.Kernel, *vkernel.Proc) {
	k := vkernel.New()
	p := k.Spawn("p", caps.Creds{
		RUID: c.RUID, EUID: c.EUID, SUID: c.SUID,
		RGID: c.RGID, EGID: c.EGID, SGID: c.SGID,
		Effective: privs, Permitted: privs, NoSetuidFixup: true,
	})
	return k, p
}

// invoke runs one syscall on k's current process; a malformed call fails
// the test.
func invoke(t *testing.T, k *vkernel.Kernel, name string, args ...vkernel.Arg) int64 {
	t.Helper()
	ret, err := k.Invoke(name, args)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return ret
}

func ints(vs []int) []vkernel.Arg {
	out := make([]vkernel.Arg, len(vs))
	for i, v := range vs {
		out[i] = vkernel.IntArg(int64(v))
	}
	return out
}

func sortedKeys[T comparable](m map[T]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, fmt.Sprintf("%+v", k))
	}
	sort.Strings(out)
	return out
}

func sameSet[T comparable](a, b map[T]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

// TestConformanceCredentials covers setuid, seteuid, setresuid, setgid,
// setegid and setresgid: every uid (gid) triple over {0, 1, 2}, with and
// without the one capability the call consults, and every argument in
// {0, 1, 2, Wild}. The other triple is held at a fixed uneven value, which
// the call must leave alone.
func TestConformanceCredentials(t *testing.T) {
	type credCall struct {
		name  string
		group bool
		arity int
		res   bool // Wild also stands for the current value
		msg   func(a []int, privs caps.Set) *rewrite.Term
	}
	calls := []credCall{
		{"setuid", false, 1, false, func(a []int, pr caps.Set) *rewrite.Term { return SetuidMsg(1, a[0], pr) }},
		{"seteuid", false, 1, false, func(a []int, pr caps.Set) *rewrite.Term { return SeteuidMsg(1, a[0], pr) }},
		{"setresuid", false, 3, true, func(a []int, pr caps.Set) *rewrite.Term { return SetresuidMsg(1, a[0], a[1], a[2], pr) }},
		{"setgid", true, 1, false, func(a []int, pr caps.Set) *rewrite.Term { return SetgidMsg(1, a[0], pr) }},
		{"setegid", true, 1, false, func(a []int, pr caps.Set) *rewrite.Term { return SetegidMsg(1, a[0], pr) }},
		{"setresgid", true, 3, true, func(a []int, pr caps.Set) *rewrite.Term { return SetresgidMsg(1, a[0], a[1], a[2], pr) }},
	}
	fixed := [3]int{2, 0, 1}
	for _, call := range calls {
		t.Run(call.name, func(t *testing.T) {
			m := &confMismatch{t: t}
			c := caps.CapSetuid
			if call.group {
				c = caps.CapSetgid
			}
			argLists := make([][]int, call.arity)
			for i := range argLists {
				argLists[i] = withWild()
			}
			for _, tr := range triples() {
				uids, gids := tr, fixed
				if call.group {
					uids, gids = fixed, tr
				}
				creds := Creds{
					RUID: uids[0], EUID: uids[1], SUID: uids[2],
					RGID: gids[0], EGID: gids[1], SGID: gids[2],
				}
				objs := append([]*rewrite.Term{Process(1, creds, nil, nil)}, universe()...)
				for _, privs := range subsets(c) {
					for _, args := range product(argLists...) {
						got := rosaNext(t, objs, call.msg(args, privs), func(cfg *rewrite.Term) Creds {
							return procCreds(cfg, 1)
						})
						want := map[Creds]bool{}
						choices := make([][]int, len(args))
						for i, a := range args {
							choices[i] = expand(a, call.res)
						}
						for _, explicit := range product(choices...) {
							k, p := newKernel(creds, privs)
							if invoke(t, k, call.name, ints(explicit)...) == 0 {
								want[vkCreds(p.Creds)] = true
							} else {
								m.check(vkCreds(p.Creds) == creds,
									"vkernel %s%v with %+v denied but changed credentials to %+v",
									call.name, explicit, creds, p.Creds)
							}
						}
						m.check(sameSet(got, want), "%s%v privs=%s from %+v:\n  rosa    %v\n  vkernel %v",
							call.name, args, privs, creds, sortedKeys(got), sortedKeys(want))
					}
				}
			}
		})
	}
}

// The DAC checks run as a process whose real and saved ids (2) differ from
// its effective ids (1): an owner or group of 1 is the caller's own, and one
// of 2 is someone else's that a check reading the wrong id would mistake
// for the caller's.
var dacCreds = Creds{RUID: 2, EUID: 1, SUID: 2, RGID: 2, EGID: 1, SGID: 2}

// dacPrivs are the capabilities the DAC and search checks consult.
var dacPrivs = subsets(caps.CapDacOverride, caps.CapDacReadSearch)

// openResult is what a successful open changes: the file joins the read
// and/or write set.
type openResult struct{ read, write bool }

// fileSpec is one file or directory of the conformance domain.
type fileSpec struct {
	perms        vkernel.Mode
	owner, group int
}

// confOpen runs open(fid 3, mode, privs) on both sides: the file at /d/f,
// and when dir is set the directory entry /d that points at it.
func confOpen(t *testing.T, m *confMismatch, f fileSpec, dir *fileSpec, mode int, privs caps.Set) {
	t.Helper()
	objs := []*rewrite.Term{Process(1, dacCreds, nil, nil), File(3, "/d/f", f.perms, f.owner, f.group)}
	k, _ := newKernel(dacCreds, privs)
	path := "/f"
	if dir != nil {
		objs = append(objs, DirEntry(2, "/d", dir.perms, dir.owner, dir.group, 3))
		k.AddFile(vkernel.File{Path: "/d", Owner: dir.owner, Group: dir.group, Perms: dir.perms, IsDir: true})
		path = "/d/f"
	}
	k.AddFile(vkernel.File{Path: path, Owner: f.owner, Group: f.group, Perms: f.perms})
	got := rosaNext(t, objs, OpenMsg(1, 3, mode, privs), func(cfg *rewrite.Term) openResult {
		p := object(cfg, symProcess, 1)
		return openResult{SetHas(p.Args[pRdf], 3), SetHas(p.Args[pWrf], 3)}
	})
	want := map[openResult]bool{}
	if fd := invoke(t, k, "open", vkernel.StrArg(path), vkernel.IntArg(int64(mode))); fd >= 0 {
		want[openResult{
			read:  invoke(t, k, "read", vkernel.IntArg(fd), vkernel.IntArg(1)) == 1,
			write: invoke(t, k, "write", vkernel.IntArg(fd), vkernel.IntArg(1)) == 1,
		}] = true
	}
	m.check(sameSet(got, want), "open mode=%d privs=%s file=%+v dir=%+v:\n  rosa    %v\n  vkernel %v",
		mode, privs, f, dir, sortedKeys(got), sortedKeys(want))
}

// TestConformanceOpen covers open without a parent directory entry over
// every mode word, owner and group equal or not to the caller's effective
// ids, both capability bypasses and the three open modes; and with one
// entry over the search-relevant directory words. The directory case uses
// two symmetries the checks read: a search reads only the x bit of the
// class it picks (so the entry's r and w bits vary together), and the file
// check is independent of it (so four file words — none, read-only,
// write-only, both for every class — stand for the 512).
func TestConformanceOpen(t *testing.T) {
	modes := []int{OpenRead, OpenWrite, OpenRDWR}
	ids := []int{1, 2}
	t.Run("no directory entry", func(t *testing.T) {
		m := &confMismatch{t: t}
		for perms := vkernel.Mode(0); perms < 0o1000; perms++ {
			for _, owner := range ids {
				for _, group := range ids {
					for _, privs := range dacPrivs {
						for _, mode := range modes {
							confOpen(t, m, fileSpec{perms, owner, group}, nil, mode, privs)
						}
					}
				}
			}
		}
	})
	t.Run("directory entry", func(t *testing.T) {
		m := &confMismatch{t: t}
		var dirWords []vkernel.Mode
		for x := vkernel.Mode(0); x < 8; x++ {
			xs := x&4<<4 | x&2<<2 | x&1 // the three x bits
			dirWords = append(dirWords, xs, xs|0o666)
		}
		fileWords := []vkernel.Mode{0, 0o444, 0o222, 0o666}
		for _, dperms := range dirWords {
			for _, downer := range ids {
				for _, dgroup := range ids {
					for _, fperms := range fileWords {
						for _, privs := range dacPrivs {
							for _, mode := range modes {
								d := fileSpec{dperms, downer, dgroup}
								confOpen(t, m, fileSpec{fperms, 1, 1}, &d, mode, privs)
							}
						}
					}
				}
			}
		}
	})
}

// TestConformanceDirEntry covers unlink and rename over every mode word of
// the directory entry, its owner and group equal or not to the caller's
// effective ids, and both capability bypasses. ROSA's unlink and rename act
// on a directory entry, so vkernel's file sits under a directory that
// stands for it.
func TestConformanceDirEntry(t *testing.T) {
	for _, call := range []string{"unlink", "rename"} {
		t.Run(call, func(t *testing.T) {
			m := &confMismatch{t: t}
			for perms := vkernel.Mode(0); perms < 0o1000; perms++ {
				for _, owner := range []int{1, 2} {
					for _, group := range []int{1, 2} {
						for _, privs := range dacPrivs {
							objs := []*rewrite.Term{
								Process(1, dacCreds, nil, nil),
								DirEntry(2, "/d", perms, owner, group, 3),
							}
							msg, wantInode := UnlinkMsg(1, 2, privs), Wild
							if call == "rename" {
								msg, wantInode = RenameMsg(1, 2, 4, privs), 4
							}
							got := rosaNext(t, objs, msg, func(cfg *rewrite.Term) int {
								return int(object(cfg, symDir, 2).Args[dInode].IntVal)
							})
							k, _ := newKernel(dacCreds, privs)
							k.AddFile(vkernel.File{Path: "/d", Owner: owner, Group: group, Perms: perms, IsDir: true})
							k.AddFile(vkernel.File{Path: "/d/f", Owner: 1, Group: 1, Perms: 0o644})
							args := []vkernel.Arg{vkernel.StrArg("/d/f")}
							if call == "rename" {
								args = append(args, vkernel.StrArg("/d/g"))
							}
							want := map[int]bool{}
							if invoke(t, k, call, args...) == 0 {
								want[wantInode] = true
							}
							m.check(sameSet(got, want), "%s privs=%s dir=%s owner=%d group=%d: rosa %v, vkernel %v",
								call, privs, perms, owner, group, sortedKeys(got), sortedKeys(want))
						}
					}
				}
			}
		})
	}
}

// TestConformanceChmod covers chmod with the caller owning the file or not,
// every subset of CAP_FOWNER (the one it consults) and CAP_DAC_OVERRIDE
// (which it must not), and new mode words including one with bits above
// the nine it keeps.
func TestConformanceChmod(t *testing.T) {
	m := &confMismatch{t: t}
	for _, owner := range []int{1, 2} {
		for _, privs := range subsets(caps.CapFowner, caps.CapDacOverride) {
			for _, perms := range []vkernel.Mode{0, 0o640, 0o777, 0o7777} {
				objs := []*rewrite.Term{Process(1, dacCreds, nil, nil), File(3, "/f", 0o600, owner, 1)}
				got := rosaNext(t, objs, ChmodMsg(1, 3, perms, privs), func(cfg *rewrite.Term) vkernel.Mode {
					return vkernel.Mode(object(cfg, symFile, 3).Args[fPerms].IntVal)
				})
				k, _ := newKernel(dacCreds, privs)
				k.AddFile(vkernel.File{Path: "/f", Owner: owner, Group: 1, Perms: 0o600})
				want := map[vkernel.Mode]bool{}
				if invoke(t, k, "chmod", vkernel.StrArg("/f"), vkernel.IntArg(int64(perms))) == 0 {
					want[k.LookupFile("/f").Perms] = true
				}
				m.check(sameSet(got, want), "chmod %s privs=%s owner=%d: rosa %v, vkernel %v",
					perms, privs, owner, sortedKeys(got), sortedKeys(want))
			}
		}
	}
}

// ownership is a file's owner and group.
type ownership struct{ owner, group int }

// TestConformanceChown covers chown over every gid triple of the caller,
// the file owned by its effective uid or by its real one, every file
// group, with and without CAP_CHOWN, and owner and group arguments in
// {0, 1, 2, Wild}. Wild also stands for vkernel's WildID here: the file's
// owner and group are among the User and Group objects, so ROSA's Wild
// includes "unchanged".
func TestConformanceChown(t *testing.T) {
	m := &confMismatch{t: t}
	for _, gids := range triples() {
		creds := Creds{RUID: 2, EUID: 1, SUID: 2, RGID: gids[0], EGID: gids[1], SGID: gids[2]}
		for _, owner := range []int{1, 2} {
			for _, group := range confIDs {
				objs := append([]*rewrite.Term{Process(1, creds, nil, nil), File(3, "/f", 0o644, owner, group)}, universe()...)
				for _, privs := range subsets(caps.CapChown) {
					for _, args := range product(withWild(), withWild()) {
						got := rosaNext(t, objs, ChownMsg(1, 3, args[0], args[1], privs), func(cfg *rewrite.Term) ownership {
							f := object(cfg, symFile, 3)
							return ownership{int(f.Args[fOwner].IntVal), int(f.Args[fGroup].IntVal)}
						})
						want := map[ownership]bool{}
						for _, explicit := range product(expand(args[0], true), expand(args[1], true)) {
							k, _ := newKernel(creds, privs)
							k.AddFile(vkernel.File{Path: "/f", Owner: owner, Group: group, Perms: 0o644})
							ret := invoke(t, k, "chown", vkernel.StrArg("/f"),
								vkernel.IntArg(int64(explicit[0])), vkernel.IntArg(int64(explicit[1])))
							f := k.LookupFile("/f")
							if ret == 0 {
								want[ownership{f.Owner, f.Group}] = true
							} else {
								m.check(f.Owner == owner && f.Group == group,
									"vkernel chown%v denied but changed the file to %d:%d", explicit, f.Owner, f.Group)
							}
						}
						m.check(sameSet(got, want), "chown%v privs=%s creds=%+v file=%d:%d:\n  rosa    %v\n  vkernel %v",
							args, privs, creds, owner, group, sortedKeys(got), sortedKeys(want))
					}
				}
			}
		}
	}
}

// TestConformanceKill covers kill over every uid triple of the sender and
// of a running target, with and without CAP_KILL, and a fatal, a
// terminating and a harmless signal.
func TestConformanceKill(t *testing.T) {
	m := &confMismatch{t: t}
	for _, s := range triples() {
		sender := Creds{RUID: s[0], EUID: s[1], SUID: s[2], RGID: 0, EGID: 0, SGID: 0}
		for _, tr := range triples() {
			target := Creds{RUID: tr[0], EUID: tr[1], SUID: tr[2], RGID: 1, EGID: 1, SGID: 1}
			objs := []*rewrite.Term{Process(1, sender, nil, nil), Process(4, target, nil, nil)}
			for _, privs := range subsets(caps.CapKill) {
				for _, sig := range []int{vkernel.SigKill, vkernel.SigTerm, vkernel.SigChld} {
					got := rosaNext(t, objs, KillMsg(1, 4, sig, privs), func(cfg *rewrite.Term) bool {
						return object(cfg, symProcess, 4).Args[pState].Sym == symRun
					})
					k, _ := newKernel(sender, privs)
					tp := k.Spawn("target", caps.NewCreds(0, 1, caps.EmptySet))
					tp.Creds.RUID, tp.Creds.EUID, tp.Creds.SUID = target.RUID, target.EUID, target.SUID
					want := map[bool]bool{}
					if invoke(t, k, "kill", vkernel.IntArg(int64(tp.PID)), vkernel.IntArg(int64(sig))) == 0 {
						want[tp.State == vkernel.Running] = true
					}
					m.check(sameSet(got, want), "kill sig=%d privs=%s sender=%v target=%v: rosa %v, vkernel %v",
						sig, privs, s, tr, sortedKeys(got), sortedKeys(want))
				}
			}
		}
	}
}

// confBind runs bind(socket, port, privs) on both sides. When taken is set,
// another process's socket already holds the port.
func confBind(t *testing.T, port int, privs caps.Set, taken bool) (rosa, vk bool) {
	t.Helper()
	objs := []*rewrite.Term{Process(1, dacCreds, nil, nil), SocketObj(5, 0)}
	k, p := newKernel(dacCreds, privs)
	if taken {
		objs = append(objs, SocketObj(6, port))
		q := k.Spawn("holder", caps.NewCreds(0, 0, caps.FullSet()))
		q.Creds.Effective = caps.FullSet()
		if err := k.SetCurrent(q.PID); err != nil {
			t.Fatal(err)
		}
		fd := invoke(t, k, "socket", vkernel.IntArg(vkernel.SockStream))
		if invoke(t, k, "bind", vkernel.IntArg(fd), vkernel.IntArg(int64(port))) != 0 {
			t.Fatalf("holder could not bind port %d", port)
		}
		if err := k.SetCurrent(p.PID); err != nil {
			t.Fatal(err)
		}
	}
	got := rosaNext(t, objs, BindMsg(1, 5, port, privs), func(cfg *rewrite.Term) int {
		return int(object(cfg, symSocket, 5).Args[1].IntVal)
	})
	if len(got) > 0 && !got[port] {
		t.Fatalf("rosa bound socket 5 to %v, not %d", sortedKeys(got), port)
	}
	fd := invoke(t, k, "socket", vkernel.IntArg(vkernel.SockStream))
	return len(got) > 0, invoke(t, k, "bind", vkernel.IntArg(fd), vkernel.IntArg(int64(port))) == 0
}

// TestConformanceBind covers bind to ports of 0 and below and either side
// of 1024, with and without CAP_NET_BIND_SERVICE, free or held by another
// process.
func TestConformanceBind(t *testing.T) {
	m := &confMismatch{t: t}
	for _, port := range []int{-1, 0, 1, 22, 80, 1023, 1024, 8080} {
		for _, privs := range subsets(caps.CapNetBindService) {
			for _, taken := range []bool{false, true} {
				if taken && port <= 0 {
					continue // no socket holds such a port
				}
				rosa, vk := confBind(t, port, privs, taken)
				m.check(rosa == vk, "bind port=%d privs=%s taken=%v: rosa %v, vkernel %v",
					port, privs, taken, rosa, vk)
			}
		}
	}
}

// Named model choices and shared rules. Each pins one place where the two
// models differ, or where both differ from Linux, on purpose, or a rule
// the two once disagreed on.

// TestModelChoiceSupplementaryGroups: ROSA's process term carries no
// supplementary groups (nor does the paper's), so a group the caller holds
// only as a supplementary group grants it nothing there; vkernel grants the
// group bits, the group's directory search, and chgrp to that group.
func TestModelChoiceSupplementaryGroups(t *testing.T) {
	const supp = 2 // a group held only as a supplementary group
	objs := []*rewrite.Term{Process(1, dacCreds, nil, nil), File(3, "/f", 0o640, 2, supp)}
	k, p := newKernel(dacCreds, caps.EmptySet)
	p.Supp[supp] = true
	k.AddFile(vkernel.File{Path: "/f", Owner: 2, Group: supp, Perms: 0o640})
	rosaOpen := len(rosaNext(t, objs, OpenMsg(1, 3, OpenRead, caps.EmptySet), func(*rewrite.Term) bool { return true })) > 0
	vkOpen := invoke(t, k, "open", vkernel.StrArg("/f"), vkernel.IntArg(OpenRead)) >= 0
	if rosaOpen || !vkOpen {
		t.Errorf("read through a supplementary group: rosa %v, vkernel %v; want false, true", rosaOpen, vkOpen)
	}

	objs = []*rewrite.Term{
		Process(1, dacCreds, nil, nil),
		File(3, "/d/f", 0o644, 1, 1),
		DirEntry(2, "/d", 0o710, 2, supp, 3),
	}
	k, p = newKernel(dacCreds, caps.EmptySet)
	p.Supp[supp] = true
	k.AddFile(vkernel.File{Path: "/d", Owner: 2, Group: supp, Perms: 0o710, IsDir: true})
	k.AddFile(vkernel.File{Path: "/d/f", Owner: 1, Group: 1, Perms: 0o644})
	rosaOpen = len(rosaNext(t, objs, OpenMsg(1, 3, OpenRead, caps.EmptySet), func(*rewrite.Term) bool { return true })) > 0
	vkOpen = invoke(t, k, "open", vkernel.StrArg("/d/f"), vkernel.IntArg(OpenRead)) >= 0
	if rosaOpen || !vkOpen {
		t.Errorf("search through a supplementary group: rosa %v, vkernel %v; want false, true", rosaOpen, vkOpen)
	}

	creds := Creds{RUID: 1, EUID: 1, SUID: 1, RGID: 1, EGID: 1, SGID: 1}
	objs = append([]*rewrite.Term{Process(1, creds, nil, nil), File(3, "/f", 0o644, 1, 1)}, universe()...)
	k, p = newKernel(creds, caps.EmptySet)
	p.Supp[supp] = true
	k.AddFile(vkernel.File{Path: "/f", Owner: 1, Group: 1, Perms: 0o644})
	rosaChgrp := len(rosaNext(t, objs, ChownMsg(1, 3, 1, supp, caps.EmptySet), func(*rewrite.Term) bool { return true })) > 0
	vkChgrp := invoke(t, k, "chown", vkernel.StrArg("/f"), vkernel.IntArg(1), vkernel.IntArg(supp)) == 0
	if rosaChgrp || !vkChgrp {
		t.Errorf("chgrp to a supplementary group: rosa %v, vkernel %v; want false, true", rosaChgrp, vkChgrp)
	}
}

// TestModelChoiceChownGroupRealSavedGID: both models let a file's owner
// chgrp it to the owner's real or saved gid. Linux (chown_ok → in_group_p)
// accepts only the fsgid, which tracks the egid, or a supplementary group.
// The models keep the wider rule; DESIGN.md §2 records it.
func TestModelChoiceChownGroupRealSavedGID(t *testing.T) {
	creds := Creds{RUID: 1, EUID: 1, SUID: 1, RGID: 0, EGID: 1, SGID: 2}
	for _, gid := range []int{creds.RGID, creds.SGID} {
		objs := append([]*rewrite.Term{Process(1, creds, nil, nil), File(3, "/f", 0o644, 1, 1)}, universe()...)
		rosa := len(rosaNext(t, objs, ChownMsg(1, 3, 1, gid, caps.EmptySet), func(*rewrite.Term) bool { return true })) > 0
		k, _ := newKernel(creds, caps.EmptySet)
		k.AddFile(vkernel.File{Path: "/f", Owner: 1, Group: 1, Perms: 0o644})
		vk := invoke(t, k, "chown", vkernel.StrArg("/f"), vkernel.IntArg(1), vkernel.IntArg(int64(gid))) == 0
		if !rosa || !vk {
			t.Errorf("owner chgrp to gid %d (egid %d): rosa %v, vkernel %v; want both true", gid, creds.EGID, rosa, vk)
		}
	}
}

// TestModelChoiceKillTerminatedTarget: ROSA's kill needs a running target,
// so a message aimed at a terminated process stays unconsumed; vkernel
// accepts the signal and changes nothing. Neither reaches a state the
// other cannot.
func TestModelChoiceKillTerminatedTarget(t *testing.T) {
	creds := UniformCreds(1, 1)
	dead := rewrite.NewOp(symProcess,
		rewrite.NewInt(4),
		rewrite.NewInt(1), rewrite.NewInt(1), rewrite.NewInt(1),
		rewrite.NewInt(1), rewrite.NewInt(1), rewrite.NewInt(1),
		termState, EmptySet(), EmptySet())
	rosa := len(rosaNext(t, []*rewrite.Term{Process(1, creds, nil, nil), dead},
		KillMsg(1, 4, vkernel.SigKill, caps.EmptySet), func(*rewrite.Term) bool { return true })) > 0
	k, _ := newKernel(creds, caps.EmptySet)
	tp := k.Spawn("target", caps.NewCreds(1, 1, caps.EmptySet))
	tp.State = vkernel.Terminated
	vk := invoke(t, k, "kill", vkernel.IntArg(int64(tp.PID)), vkernel.IntArg(vkernel.SigKill)) == 0
	if rosa || !vk {
		t.Errorf("kill of a terminated target: rosa %v, vkernel %v; want false, true", rosa, vk)
	}
}

// TestModelChoiceBindPortHeldBySelf: ROSA's sockets have no owner, so a
// port any socket holds is taken; vkernel lets a process bind a second
// socket to a port it already holds (vkernel's TestSocketsAndPorts).
func TestModelChoiceBindPortHeldBySelf(t *testing.T) {
	objs := []*rewrite.Term{Process(1, dacCreds, nil, nil), SocketObj(5, 0), SocketObj(6, 8080)}
	rosa := len(rosaNext(t, objs, BindMsg(1, 5, 8080, caps.EmptySet), func(*rewrite.Term) bool { return true })) > 0
	k, _ := newKernel(dacCreds, caps.EmptySet)
	first := invoke(t, k, "socket", vkernel.IntArg(vkernel.SockStream))
	second := invoke(t, k, "socket", vkernel.IntArg(vkernel.SockStream))
	invoke(t, k, "bind", vkernel.IntArg(first), vkernel.IntArg(8080))
	vk := invoke(t, k, "bind", vkernel.IntArg(second), vkernel.IntArg(8080)) == 0
	if rosa || !vk {
		t.Errorf("bind to a port the caller holds: rosa %v, vkernel %v; want false, true", rosa, vk)
	}
}

// TestBindRefusesNonPositivePort pins the bind rule both models share
// (vkernel.MayBind): a port of 0 or below is refused, even with
// CAP_NET_BIND_SERVICE. vkernel used to charge the capability for such a
// port, as for any port below 1024, and then bind it, where ROSA refused.
func TestBindRefusesNonPositivePort(t *testing.T) {
	for _, port := range []int{0, -1} {
		rosa, vk := confBind(t, port, caps.FullSet(), false)
		if rosa || vk {
			t.Errorf("bind port=%d with every capability: rosa %v, vkernel %v; want both refused", port, rosa, vk)
		}
	}
}

// TestBindRefusesBoundSocket pins that a bound socket cannot bind again, as
// in Linux (EINVAL): ROSA binds only an unbound socket, and vkernel, which
// used to let a bound socket bind again, now refuses too.
func TestBindRefusesBoundSocket(t *testing.T) {
	objs := []*rewrite.Term{Process(1, dacCreds, nil, nil), SocketObj(5, 8080)}
	rosa := len(rosaNext(t, objs, BindMsg(1, 5, 8081, caps.EmptySet), func(*rewrite.Term) bool { return true })) > 0
	k, _ := newKernel(dacCreds, caps.EmptySet)
	fd := invoke(t, k, "socket", vkernel.IntArg(vkernel.SockStream))
	invoke(t, k, "bind", vkernel.IntArg(fd), vkernel.IntArg(8080))
	vk := invoke(t, k, "bind", vkernel.IntArg(fd), vkernel.IntArg(8081)) == 0
	if rosa || vk {
		t.Errorf("rebind of a bound socket: rosa %v, vkernel %v; want both refused", rosa, vk)
	}
}
