package rosa

import (
	"testing"

	"privanalyzer/internal/caps"
	"privanalyzer/internal/rewrite"
	"privanalyzer/internal/vkernel"
)

// workedExample builds the paper's Figures 2–4 query: a process with
// non-matching credentials, /etc/passwd owned by 40:41 with no permission
// bits, the /etc directory entry, one User object (uid 10), and four
// single-use syscalls. The question: can the process get /etc/passwd (object
// 3) into its read set?
func workedExample() *Query {
	return &Query{
		Objects: []*rewrite.Term{
			Process(1, Creds{EUID: 10, RUID: 11, SUID: 12, EGID: 10, RGID: 11, SGID: 12}, nil, nil),
			DirEntry(2, "/etc", vkernel.MustMode("rwxrwxrwx"), 40, 41, 3),
			File(3, "/etc/passwd", vkernel.MustMode("---------"), 40, 41),
			User(10),
		},
		Messages: []*rewrite.Term{
			OpenMsg(1, 3, OpenRead, caps.EmptySet),
			SetuidMsg(1, Wild, caps.NewSet(caps.CapSetuid)),
			ChownMsg(1, Wild, Wild, 41, caps.NewSet(caps.CapChown)),
			ChmodMsg(1, Wild, vkernel.MustMode("rwxrwxrwx"), caps.EmptySet),
		},
		Goal: GoalFileInReadSet(3),
	}
}

func TestWorkedExampleVulnerable(t *testing.T) {
	res, err := workedExample().Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != Vulnerable {
		t.Fatalf("verdict = %s, want ✓ (explored %d states)", res.Verdict, res.StatesExplored)
	}
	// The paper's solution: chown the file to the process's euid, chmod it
	// readable, open it. BFS finds a witness of exactly three steps.
	if len(res.Witness) != 3 {
		t.Fatalf("witness length = %d, want 3:\n%s",
			len(res.Witness), rewrite.FormatWitness(res.Witness))
	}
	want := map[string]bool{"chown": true, "chmod": true, "open": true}
	for _, st := range res.Witness {
		if !want[st.Rule] {
			t.Errorf("unexpected rule %q in witness", st.Rule)
		}
		delete(want, st.Rule)
	}
	if len(want) != 0 {
		t.Errorf("witness missing rules %v:\n%s", want, rewrite.FormatWitness(res.Witness))
	}
}

func TestWorkedExampleSafeWithoutChown(t *testing.T) {
	q := workedExample()
	// Drop the chown message: without it the attacker can neither pass the
	// DAC check nor chmod a file it does not own.
	q.Messages = q.Messages[:2]
	q.Messages = append(q.Messages, ChmodMsg(1, Wild, vkernel.MustMode("rwxrwxrwx"), caps.EmptySet))
	res, err := q.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != Safe {
		t.Errorf("verdict = %s, want ✗", res.Verdict)
	}
}

func TestWorkedExampleSafeWithoutPrivileges(t *testing.T) {
	q := workedExample()
	// Same messages but no privileges anywhere: chown fails, so the chain
	// collapses.
	q.Messages = []*rewrite.Term{
		OpenMsg(1, 3, OpenRead, caps.EmptySet),
		SetuidMsg(1, Wild, caps.EmptySet),
		ChownMsg(1, Wild, Wild, 41, caps.EmptySet),
		ChmodMsg(1, Wild, vkernel.MustMode("rwxrwxrwx"), caps.EmptySet),
	}
	res, err := q.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != Safe {
		t.Errorf("verdict = %s, want ✗", res.Verdict)
	}
}

// run executes a query built from the given pieces and returns the verdict.
func runQuery(t *testing.T, objs, msgs []*rewrite.Term, goal rewrite.Goal) *Result {
	t.Helper()
	q := &Query{Objects: objs, Messages: msgs, Goal: goal}
	res, err := q.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// devMem returns the evaluation's /dev/mem file object (owner mem=2, group
// kmem=9, rw-r-----), with object ID 3.
func devMem() *rewrite.Term {
	return File(3, "/dev/mem", vkernel.MustMode("rw-r-----"), 2, 9)
}

func TestOpenSemantics(t *testing.T) {
	attacker := func(uid, gid int) *rewrite.Term {
		return Process(1, UniformCreds(uid, gid), nil, nil)
	}
	tests := []struct {
		name string
		proc *rewrite.Term
		mode int
		priv caps.Set
		want Verdict
	}{
		{"owner reads", attacker(2, 2), OpenRead, caps.EmptySet, Vulnerable},
		{"owner writes", attacker(2, 2), OpenWrite, caps.EmptySet, Vulnerable},
		{"group reads", attacker(1000, 9), OpenRead, caps.EmptySet, Vulnerable},
		{"group cannot write", attacker(1000, 9), OpenWrite, caps.EmptySet, Safe},
		{"other denied", attacker(1000, 1000), OpenRead, caps.EmptySet, Safe},
		{"uid0 without caps denied", attacker(0, 0), OpenRead, caps.EmptySet, Safe},
		{"dac_override writes", attacker(1000, 1000), OpenRDWR, caps.NewSet(caps.CapDacOverride), Vulnerable},
		{"dac_read_search reads", attacker(1000, 1000), OpenRead, caps.NewSet(caps.CapDacReadSearch), Vulnerable},
		{"dac_read_search cannot write", attacker(1000, 1000), OpenWrite, caps.NewSet(caps.CapDacReadSearch), Safe},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			goal := GoalFileInReadSet(3)
			if tt.mode == OpenWrite {
				goal = GoalFileInWriteSet(3)
			}
			res := runQuery(t,
				[]*rewrite.Term{tt.proc, devMem()},
				[]*rewrite.Term{OpenMsg(1, Wild, tt.mode, tt.priv)},
				goal)
			if res.Verdict != tt.want {
				t.Errorf("verdict = %s, want %s", res.Verdict, tt.want)
			}
		})
	}
}

func TestParentDirSearchBlocks(t *testing.T) {
	// The file is world-readable but its directory entry denies search.
	objs := []*rewrite.Term{
		Process(1, UniformCreds(1000, 1000), nil, nil),
		DirEntry(2, "/secret", vkernel.MustMode("rwx------"), 0, 0, 3),
		File(3, "/secret/key", vkernel.MustMode("rw-rw-rw-"), 0, 0),
	}
	msgs := []*rewrite.Term{OpenMsg(1, 3, OpenRead, caps.EmptySet)}
	if res := runQuery(t, objs, msgs, GoalFileInReadSet(3)); res.Verdict != Safe {
		t.Errorf("verdict = %s, want ✗ (parent search denied)", res.Verdict)
	}
	// CAP_DAC_READ_SEARCH bypasses the directory check.
	msgs = []*rewrite.Term{OpenMsg(1, 3, OpenRead, caps.NewSet(caps.CapDacReadSearch))}
	if res := runQuery(t, objs, msgs, GoalFileInReadSet(3)); res.Verdict != Vulnerable {
		t.Errorf("verdict = %s, want ✓ (cap bypass)", res.Verdict)
	}
}

func TestSetuidPathToDevMem(t *testing.T) {
	// CapSetuid lets the attacker become the file owner (uid 2, present as
	// a User object) and then open with owner permissions — the path that
	// makes su_priv4 vulnerable in Table III.
	objs := []*rewrite.Term{
		Process(1, UniformCreds(1000, 1000), nil, nil),
		devMem(),
		User(0), User(2), User(1000), User(1001),
	}
	msgs := []*rewrite.Term{
		SetuidMsg(1, Wild, caps.NewSet(caps.CapSetuid)),
		OpenMsg(1, Wild, OpenRDWR, caps.NewSet(caps.CapSetuid)),
	}
	res := runQuery(t, objs, msgs, GoalFileInWriteSet(3))
	if res.Verdict != Vulnerable {
		t.Fatalf("verdict = %s, want ✓", res.Verdict)
	}
	if len(res.Witness) != 2 {
		t.Errorf("witness = %d steps, want 2:\n%s", len(res.Witness), rewrite.FormatWitness(res.Witness))
	}
}

func TestSetgidPathReadsOnly(t *testing.T) {
	// CapSetgid joins the kmem group (gid 9): read succeeds, write does not
	// — the thttpd_priv4 row of Table III.
	objs := []*rewrite.Term{
		Process(1, UniformCreds(1000, 1000), nil, nil),
		devMem(),
		User(1000),
		GroupObj(9), GroupObj(1000),
	}
	msgs := func(mode int) []*rewrite.Term {
		return []*rewrite.Term{
			SetgidMsg(1, Wild, caps.NewSet(caps.CapSetgid)),
			OpenMsg(1, Wild, mode, caps.NewSet(caps.CapSetgid)),
		}
	}
	if res := runQuery(t, objs, msgs(OpenRead), GoalFileInReadSet(3)); res.Verdict != Vulnerable {
		t.Errorf("read verdict = %s, want ✓", res.Verdict)
	}
	if res := runQuery(t, objs, msgs(OpenWrite), GoalFileInWriteSet(3)); res.Verdict != Safe {
		t.Errorf("write verdict = %s, want ✗", res.Verdict)
	}
}

func TestSetresuidUnprivilegedSwap(t *testing.T) {
	// The refactored-su trick: saved uid already holds the target; swapping
	// euid to it needs no privilege; then owner access opens the file.
	objs := []*rewrite.Term{
		Process(1, Creds{RUID: 1000, EUID: 1000, SUID: 2, RGID: 1000, EGID: 1000, SGID: 1000}, nil, nil),
		devMem(),
		User(1000), User(2),
	}
	msgs := []*rewrite.Term{
		SetresuidMsg(1, Wild, Wild, Wild, caps.EmptySet),
		OpenMsg(1, Wild, OpenRead, caps.EmptySet),
	}
	if res := runQuery(t, objs, msgs, GoalFileInReadSet(3)); res.Verdict != Vulnerable {
		t.Errorf("verdict = %s, want ✓ (unprivileged euid swap to saved uid)", res.Verdict)
	}
}

func TestBindPrivilegedPort(t *testing.T) {
	objs := []*rewrite.Term{Process(1, UniformCreds(1000, 1000), nil, nil)}
	msgs := func(priv caps.Set) []*rewrite.Term {
		return []*rewrite.Term{
			SocketMsg(1, 10, priv),
			BindMsg(1, 10, 22, priv),
		}
	}
	if res := runQuery(t, objs, msgs(caps.NewSet(caps.CapNetBindService)), GoalPortBoundBelow(1024)); res.Verdict != Vulnerable {
		t.Errorf("with cap: verdict = %s, want ✓", res.Verdict)
	}
	if res := runQuery(t, objs, msgs(caps.EmptySet), GoalPortBoundBelow(1024)); res.Verdict != Safe {
		t.Errorf("without cap: verdict = %s, want ✗", res.Verdict)
	}
}

func TestBindPortConflict(t *testing.T) {
	// Port 22 already bound by another socket object: the attack fails even
	// with the capability.
	objs := []*rewrite.Term{
		Process(1, UniformCreds(1000, 1000), nil, nil),
		SocketObj(99, 22),
	}
	msgs := []*rewrite.Term{
		SocketMsg(1, 10, caps.NewSet(caps.CapNetBindService)),
		BindMsg(1, 10, 22, caps.NewSet(caps.CapNetBindService)),
	}
	goal := rewrite.Goal{
		// A *new* socket (id 10) bound below 1024.
		Pattern: rewrite.NewConfig(
			rewrite.NewOp(symSocket, rewrite.NewInt(10), iv("Sport")),
			zvar()),
		Cond: func(b *rewrite.Env) bool {
			p, ok := b.Int("Sport")
			return ok && p > 0 && p < 1024
		},
	}
	if res := runQuery(t, objs, msgs, goal); res.Verdict != Safe {
		t.Errorf("verdict = %s, want ✗ (port already taken)", res.Verdict)
	}
}

func TestKillSemantics(t *testing.T) {
	victim := func() *rewrite.Term {
		return Process(2, UniformCreds(106, 106), nil, nil)
	}
	tests := []struct {
		name  string
		creds Creds
		priv  caps.Set
		extra []*rewrite.Term // extra messages
		want  Verdict
	}{
		{"unrelated denied", UniformCreds(1000, 1000), caps.EmptySet, nil, Safe},
		{"cap_kill", UniformCreds(1000, 1000), caps.NewSet(caps.CapKill), nil, Vulnerable},
		{"matching uid", UniformCreds(106, 106), caps.EmptySet, nil, Vulnerable},
		{
			"setuid then kill", UniformCreds(1000, 1000), caps.NewSet(caps.CapSetuid),
			[]*rewrite.Term{SetuidMsg(1, Wild, caps.NewSet(caps.CapSetuid))}, Vulnerable,
		},
		{
			"setgid does not help", UniformCreds(1000, 1000), caps.NewSet(caps.CapSetgid),
			[]*rewrite.Term{SetgidMsg(1, Wild, caps.NewSet(caps.CapSetgid))}, Safe,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			objs := []*rewrite.Term{
				Process(1, tt.creds, nil, nil),
				victim(),
				User(106), User(1000),
				GroupObj(106), GroupObj(1000),
			}
			msgs := append([]*rewrite.Term{KillMsg(1, Wild, 9, tt.priv)}, tt.extra...)
			res := runQuery(t, objs, msgs, GoalProcessTerminated(2))
			if res.Verdict != tt.want {
				t.Errorf("verdict = %s, want %s (explored %d)", res.Verdict, tt.want, res.StatesExplored)
			}
		})
	}
}

func TestChownGroupRules(t *testing.T) {
	// The owner may chgrp to one of its own groups without CAP_CHOWN, but
	// not to a foreign group.
	file := File(3, "/f", vkernel.MustMode("rw-------"), 1000, 1000)
	objs := []*rewrite.Term{
		Process(1, UniformCreds(1000, 1000), nil, nil),
		file,
		User(1000),
		GroupObj(1000), GroupObj(9),
	}
	// Goal: file's group became 9.
	goal := rewrite.Goal{
		Pattern: rewrite.NewConfig(
			rewrite.NewOp(symFile, rewrite.NewInt(3), iv("N"), iv("P"), iv("O"), rewrite.NewInt(9)),
			zvar()),
	}
	msgs := []*rewrite.Term{ChownMsg(1, 3, 1000, 9, caps.EmptySet)}
	if res := runQuery(t, objs, msgs, goal); res.Verdict != Safe {
		t.Errorf("owner chgrp to foreign group without cap = %s, want ✗", res.Verdict)
	}

	// Owner's own saved gid is allowed.
	objs[0] = Process(1, Creds{RUID: 1000, EUID: 1000, SUID: 1000, RGID: 1000, EGID: 1000, SGID: 9}, nil, nil)
	if res := runQuery(t, objs, msgs, goal); res.Verdict != Vulnerable {
		t.Errorf("owner chgrp to own saved gid = %s, want ✓", res.Verdict)
	}
}

func TestFchmodNeedsOpenFile(t *testing.T) {
	// fchmod only works on files already in the read/write sets.
	goal := rewrite.Goal{
		Pattern: rewrite.NewConfig(
			rewrite.NewOp(symFile, rewrite.NewInt(3), iv("N"),
				rewrite.NewInt(int64(vkernel.MustMode("rwxrwxrwx"))), iv("O"), iv("G")),
			zvar()),
	}
	perm := vkernel.MustMode("rwxrwxrwx")
	t.Run("not open", func(t *testing.T) {
		objs := []*rewrite.Term{
			Process(1, UniformCreds(2, 2), nil, nil),
			devMem(),
		}
		msgs := []*rewrite.Term{FchmodMsg(1, 3, perm, caps.EmptySet)}
		if res := runQuery(t, objs, msgs, goal); res.Verdict != Safe {
			t.Errorf("verdict = %s, want ✗", res.Verdict)
		}
	})
	t.Run("after open", func(t *testing.T) {
		objs := []*rewrite.Term{
			Process(1, UniformCreds(2, 2), nil, nil),
			devMem(),
		}
		msgs := []*rewrite.Term{
			OpenMsg(1, 3, OpenRead, caps.EmptySet),
			FchmodMsg(1, 3, perm, caps.EmptySet),
		}
		if res := runQuery(t, objs, msgs, goal); res.Verdict != Vulnerable {
			t.Errorf("verdict = %s, want ✓", res.Verdict)
		}
	})
}

func TestUnlinkAndRename(t *testing.T) {
	// unlink removes the entry (inode -> Wild); rename re-points it.
	entry := DirEntry(2, "/etc/shadow", vkernel.MustMode("rwxr-xr-x"), 1000, 1000, 3)
	objs := []*rewrite.Term{
		Process(1, UniformCreds(1000, 1000), nil, nil),
		entry,
		File(3, "/etc/shadow", vkernel.MustMode("rw-------"), 0, 0),
		File(4, "/tmp/evil", vkernel.MustMode("rw-rw-rw-"), 1000, 1000),
	}
	unlinked := rewrite.Goal{
		Pattern: rewrite.NewConfig(
			rewrite.NewOp(symDir, rewrite.NewInt(2), iv("N"), iv("P"), iv("O"), iv("G"), rewrite.NewInt(Wild)),
			zvar()),
	}
	if res := runQuery(t, objs, []*rewrite.Term{UnlinkMsg(1, 2, caps.EmptySet)}, unlinked); res.Verdict != Vulnerable {
		t.Errorf("unlink by dir owner = %s, want ✓", res.Verdict)
	}

	repointed := rewrite.Goal{
		Pattern: rewrite.NewConfig(
			rewrite.NewOp(symDir, rewrite.NewInt(2), iv("N"), iv("P"), iv("O"), iv("G"), rewrite.NewInt(4)),
			zvar()),
	}
	if res := runQuery(t, objs, []*rewrite.Term{RenameMsg(1, 2, 4, caps.EmptySet)}, repointed); res.Verdict != Vulnerable {
		t.Errorf("rename by dir owner = %s, want ✓", res.Verdict)
	}

	// A foreign user cannot unlink without write permission on the entry.
	objs[0] = Process(1, UniformCreds(1001, 1001), nil, nil)
	if res := runQuery(t, objs, []*rewrite.Term{UnlinkMsg(1, 2, caps.EmptySet)}, unlinked); res.Verdict != Safe {
		t.Errorf("foreign unlink = %s, want ✗", res.Verdict)
	}
}

func TestUnknownOnTinyBudget(t *testing.T) {
	q := workedExample()
	q.MaxStates = 2
	res, err := q.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != Unknown {
		t.Errorf("verdict = %s, want ⏱ with a 2-state budget", res.Verdict)
	}
}

func TestMessagesAreConsumedOnce(t *testing.T) {
	// One setuid message cannot be used twice: becoming uid 2 and then uid
	// 0 requires two messages.
	objs := []*rewrite.Term{
		Process(1, UniformCreds(1000, 1000), nil, nil),
		User(2), User(0),
	}
	// Goal: euid 0 AND ruid 2 simultaneously — impossible with one setuid.
	goal := rewrite.Goal{
		Pattern: rewrite.NewConfig(
			rewrite.NewOp(symProcess, rewrite.NewInt(1),
				rewrite.NewInt(0), rewrite.NewInt(2), iv("S"),
				iv("EG"), iv("RG"), iv("SG"), iv("ST"), iv("RD"), iv("WR")),
			zvar()),
	}
	msgs := []*rewrite.Term{SetuidMsg(1, Wild, caps.NewSet(caps.CapSetuid))}
	if res := runQuery(t, objs, msgs, goal); res.Verdict != Safe {
		t.Errorf("verdict = %s, want ✗ (message must be single-use)", res.Verdict)
	}
	// With setresuid the combination is directly expressible.
	msgs = []*rewrite.Term{SetresuidMsg(1, 2, 0, Wild, caps.NewSet(caps.CapSetuid))}
	if res := runQuery(t, objs, msgs, goal); res.Verdict != Vulnerable {
		t.Errorf("verdict = %s, want ✓", res.Verdict)
	}
}

func TestSearchShape(t *testing.T) {
	// The §VIII observation: impossible attacks explore more states than
	// possible ones, because the whole space must be exhausted. Both queries
	// run over the same transition graph — CapSetgid plus a read-mode open —
	// so the state counts are directly comparable: reading /dev/mem via the
	// kmem group is possible and the search stops at the witness; a
	// read-only open never puts the file in the write set, so the write-set
	// goal forces the search through every state.
	objs := func() []*rewrite.Term {
		return []*rewrite.Term{
			Process(1, UniformCreds(1000, 1000), nil, nil), devMem(),
			User(2), User(1000), GroupObj(9), GroupObj(1000),
		}
	}
	privs := caps.NewSet(caps.CapSetgid)
	msgs := func() []*rewrite.Term {
		return []*rewrite.Term{
			SetgidMsg(1, Wild, privs),
			SetresgidMsg(1, Wild, Wild, Wild, privs),
			OpenMsg(1, Wild, OpenRead, privs),
		}
	}
	possible := runQuery(t, objs(), msgs(), GoalFileInReadSet(3))
	impossible := runQuery(t, objs(), msgs(), GoalFileInWriteSet(3))
	if possible.Verdict != Vulnerable || impossible.Verdict != Safe {
		t.Fatalf("verdicts = %s/%s", possible.Verdict, impossible.Verdict)
	}
	if possible.StatesExplored >= impossible.StatesExplored {
		t.Errorf("possible attack explored %d states, impossible %d; want possible < impossible",
			possible.StatesExplored, impossible.StatesExplored)
	}
}

func TestSetHelpers(t *testing.T) {
	s := EmptySet()
	if SetHas(s, 1) {
		t.Error("empty set has member")
	}
	s = SetAdd(s, 3)
	s = SetAdd(s, 1)
	s = SetAdd(s, 3) // dedup
	if !SetHas(s, 1) || !SetHas(s, 3) || SetHas(s, 2) {
		t.Errorf("set = %s", s)
	}
	if len(s.Args) != 2 {
		t.Errorf("set size = %d, want 2", len(s.Args))
	}
	// Sorted canonical: SetOf in any order renders identically.
	if SetOf(3, 1).String() != SetOf(1, 3).String() {
		t.Error("set terms not canonical")
	}
}

func TestVerdictString(t *testing.T) {
	if Safe.String() != "✗" || Vulnerable.String() != "✓" || Unknown.String() != "⏱" {
		t.Error("verdict glyphs wrong")
	}
}
