package rosa

import (
	"testing"

	"privanalyzer/internal/caps"
	"privanalyzer/internal/rewrite"
	"privanalyzer/internal/vkernel"
)

// This file is the systematic counterpart of the paper's §VI remark: "We
// also built a simple test suite for ROSA that verifies that a subset of the
// system calls that it supports exhibit the expected behavior for privileged
// and unprivileged operation." Every syscall rule is exercised in both
// modes.

// credGoal matches process 1 having the exact uid/gid triples.
func credGoal(r, e, s, rg, eg, sg int) rewrite.Goal {
	return rewrite.Goal{
		Pattern: rewrite.NewConfig(
			rewrite.NewOp(symProcess, rewrite.NewInt(1),
				rewrite.NewInt(int64(e)), rewrite.NewInt(int64(r)), rewrite.NewInt(int64(s)),
				rewrite.NewInt(int64(eg)), rewrite.NewInt(int64(rg)), rewrite.NewInt(int64(sg)),
				iv("ST"), iv("RD"), iv("WR")),
			zvar()),
	}
}

// fileGoal matches file 3 having the given owner and group.
func fileGoal(owner, group int) rewrite.Goal {
	return rewrite.Goal{
		Pattern: rewrite.NewConfig(
			rewrite.NewOp(symFile, rewrite.NewInt(3), iv("N"), iv("P"),
				rewrite.NewInt(int64(owner)), rewrite.NewInt(int64(group))),
			zvar()),
	}
}

func TestSyscallRuleMatrix(t *testing.T) {
	// Base configuration: the attacker process, a potential victim process,
	// /dev/mem with its directory entry, and the id universe.
	base := func(creds Creds) []*rewrite.Term {
		return []*rewrite.Term{
			Process(1, creds, nil, nil),
			Process(4, UniformCreds(106, 106), nil, nil),
			devMem(),
			DirEntry(2, "/dev", vkernel.MustMode("rwxr-xr-x"), 0, 0, 3),
			User(0), User(2), User(106), User(1000),
			GroupObj(0), GroupObj(9), GroupObj(1000),
		}
	}
	user := UniformCreds(1000, 1000)

	tests := []struct {
		name  string
		creds Creds
		msg   *rewrite.Term
		goal  rewrite.Goal
		want  Verdict
	}{
		// seteuid: privileged reaches any user object; unprivileged only
		// the real/saved uids.
		{
			"seteuid privileged", user,
			SeteuidMsg(1, 2, caps.NewSet(caps.CapSetuid)),
			credGoal(1000, 2, 1000, 1000, 1000, 1000), Vulnerable,
		},
		{
			"seteuid unprivileged foreign", user,
			SeteuidMsg(1, 2, caps.EmptySet),
			credGoal(1000, 2, 1000, 1000, 1000, 1000), Safe,
		},
		{
			"seteuid unprivileged to saved", Creds{RUID: 1000, EUID: 1000, SUID: 106, RGID: 1000, EGID: 1000, SGID: 1000},
			SeteuidMsg(1, 106, caps.EmptySet),
			credGoal(1000, 106, 106, 1000, 1000, 1000), Vulnerable,
		},
		// setegid.
		{
			"setegid privileged", user,
			SetegidMsg(1, 9, caps.NewSet(caps.CapSetgid)),
			credGoal(1000, 1000, 1000, 1000, 9, 1000), Vulnerable,
		},
		{
			"setegid unprivileged foreign", user,
			SetegidMsg(1, 9, caps.EmptySet),
			credGoal(1000, 1000, 1000, 1000, 9, 1000), Safe,
		},
		// setresgid full triple.
		{
			"setresgid privileged", user,
			SetresgidMsg(1, 9, 0, 1000, caps.NewSet(caps.CapSetgid)),
			credGoal(1000, 1000, 1000, 9, 0, 1000), Vulnerable,
		},
		{
			"setresgid unprivileged foreign", user,
			SetresgidMsg(1, 9, Wild, Wild, caps.EmptySet),
			credGoal(1000, 1000, 1000, 9, 1000, 1000), Safe,
		},
		// fchown requires an open descriptor and CAP_CHOWN.
		{
			"fchown without open fd", UniformCreds(2, 9),
			FchownMsg(1, 3, 1000, Wild, caps.NewSet(caps.CapChown)),
			fileGoal(1000, 9), Safe,
		},
		// chown owner change, no cap: denied even for the owner.
		{
			"chown owner change unprivileged", UniformCreds(2, 9),
			ChownMsg(1, 3, 1000, 9, caps.EmptySet),
			fileGoal(1000, 9), Safe,
		},
		{
			"chown owner change privileged", user,
			ChownMsg(1, 3, 1000, 9, caps.NewSet(caps.CapChown)),
			fileGoal(1000, 9), Vulnerable,
		},
		// kill with wrong signal number consumes the message but does not
		// terminate.
		{
			"kill with non-fatal signal", UniformCreds(106, 106),
			KillMsg(1, 4, 17, caps.EmptySet),
			GoalProcessTerminated(4), Safe,
		},
		{
			"kill with SIGTERM", UniformCreds(106, 106),
			KillMsg(1, 4, 15, caps.EmptySet),
			GoalProcessTerminated(4), Vulnerable,
		},
		// bind on a non-existent socket id cannot fire.
		{
			"bind without socket object", user,
			BindMsg(1, 77, 8080, caps.FullSet()),
			GoalPortBoundBelow(65536), Safe,
		},
	}

	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			res := runQuery(t, base(tt.creds), []*rewrite.Term{tt.msg}, tt.goal)
			if res.Verdict != tt.want {
				t.Errorf("verdict = %s, want %s", res.Verdict, tt.want)
			}
		})
	}
}

// TestDACIgnoresSupplementaryGroups pins a deliberate model choice: ROSA's
// process term has no supplementary groups, so a process whose egid differs
// from the file's group is judged on the other-bits — even where the
// vkernel, which consults supplementary groups, would grant the group bits
// (vkernel's TestSupplementaryGroups).
func TestDACIgnoresSupplementaryGroups(t *testing.T) {
	proc := Process(1, UniformCreds(1000, 1000), nil, nil) // egid 1000, file group 9
	open := []*rewrite.Term{OpenMsg(1, 3, OpenRead, caps.EmptySet)}
	tests := []struct {
		name  string
		perms string
		want  Verdict
	}{
		// Group may read, other may not: denied.
		{"group bits not consulted", "rw-r-----", Safe},
		// Group may not read, other may: granted on the other-bits.
		{"other bits consulted", "rw----r--", Vulnerable},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			file := File(3, "/dev/mem", vkernel.MustMode(tt.perms), 2, 9)
			res := runQuery(t, []*rewrite.Term{proc, file}, open, GoalFileInReadSet(3))
			if res.Verdict != tt.want {
				t.Errorf("verdict = %s, want %s", res.Verdict, tt.want)
			}
		})
	}
}

func TestFchownAfterOpen(t *testing.T) {
	// fchown on a held descriptor works with CAP_CHOWN: open as the owner,
	// then give the file away.
	objs := []*rewrite.Term{
		Process(1, UniformCreds(2, 9), nil, nil),
		devMem(),
		User(1000), GroupObj(9),
	}
	msgs := []*rewrite.Term{
		OpenMsg(1, 3, OpenRead, caps.EmptySet),
		FchownMsg(1, 3, 1000, Wild, caps.NewSet(caps.CapChown)),
	}
	if res := runQuery(t, objs, msgs, fileGoal(1000, 9)); res.Verdict != Vulnerable {
		t.Errorf("verdict = %s, want ✓", res.Verdict)
	}
}

func TestTerminatedProcessCannotAct(t *testing.T) {
	// Once a process is terminated, none of its messages fire: kill the
	// attacker first (via the second process), then the attacker's open
	// cannot happen.
	objs := []*rewrite.Term{
		Process(1, UniformCreds(2, 2), nil, nil), // could open /dev/mem as owner
		Process(4, UniformCreds(2, 2), nil, nil), // same-uid sibling kills it
		devMem(),
	}
	// With both messages available the open-first interleaving reaches the
	// goal, so the query is Vulnerable; the second configuration starts the
	// attacker already terminated and its open must never fire.
	msgs := []*rewrite.Term{
		KillMsg(4, 1, 9, caps.EmptySet),
		OpenMsg(1, 3, OpenRead, caps.EmptySet),
	}
	res := runQuery(t, objs, msgs, GoalFileInReadSet(3))
	// The attack is reachable by opening before being killed.
	if res.Verdict != Vulnerable {
		t.Fatalf("verdict = %s, want ✓ (open-first interleaving)", res.Verdict)
	}
	// With the attacker already terminated, it is not.
	objs[0] = rewrite.NewOp(symProcess,
		rewrite.NewInt(1),
		rewrite.NewInt(2), rewrite.NewInt(2), rewrite.NewInt(2),
		rewrite.NewInt(2), rewrite.NewInt(2), rewrite.NewInt(2),
		rewrite.NewOp(symTerm), EmptySet(), EmptySet())
	if res := runQuery(t, objs, msgs[1:], GoalFileInReadSet(3)); res.Verdict != Safe {
		t.Errorf("verdict = %s, want ✗ (terminated process)", res.Verdict)
	}
}
