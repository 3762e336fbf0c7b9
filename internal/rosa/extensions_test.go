package rosa

import (
	"context"
	"strings"
	"testing"

	"privanalyzer/internal/caps"
	"privanalyzer/internal/rewrite"
	"privanalyzer/internal/vkernel"
)

// runExt executes a query against the extended system.
func runExt(t *testing.T, objs, msgs []*rewrite.Term, goal rewrite.Goal) *Result {
	t.Helper()
	q := &Query{Objects: objs, Messages: msgs, Goal: goal, Extended: true}
	res, err := q.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestExtendedSystemPreservesBaseVerdicts(t *testing.T) {
	// Queries without extension objects behave identically, including the
	// paper's worked example.
	q := workedExample()
	base, err := q.Run()
	if err != nil {
		t.Fatal(err)
	}
	q.Extended = true
	ext, err := q.Run()
	if err != nil {
		t.Fatal(err)
	}
	if base.Verdict != ext.Verdict {
		t.Errorf("verdicts differ: base %s, extended %s", base.Verdict, ext.Verdict)
	}
	if len(base.Witness) != len(ext.Witness) {
		t.Errorf("witness lengths differ: %d vs %d", len(base.Witness), len(ext.Witness))
	}
}

func TestCapsicumBlocksNamespaceAccess(t *testing.T) {
	// A process already in capability mode cannot open /dev/mem even with
	// CAP_DAC_OVERRIDE: open addresses the global path namespace.
	objs := []*rewrite.Term{
		Process(1, UniformCreds(1000, 1000), nil, nil),
		CapModeObj(1),
		devMem(),
	}
	msgs := []*rewrite.Term{OpenMsg(1, Wild, OpenRDWR, caps.NewSet(caps.CapDacOverride))}
	if res := runExt(t, objs, msgs, GoalFileInWriteSet(3)); res.Verdict != Safe {
		t.Errorf("verdict = %s, want ✗ (capability mode)", res.Verdict)
	}
	// Without the marker the same query is vulnerable.
	objsOpen := []*rewrite.Term{
		Process(1, UniformCreds(1000, 1000), nil, nil),
		devMem(),
	}
	if res := runExt(t, objsOpen, msgs, GoalFileInWriteSet(3)); res.Verdict != Vulnerable {
		t.Errorf("verdict without capmode = %s, want ✓", res.Verdict)
	}
}

// TestExtendedSelectsSystem pins Query.Extended as the one selector of the
// §X system: the capability-mode query of TestCapsicumBlocksNamespaceAccess
// is ✗ on the extended system and ✓ on the base one, whose rules ignore
// the marker, through each entry point that runs a query, and Simulate
// follows the same flag.
func TestExtendedSelectsSystem(t *testing.T) {
	objs := []*rewrite.Term{
		Process(1, UniformCreds(1000, 1000), nil, nil),
		CapModeObj(1),
		devMem(),
	}
	msgs := []*rewrite.Term{OpenMsg(1, Wild, OpenRDWR, caps.NewSet(caps.CapDacOverride))}
	runs := []struct {
		name string
		run  func(*Query) (*Result, error)
	}{
		{"Run", (*Query).Run},
		{"RunContext", func(q *Query) (*Result, error) { return q.RunContext(context.Background()) }},
		{"Checker.Run", func(q *Query) (*Result, error) { return NewChecker().Run(context.Background(), q) }},
	}
	for _, tc := range []struct {
		extended bool
		want     Verdict
		moves    bool // whether Simulate delivers the open message
	}{{true, Safe, false}, {false, Vulnerable, true}} {
		q := &Query{Objects: objs, Messages: msgs, Goal: GoalFileInWriteSet(3), Extended: tc.extended}
		for _, r := range runs {
			res, err := r.run(q)
			if err != nil {
				t.Fatalf("Extended=%v %s: %v", tc.extended, r.name, err)
			}
			if res.Verdict != tc.want {
				t.Errorf("Extended=%v %s: verdict = %s, want %s", tc.extended, r.name, res.Verdict, tc.want)
			}
		}
		_, trace, err := q.Simulate(10)
		if err != nil {
			t.Fatalf("Extended=%v Simulate: %v", tc.extended, err)
		}
		if moved := len(trace) > 0; moved != tc.moves {
			t.Errorf("Extended=%v: Simulate took %d steps, want moves=%v", tc.extended, len(trace), tc.moves)
		}
	}
}

func TestCapsicumBlocksCredentialsSignalsSockets(t *testing.T) {
	victim := Process(4, UniformCreds(106, 106), nil, nil)
	objs := []*rewrite.Term{
		Process(1, UniformCreds(1000, 1000), nil, nil),
		CapModeObj(1),
		victim,
		User(106), User(1000),
	}
	t.Run("kill denied despite CAP_KILL", func(t *testing.T) {
		msgs := []*rewrite.Term{KillMsg(1, Wild, 9, caps.NewSet(caps.CapKill))}
		if res := runExt(t, objs, msgs, GoalProcessTerminated(4)); res.Verdict != Safe {
			t.Errorf("verdict = %s, want ✗", res.Verdict)
		}
	})
	t.Run("setuid denied despite CAP_SETUID", func(t *testing.T) {
		goal := rewrite.Goal{
			Pattern: rewrite.NewConfig(
				rewrite.NewOp(symProcess, rewrite.NewInt(1),
					rewrite.NewInt(106), iv("R"), iv("S"),
					iv("EG"), iv("RG"), iv("SG"), iv("ST"), iv("RD"), iv("WR")),
				zvar()),
		}
		msgs := []*rewrite.Term{SetuidMsg(1, Wild, caps.NewSet(caps.CapSetuid))}
		if res := runExt(t, objs, msgs, goal); res.Verdict != Safe {
			t.Errorf("verdict = %s, want ✗", res.Verdict)
		}
	})
	t.Run("bind denied despite CAP_NET_BIND_SERVICE", func(t *testing.T) {
		msgs := []*rewrite.Term{
			SocketMsg(1, 10, caps.NewSet(caps.CapNetBindService)),
			BindMsg(1, 10, 22, caps.NewSet(caps.CapNetBindService)),
		}
		if res := runExt(t, objs, msgs, GoalPortBoundBelow(1024)); res.Verdict != Safe {
			t.Errorf("verdict = %s, want ✗", res.Verdict)
		}
	})
}

func TestCapsicumDescriptorOpsStillWork(t *testing.T) {
	// fchmod on an already-held descriptor keeps working in capability
	// mode — Capsicum restricts namespaces, not held capabilities.
	objs := []*rewrite.Term{
		Process(1, UniformCreds(2, 2), SetOf(3), nil), // /dev/mem already open for read
		CapModeObj(1),
		devMem(),
	}
	goal := rewrite.Goal{
		Pattern: rewrite.NewConfig(
			rewrite.NewOp(symFile, rewrite.NewInt(3), iv("N"),
				rewrite.NewInt(int64(vkernel.MustMode("rwxrwxrwx"))), iv("O"), iv("G")),
			zvar()),
	}
	msgs := []*rewrite.Term{FchmodMsg(1, 3, vkernel.MustMode("rwxrwxrwx"), caps.EmptySet)}
	if res := runExt(t, objs, msgs, goal); res.Verdict != Vulnerable {
		t.Errorf("verdict = %s, want ✓ (fd-based ops survive cap_enter)", res.Verdict)
	}
}

func TestCapEnterRule(t *testing.T) {
	// The cap_enter rule mechanics: consuming the message materialises the
	// CapMode marker.
	objs := []*rewrite.Term{Process(1, UniformCreds(1000, 1000), nil, nil)}
	msgs := []*rewrite.Term{CapEnterMsg(1)}
	goal := rewrite.Goal{
		Pattern: rewrite.NewConfig(CapModeObj(1), zvar()),
	}
	res := runExt(t, objs, msgs, goal)
	if res.Verdict != Vulnerable {
		t.Fatalf("CapMode marker unreachable: %s", res.Verdict)
	}
	if len(res.Witness) != 1 || res.Witness[0].Rule != "cap_enter" {
		t.Errorf("witness = %v", res.Witness)
	}
	// cap_enter is voluntary: an attacker simply avoids it, so its presence
	// as an available message must not make any attack safer. The open
	// still succeeds by not consuming cap_enter first.
	objs2 := []*rewrite.Term{Process(1, UniformCreds(2, 2), nil, nil), devMem()}
	msgs2 := []*rewrite.Term{CapEnterMsg(1), OpenMsg(1, 3, OpenRead, caps.EmptySet)}
	if res := runExt(t, objs2, msgs2, GoalFileInReadSet(3)); res.Verdict != Vulnerable {
		t.Errorf("verdict = %s, want ✓ (attacker skips cap_enter)", res.Verdict)
	}
}

func TestSequencedAttackerProgramOrder(t *testing.T) {
	// The CFI-weakened attacker must respect program order. The program
	// opens the shadow file BEFORE it gains the ability to switch UIDs, so
	// an attacker needing setuid(owner)→open(/dev/mem) is stuck: by the
	// time setuid is reachable, the open is spent.
	base := func() []*rewrite.Term {
		return []*rewrite.Term{
			Process(1, UniformCreds(1000, 1000), nil, nil),
			devMem(),
			User(2), User(1000),
		}
	}
	privs := caps.NewSet(caps.CapSetuid)

	t.Run("unordered attacker succeeds", func(t *testing.T) {
		msgs := []*rewrite.Term{
			OpenMsg(1, Wild, OpenRead, privs),
			SetuidMsg(1, Wild, privs),
		}
		if res := runExt(t, base(), msgs, GoalFileInReadSet(3)); res.Verdict != Vulnerable {
			t.Errorf("verdict = %s, want ✓", res.Verdict)
		}
	})
	t.Run("CFI order open-then-setuid is safe", func(t *testing.T) {
		objs := append(base(), Fence(0))
		msgs := []*rewrite.Term{
			SeqMsg(0, OpenMsg(1, Wild, OpenRead, privs)),
			SeqMsg(1, SetuidMsg(1, Wild, privs)),
		}
		if res := runExt(t, objs, msgs, GoalFileInReadSet(3)); res.Verdict != Safe {
			t.Errorf("verdict = %s, want ✗ (open fires before setuid)", res.Verdict)
		}
	})
	t.Run("CFI order setuid-then-open stays vulnerable", func(t *testing.T) {
		objs := append(base(), Fence(0))
		msgs := []*rewrite.Term{
			SeqMsg(0, SetuidMsg(1, Wild, privs)),
			SeqMsg(1, OpenMsg(1, Wild, OpenRead, privs)),
		}
		if res := runExt(t, objs, msgs, GoalFileInReadSet(3)); res.Verdict != Vulnerable {
			t.Errorf("verdict = %s, want ✓", res.Verdict)
		}
	})
}

func TestSequencedWitnessIncludesSeqSteps(t *testing.T) {
	// A sequenced attack's witness interleaves seq unwraps with the actual
	// syscall firings, and skipped calls appear as seq-skip.
	privs := caps.NewSet(caps.CapSetuid)
	objs := []*rewrite.Term{
		Process(1, UniformCreds(1000, 1000), nil, nil),
		devMem(),
		User(2), User(1000),
		Fence(0),
	}
	msgs := []*rewrite.Term{
		SeqMsg(0, SetgidMsg(1, Wild, privs)), // fails (no CapSetgid): must be skipped
		SeqMsg(1, SetuidMsg(1, Wild, privs)),
		SeqMsg(2, OpenMsg(1, Wild, OpenWrite, privs)),
	}
	res := runExt(t, objs, msgs, GoalFileInWriteSet(3))
	if res.Verdict != Vulnerable {
		t.Fatalf("verdict = %s, want ✓", res.Verdict)
	}
	var rules []string
	for _, st := range res.Witness {
		rules = append(rules, st.Rule)
	}
	joined := strings.Join(rules, " ")
	for _, want := range []string{"seq-skip", "seq", "setuid", "open"} {
		if !strings.Contains(joined, want) {
			t.Errorf("witness %v missing rule %q", rules, want)
		}
	}
}
