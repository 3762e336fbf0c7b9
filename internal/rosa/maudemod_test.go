package rosa

import (
	"strings"
	"testing"

	"privanalyzer/internal/caps"
)

func TestMaudeModuleStructure(t *testing.T) {
	src := MaudeModule()

	if !strings.HasPrefix(src, "*** ROSA") {
		t.Error("missing header comment")
	}
	if !strings.Contains(src, "mod UNIX is") || !strings.HasSuffix(src, "endm\n") {
		t.Error("module not properly delimited")
	}

	// Every capability constant is declared.
	for c := caps.Cap(0); c < caps.NumCaps; c++ {
		if !strings.Contains(src, c.String()) {
			t.Errorf("capability %s not declared", c)
		}
	}

	// Every Go rule has a Maude counterpart label (open splits into
	// read/write variants; the credential rules into priv/unpriv).
	for _, rule := range NewSystem().Rules {
		label := "[" + rule.Name
		if rule.Name == "open" {
			label = "[open-r"
		}
		if !strings.Contains(src, label) {
			t.Errorf("no Maude rule labelled for Go rule %q", rule.Name)
		}
	}
	for _, ext := range []string{"[cap-enter]", "[seq]", "[seq-skip]"} {
		if !strings.Contains(src, ext) {
			t.Errorf("missing extension rule %s", ext)
		}
	}

	// Every message constructor is declared as an op with the right sort.
	for msg := range messageSymbols {
		decl := "op " + msg + " :"
		if msg == "cap_enter" {
			decl = "op cap-enter :" // Maude identifiers avoid underscores
		}
		if !strings.Contains(src, decl) {
			t.Errorf("message %s has no op declaration", msg)
		}
	}

	// Object constructors match the term shapes MaudeTerm-independent
	// rendering uses (Process arity 10, File 5, Dir 6, Socket 2).
	for _, decl := range []string{
		"op Process : Int Int Int Int Int Int Int procState IntSet IntSet -> Object",
		"op File : Int String Int Int Int -> Object",
		"op Dir : Int String Int Int Int Int -> Object",
		"op Socket : Int Int -> Object",
		"op User : Int -> Object",
		"op Group : Int -> Object",
	} {
		if !strings.Contains(src, decl) {
			t.Errorf("missing object declaration %q", decl)
		}
	}

	// The rules mirror rules.go's conditions: bind needs a positive port
	// (vkernel.MayBind), and kill consumes any permitted signal but
	// terminates the target only on 9 or 15 (killRule).
	bind := maudeRule(t, src, "bind")
	for _, want := range []string{"PORT > 0", "PORT >= 1024 or CapNetBindService in PRV", "wildOr(SID, N)"} {
		if !strings.Contains(bind, want) {
			t.Errorf("bind rule lacks %q:\n%s", want, bind)
		}
	}
	kill := maudeRule(t, src, "kill")
	if !strings.Contains(kill, "if SIG == 9 or SIG == 15 then term else run fi") {
		t.Errorf("kill rule does not terminate on 9 or 15 only:\n%s", kill)
	}
	if cond := kill[strings.LastIndex(kill, "\n   if "):]; strings.Contains(cond, "SIG") {
		t.Errorf("kill rule's condition gates on the signal:\n%s", cond)
	}

	// Balanced parentheses — a cheap syntactic sanity check over the whole
	// module.
	depth := 0
	for _, r := range src {
		switch r {
		case '(':
			depth++
		case ')':
			depth--
		}
		if depth < 0 {
			t.Fatal("unbalanced parentheses (extra ')')")
		}
	}
	if depth != 0 {
		t.Fatalf("unbalanced parentheses (depth %d at end)", depth)
	}
}

// maudeRule returns the text of the module's rule labelled name, from its
// label to the terminating " .".
func maudeRule(t *testing.T, src, name string) string {
	t.Helper()
	i := strings.Index(src, "rl ["+name+"] :")
	if i < 0 {
		t.Fatalf("no rule labelled %s", name)
	}
	end := strings.Index(src[i:], " .\n")
	if end < 0 {
		t.Fatalf("rule %s is not terminated", name)
	}
	return src[i : i+end]
}

func TestMaudeModuleStatementTermination(t *testing.T) {
	// Every Maude statement line group ends with " ." — check the
	// declarations we generate programmatically.
	src := MaudeModule()
	for _, line := range strings.Split(src, "\n") {
		trimmed := strings.TrimSpace(line)
		if strings.HasPrefix(trimmed, "ops ") || strings.HasPrefix(trimmed, "sorts ") {
			if !strings.HasSuffix(trimmed, ".") {
				t.Errorf("unterminated statement: %q", trimmed)
			}
		}
	}
}

func TestMaudeModuleDeterministic(t *testing.T) {
	if MaudeModule() != MaudeModule() {
		t.Error("module generation is nondeterministic")
	}
}
