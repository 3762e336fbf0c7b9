package rosa

import (
	"testing"

	"privanalyzer/internal/rewrite"
)

// TestAllRulesCompile pins the property the engine rests on: every rule in
// the ROSA theory — base and extended — falls inside the compilable
// fragment (configuration-rooted LHS, at most one rest variable, no
// configuration inside an element). The engine runs no other rule shape:
// a rule that fell out of the fragment would make every search on its
// System fail with an error naming it, so this test names it first.
func TestAllRulesCompile(t *testing.T) {
	for _, tc := range []struct {
		name string
		sys  *rewrite.System
	}{
		{"base", NewSystem()},
		{"extended", NewExtendedSystem()},
	} {
		if _, err := rewrite.Compile(tc.sys.Rules); err != nil {
			t.Errorf("%s system: %v; every ROSA rule must stay in the compilable fragment", tc.name, err)
		}
	}
}
