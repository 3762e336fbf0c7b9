package caps

import (
	"errors"
	"testing"
)

func TestNewCreds(t *testing.T) {
	c := NewCreds(1000, 1000, NewSet(CapSetuid))
	if c.RUID != 1000 || c.EUID != 1000 || c.SUID != 1000 {
		t.Errorf("uids = %s", c.UIDString())
	}
	if c.RGID != 1000 || c.EGID != 1000 || c.SGID != 1000 {
		t.Errorf("gids = %s", c.GIDString())
	}
	if !c.Effective.IsEmpty() {
		t.Errorf("effective should start empty, got %s", c.Effective)
	}
	if !c.Permitted.Has(CapSetuid) {
		t.Errorf("permitted = %s", c.Permitted)
	}
	if !c.NoSetuidFixup {
		t.Error("NoSetuidFixup should default on for PrivAnalyzer-compiled programs")
	}
}

func TestRaiseLowerRemove(t *testing.T) {
	c := NewCreds(0, 0, NewSet(CapSetuid, CapChown))

	if err := c.Raise(NewSet(CapSetuid)); err != nil {
		t.Fatalf("Raise: %v", err)
	}
	if !c.HasEffective(CapSetuid) {
		t.Fatal("raise did not enable capability")
	}

	c.Lower(NewSet(CapSetuid))
	if c.HasEffective(CapSetuid) {
		t.Fatal("lower did not disable capability")
	}
	if !c.Permitted.Has(CapSetuid) {
		t.Fatal("lower must not touch the permitted set")
	}

	// Lowered capabilities can be raised again.
	if err := c.Raise(NewSet(CapSetuid)); err != nil {
		t.Fatalf("re-raise after lower: %v", err)
	}

	// Removed capabilities can never be raised again.
	c.Remove(NewSet(CapSetuid))
	if c.Permitted.Has(CapSetuid) || c.HasEffective(CapSetuid) {
		t.Fatal("remove did not clear both sets")
	}
	err := c.Raise(NewSet(CapSetuid))
	if !errors.Is(err, ErrNotInPermitted) {
		t.Fatalf("raise after remove: err = %v, want ErrNotInPermitted", err)
	}

	// Other capabilities are untouched.
	if err := c.Raise(NewSet(CapChown)); err != nil {
		t.Fatalf("raise unrelated capability: %v", err)
	}
}

func TestRaiseNotInPermitted(t *testing.T) {
	c := NewCreds(0, 0, NewSet(CapChown))
	err := c.Raise(NewSet(CapChown, CapSetuid))
	if !errors.Is(err, ErrNotInPermitted) {
		t.Fatalf("err = %v, want ErrNotInPermitted", err)
	}
	// A failed raise is atomic: nothing was enabled.
	if !c.Effective.IsEmpty() {
		t.Fatalf("effective = %s after failed raise", c.Effective)
	}
}

func TestSetuidPrivileged(t *testing.T) {
	c := NewCreds(1000, 1000, NewSet(CapSetuid))
	if err := c.Raise(NewSet(CapSetuid)); err != nil {
		t.Fatal(err)
	}
	if err := c.Setuid(0); err != nil {
		t.Fatalf("privileged setuid(0): %v", err)
	}
	if c.RUID != 0 || c.EUID != 0 || c.SUID != 0 {
		t.Errorf("uids = %s, want 0,0,0", c.UIDString())
	}
}

func TestSetuidUnprivileged(t *testing.T) {
	c := NewCreds(1000, 1000, EmptySet)
	c.SUID = 1001
	if err := c.Setuid(0); !errors.Is(err, ErrNotPermitted) {
		t.Fatalf("unprivileged setuid(0): err = %v, want ErrNotPermitted", err)
	}
	// setuid to the saved uid is allowed and only changes the euid.
	if err := c.Setuid(1001); err != nil {
		t.Fatalf("setuid to saved uid: %v", err)
	}
	if c.EUID != 1001 || c.RUID != 1000 || c.SUID != 1001 {
		t.Errorf("uids = %s, want 1000,1001,1001", c.UIDString())
	}
}

func TestSeteuid(t *testing.T) {
	c := NewCreds(1000, 1000, EmptySet)
	c.SUID = 998
	if err := c.Seteuid(998); err != nil {
		t.Fatalf("seteuid to saved: %v", err)
	}
	if c.EUID != 998 {
		t.Errorf("euid = %d", c.EUID)
	}
	if err := c.Seteuid(1000); err != nil {
		t.Fatalf("seteuid back to real: %v", err)
	}
	if err := c.Seteuid(0); !errors.Is(err, ErrNotPermitted) {
		t.Fatalf("seteuid(0) unprivileged: %v", err)
	}
}

func TestSetresuid(t *testing.T) {
	t.Run("privileged sets all", func(t *testing.T) {
		c := NewCreds(1000, 1000, NewSet(CapSetuid))
		if err := c.Raise(NewSet(CapSetuid)); err != nil {
			t.Fatal(err)
		}
		if err := c.Setresuid(1, 2, 3); err != nil {
			t.Fatal(err)
		}
		if c.RUID != 1 || c.EUID != 2 || c.SUID != 3 {
			t.Errorf("uids = %s, want 1,2,3", c.UIDString())
		}
	})
	t.Run("wildcards leave unchanged", func(t *testing.T) {
		c := NewCreds(1000, 1000, NewSet(CapSetuid))
		if err := c.Raise(NewSet(CapSetuid)); err != nil {
			t.Fatal(err)
		}
		if err := c.Setresuid(WildID, 5, WildID); err != nil {
			t.Fatal(err)
		}
		if c.RUID != 1000 || c.EUID != 5 || c.SUID != 1000 {
			t.Errorf("uids = %s, want 1000,5,1000", c.UIDString())
		}
	})
	t.Run("unprivileged swap among own ids", func(t *testing.T) {
		// The refactored-su trick (paper §VII-D2): with saved uid set to
		// the target user, the effective uid can later switch to it
		// without any privilege.
		c := NewCreds(1000, 1000, EmptySet)
		c.SUID = 1001
		if err := c.Setresuid(WildID, 1001, WildID); err != nil {
			t.Fatalf("switch euid to saved uid: %v", err)
		}
		if c.EUID != 1001 {
			t.Errorf("euid = %d, want 1001", c.EUID)
		}
	})
	t.Run("unprivileged foreign id rejected atomically", func(t *testing.T) {
		c := NewCreds(1000, 1000, EmptySet)
		if err := c.Setresuid(1000, 42, WildID); !errors.Is(err, ErrNotPermitted) {
			t.Fatalf("err = %v, want ErrNotPermitted", err)
		}
		if c.RUID != 1000 || c.EUID != 1000 || c.SUID != 1000 {
			t.Errorf("failed setresuid mutated creds: %s", c.UIDString())
		}
	})
}

func TestSetgidFamily(t *testing.T) {
	c := NewCreds(1000, 1000, NewSet(CapSetgid))
	if err := c.Setgid(9); !errors.Is(err, ErrNotPermitted) {
		t.Fatalf("setgid without raised cap: %v", err)
	}
	if err := c.Raise(NewSet(CapSetgid)); err != nil {
		t.Fatal(err)
	}
	if err := c.Setgid(9); err != nil {
		t.Fatal(err)
	}
	if c.RGID != 9 || c.EGID != 9 || c.SGID != 9 {
		t.Errorf("gids = %s, want 9,9,9", c.GIDString())
	}

	c.Lower(NewSet(CapSetgid))
	if err := c.Setegid(42); !errors.Is(err, ErrNotPermitted) {
		t.Fatalf("setegid(42) unprivileged: %v", err)
	}
	if err := c.Setegid(9); err != nil {
		t.Fatalf("setegid to own gid: %v", err)
	}

	if err := c.Setresgid(WildID, 9, WildID); err != nil {
		t.Fatalf("setresgid among own gids: %v", err)
	}
	if err := c.Setresgid(42, WildID, WildID); !errors.Is(err, ErrNotPermitted) {
		t.Fatalf("setresgid foreign unprivileged: %v", err)
	}
}

func TestPhaseKey(t *testing.T) {
	a := NewCreds(1000, 1000, NewSet(CapSetuid))
	b := NewCreds(1000, 1000, NewSet(CapSetuid))
	if a.Phase() != b.Phase() {
		t.Error("identical creds must share a phase key")
	}
	// Raising an effective capability does not change the phase: the paper's
	// attack model keys on the permitted set only.
	if err := b.Raise(NewSet(CapSetuid)); err != nil {
		t.Fatal(err)
	}
	if a.Phase() != b.Phase() {
		t.Error("effective set must not affect the phase key")
	}
	b.Remove(NewSet(CapSetuid))
	if a.Phase() == b.Phase() {
		t.Error("permitted set must affect the phase key")
	}
	c := a
	c.EUID = 0
	if a.Phase() == c.Phase() {
		t.Error("euid must affect the phase key")
	}
}

func TestCredsString(t *testing.T) {
	c := NewCreds(1000, 1000, NewSet(CapSetuid))
	got := c.String()
	want := "perm=CapSetuid uid=1000,1000,1000 gid=1000,1000,1000"
	if got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

// TestIDsAllocationFree: ROSA's resRule calls the transitions once per
// candidate triple, on the search's hot path.
func TestIDsAllocationFree(t *testing.T) {
	ids, ok := IDs{R: 1, E: 2, S: 3}, false
	allocs := testing.AllocsPerRun(100, func() {
		ok = ids.May(2, false)
		ids, ok = ids.Setid(1, false)
		ids, ok = ids.Seteid(3, true)
		ids, ok = ids.Setres(WildID, 1, 3, false)
	})
	if allocs != 0 {
		t.Errorf("IDs transitions allocate %.0f times per run", allocs)
	}
	if !ok || ids != (IDs{R: 1, E: 1, S: 3}) {
		t.Errorf("ids = %+v, ok = %v; want {1 1 3}, true", ids, ok)
	}
}
