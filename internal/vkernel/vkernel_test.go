package vkernel

import (
	"errors"
	"testing"
	"testing/quick"

	"privanalyzer/internal/caps"
)

func TestParseMode(t *testing.T) {
	tests := []struct {
		in      string
		want    Mode
		wantErr bool
	}{
		{"rwxrwxrwx", 0x1FF, false},
		{"---------", 0, false},
		{"rw-r-----", OwnerR | OwnerW | GroupR, false},
		{"r w x r w x r w x", 0x1FF, false}, // the paper's spaced rendering
		{"rwx", 0, true},
		{"rwxrwxrwz", 0, true},
		{"wrxrwxrwx", 0, true}, // misplaced chars
	}
	for _, tt := range tests {
		got, err := ParseMode(tt.in)
		if (err != nil) != tt.wantErr {
			t.Errorf("ParseMode(%q) error = %v, wantErr %v", tt.in, err, tt.wantErr)
			continue
		}
		if err == nil && got != tt.want {
			t.Errorf("ParseMode(%q) = %o, want %o", tt.in, got, tt.want)
		}
	}
}

func TestModeStringRoundTrip(t *testing.T) {
	f := func(raw uint16) bool {
		m := Mode(raw) & 0x1FF
		got, err := ParseMode(m.String())
		return err == nil && got == m
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// newTestKernel builds a kernel with the evaluation's file layout and one
// process with the given creds (effective set pre-raised to permitted so DAC
// tests exercise the bypasses directly).
func newTestKernel(t *testing.T, c caps.Creds) *Kernel {
	t.Helper()
	k := New()
	k.AddFile(File{Path: "/dev", Owner: 0, Group: 0, Perms: MustMode("rwxr-xr-x"), IsDir: true})
	k.AddFile(File{Path: "/dev/mem", Owner: 2, Group: 9, Perms: MustMode("rw-r-----")})
	k.AddFile(File{Path: "/etc", Owner: 0, Group: 0, Perms: MustMode("rwxr-xr-x"), IsDir: true})
	k.AddFile(File{Path: "/etc/shadow", Owner: 0, Group: 42, Perms: MustMode("rw-r-----")})
	k.Spawn("test", c)
	k.TraceEnabled = true
	return k
}

func raised(uid, gid int, s caps.Set) caps.Creds {
	c := caps.NewCreds(uid, gid, s)
	if err := c.Raise(s); err != nil {
		panic(err)
	}
	return c
}

func TestOpenDACMatrix(t *testing.T) {
	tests := []struct {
		name   string
		creds  caps.Creds
		path   string
		mode   int
		wantOK bool
	}{
		{"owner read", raised(2, 2, 0), "/dev/mem", OpenRead, true},
		{"owner write", raised(2, 2, 0), "/dev/mem", OpenWrite, true},
		{"group read", raised(1000, 9, 0), "/dev/mem", OpenRead, true},
		{"group write denied", raised(1000, 9, 0), "/dev/mem", OpenWrite, false},
		{"other denied", raised(1000, 1000, 0), "/dev/mem", OpenRead, false},
		{"uid0 without caps denied", raised(0, 0, 0), "/dev/mem", OpenRead, false},
		{"dac_override read", raised(1000, 1000, caps.NewSet(caps.CapDacOverride)), "/dev/mem", OpenRDWR, true},
		{"dac_read_search read", raised(1000, 1000, caps.NewSet(caps.CapDacReadSearch)), "/dev/mem", OpenRead, true},
		{"dac_read_search write denied", raised(1000, 1000, caps.NewSet(caps.CapDacReadSearch)), "/dev/mem", OpenWrite, false},
		{"shadow group read", raised(1000, 42, 0), "/etc/shadow", OpenRead, true},
		{"missing file", raised(0, 0, caps.FullSet()), "/no/such", OpenRead, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			k := newTestKernel(t, tt.creds)
			fd, err := k.Invoke("open", []Arg{StrArg(tt.path), IntArg(int64(tt.mode))})
			if err != nil {
				t.Fatalf("Invoke: %v", err)
			}
			if ok := fd >= 0; ok != tt.wantOK {
				t.Errorf("open %s mode %d with %s: fd = %d, wantOK %v (trace %v)",
					tt.path, tt.mode, tt.creds, fd, tt.wantOK, k.Trace)
			}
		})
	}
}

func TestSupplementaryGroups(t *testing.T) {
	k := newTestKernel(t, raised(1000, 1000, 0))
	k.Current().Supp[9] = true // kmem
	fd, err := k.Invoke("open", []Arg{StrArg("/dev/mem"), IntArg(OpenRead)})
	if err != nil {
		t.Fatal(err)
	}
	if fd < 0 {
		t.Error("supplementary kmem group should grant read")
	}
}

func TestParentSearchPermission(t *testing.T) {
	k := New()
	k.AddFile(File{Path: "/secret", Owner: 0, Group: 0, Perms: MustMode("rwx------"), IsDir: true})
	k.AddFile(File{Path: "/secret/key", Owner: 1000, Group: 1000, Perms: MustMode("rw-------")})
	k.Spawn("test", raised(1000, 1000, 0))
	fd, err := k.Invoke("open", []Arg{StrArg("/secret/key"), IntArg(OpenRead)})
	if err != nil {
		t.Fatal(err)
	}
	if fd >= 0 {
		t.Error("open should fail without search permission on parent")
	}
	// CAP_DAC_READ_SEARCH bypasses directory search checks.
	k2 := New()
	k2.AddFile(File{Path: "/secret", Owner: 0, Group: 0, Perms: MustMode("rwx------"), IsDir: true})
	k2.AddFile(File{Path: "/secret/key", Owner: 1000, Group: 1000, Perms: MustMode("rw-------")})
	k2.Spawn("test", raised(1000, 1000, caps.NewSet(caps.CapDacReadSearch)))
	fd, err = k2.Invoke("open", []Arg{StrArg("/secret/key"), IntArg(OpenRead)})
	if err != nil {
		t.Fatal(err)
	}
	if fd < 0 {
		t.Error("CAP_DAC_READ_SEARCH should bypass parent search check")
	}
}

func TestPrivWrappers(t *testing.T) {
	perm := caps.NewSet(caps.CapSetuid, caps.CapChown)
	k := newTestKernel(t, caps.NewCreds(1000, 1000, perm))

	if ret, err := k.Invoke("priv_raise", []Arg{IntArg(int64(caps.NewSet(caps.CapSetuid)))}); err != nil || ret != 0 {
		t.Fatalf("priv_raise: ret=%d err=%v", ret, err)
	}
	if !k.Current().Creds.HasEffective(caps.CapSetuid) {
		t.Fatal("raise ineffective")
	}
	if ret, _ := k.Invoke("priv_remove", []Arg{IntArg(int64(caps.NewSet(caps.CapSetuid)))}); ret != 0 {
		t.Fatal("priv_remove failed")
	}
	// Raising a removed capability fails with -1 (EPERM), not an abort.
	ret, err := k.Invoke("priv_raise", []Arg{IntArg(int64(caps.NewSet(caps.CapSetuid)))})
	if err != nil {
		t.Fatalf("raise-after-remove should be EPERM, got abort: %v", err)
	}
	if ret != -1 {
		t.Errorf("raise-after-remove ret = %d, want -1", ret)
	}
}

func TestSetuidSyscalls(t *testing.T) {
	k := newTestKernel(t, raised(1000, 1000, caps.NewSet(caps.CapSetuid)))
	if ret, _ := k.Invoke("setuid", []Arg{IntArg(0)}); ret != 0 {
		t.Fatal("privileged setuid failed")
	}
	c := k.Current().Creds
	if c.RUID != 0 || c.EUID != 0 || c.SUID != 0 {
		t.Errorf("uids = %s", c.UIDString())
	}
	if ret, _ := k.Invoke("getuid", nil); ret != 0 {
		t.Errorf("getuid = %d", ret)
	}
}

func TestBindPrivilegedPort(t *testing.T) {
	t.Run("without cap", func(t *testing.T) {
		k := newTestKernel(t, raised(1000, 1000, 0))
		fd, _ := k.Invoke("socket", []Arg{IntArg(SockStream)})
		if fd < 0 {
			t.Fatal("socket failed")
		}
		if ret, _ := k.Invoke("bind", []Arg{IntArg(fd), IntArg(80)}); ret != -1 {
			t.Error("bind to port 80 without CAP_NET_BIND_SERVICE should fail")
		}
		if ret, _ := k.Invoke("bind", []Arg{IntArg(fd), IntArg(8080)}); ret != 0 {
			t.Error("bind to unprivileged port should succeed")
		}
	})
	t.Run("with cap", func(t *testing.T) {
		k := newTestKernel(t, raised(1000, 1000, caps.NewSet(caps.CapNetBindService)))
		fd, _ := k.Invoke("socket", []Arg{IntArg(SockStream)})
		if ret, _ := k.Invoke("bind", []Arg{IntArg(fd), IntArg(80)}); ret != 0 {
			t.Error("bind with CAP_NET_BIND_SERVICE should succeed")
		}
	})
	t.Run("port conflict", func(t *testing.T) {
		k := newTestKernel(t, raised(1000, 1000, 0))
		fd1, _ := k.Invoke("socket", []Arg{IntArg(SockStream)})
		fd2, _ := k.Invoke("socket", []Arg{IntArg(SockStream)})
		if ret, _ := k.Invoke("bind", []Arg{IntArg(fd1), IntArg(8080)}); ret != 0 {
			t.Fatal("first bind failed")
		}
		// Same process rebinding is tolerated; a second process is not.
		if ret, _ := k.Invoke("bind", []Arg{IntArg(fd2), IntArg(8080)}); ret != 0 {
			t.Fatal("same-process rebind should pass in the model")
		}
		k.Spawn("other", raised(1001, 1001, 0))
		if err := k.SetCurrent(2); err != nil {
			t.Fatal(err)
		}
		fd3, _ := k.Invoke("socket", []Arg{IntArg(SockStream)})
		if ret, _ := k.Invoke("bind", []Arg{IntArg(fd3), IntArg(8080)}); ret != -1 {
			t.Error("cross-process port conflict should fail")
		}
	})
}

func TestRawSocketNeedsNetRaw(t *testing.T) {
	k := newTestKernel(t, raised(1000, 1000, 0))
	if ret, _ := k.Invoke("socket", []Arg{IntArg(SockRaw)}); ret != -1 {
		t.Error("raw socket without CAP_NET_RAW should fail")
	}
	k2 := newTestKernel(t, raised(1000, 1000, caps.NewSet(caps.CapNetRaw)))
	if ret, _ := k2.Invoke("socket", []Arg{IntArg(SockRaw)}); ret < 0 {
		t.Error("raw socket with CAP_NET_RAW should succeed")
	}
}

func TestSetsockoptNeedsNetAdmin(t *testing.T) {
	k := newTestKernel(t, raised(1000, 1000, caps.NewSet(caps.CapNetRaw)))
	fd, _ := k.Invoke("socket", []Arg{IntArg(SockRaw)})
	if ret, _ := k.Invoke("setsockopt", []Arg{IntArg(fd), IntArg(SoDebug)}); ret != -1 {
		t.Error("SO_DEBUG without CAP_NET_ADMIN should fail")
	}
	k2 := newTestKernel(t, raised(1000, 1000, caps.NewSet(caps.CapNetRaw, caps.CapNetAdmin)))
	fd2, _ := k2.Invoke("socket", []Arg{IntArg(SockRaw)})
	if ret, _ := k2.Invoke("setsockopt", []Arg{IntArg(fd2), IntArg(SoDebug)}); ret != 0 {
		t.Error("SO_DEBUG with CAP_NET_ADMIN should succeed")
	}
}

func TestChmodChown(t *testing.T) {
	t.Run("owner may chmod", func(t *testing.T) {
		k := newTestKernel(t, raised(2, 2, 0))
		if ret, _ := k.Invoke("chmod", []Arg{StrArg("/dev/mem"), IntArg(int64(MustMode("rwxrwxrwx")))}); ret != 0 {
			t.Error("owner chmod failed")
		}
		if k.LookupFile("/dev/mem").Perms != MustMode("rwxrwxrwx") {
			t.Error("chmod did not apply")
		}
	})
	t.Run("non-owner needs CAP_FOWNER", func(t *testing.T) {
		k := newTestKernel(t, raised(1000, 1000, 0))
		if ret, _ := k.Invoke("chmod", []Arg{StrArg("/dev/mem"), IntArg(0)}); ret != -1 {
			t.Error("non-owner chmod should fail")
		}
		k2 := newTestKernel(t, raised(1000, 1000, caps.NewSet(caps.CapFowner)))
		if ret, _ := k2.Invoke("chmod", []Arg{StrArg("/dev/mem"), IntArg(0)}); ret != 0 {
			t.Error("CAP_FOWNER chmod should succeed")
		}
	})
	t.Run("chown needs CAP_CHOWN", func(t *testing.T) {
		k := newTestKernel(t, raised(1000, 1000, 0))
		if ret, _ := k.Invoke("chown", []Arg{StrArg("/dev/mem"), IntArg(1000), IntArg(caps.WildID)}); ret != -1 {
			t.Error("chown without CAP_CHOWN should fail")
		}
		k2 := newTestKernel(t, raised(1000, 1000, caps.NewSet(caps.CapChown)))
		if ret, _ := k2.Invoke("chown", []Arg{StrArg("/dev/mem"), IntArg(1000), IntArg(caps.WildID)}); ret != 0 {
			t.Error("chown with CAP_CHOWN should succeed")
		}
		if k2.LookupFile("/dev/mem").Owner != 1000 {
			t.Error("chown did not apply")
		}
	})
}

func TestKillPermission(t *testing.T) {
	setup := func(senderCreds caps.Creds) (*Kernel, int) {
		k := New()
		k.Spawn("attacker", senderCreds)
		victim := k.Spawn("sshd", caps.NewCreds(106, 106, 0))
		return k, victim.PID
	}
	t.Run("unrelated denied", func(t *testing.T) {
		k, pid := setup(raised(1000, 1000, 0))
		if ret, _ := k.Invoke("kill", []Arg{IntArg(int64(pid)), IntArg(SigKill)}); ret != -1 {
			t.Error("kill should be denied")
		}
		if k.Proc(pid).State != Running {
			t.Error("victim should still run")
		}
	})
	t.Run("cap_kill allowed", func(t *testing.T) {
		k, pid := setup(raised(1000, 1000, caps.NewSet(caps.CapKill)))
		if ret, _ := k.Invoke("kill", []Arg{IntArg(int64(pid)), IntArg(SigKill)}); ret != 0 {
			t.Error("kill with CAP_KILL should succeed")
		}
		if k.Proc(pid).State != Terminated {
			t.Error("victim should be terminated")
		}
	})
	t.Run("matching euid allowed", func(t *testing.T) {
		k, pid := setup(raised(106, 106, 0))
		if ret, _ := k.Invoke("kill", []Arg{IntArg(int64(pid)), IntArg(SigKill)}); ret != 0 {
			t.Error("kill with matching uid should succeed")
		}
	})
}

func TestUnlinkRename(t *testing.T) {
	k := New()
	k.AddFile(File{Path: "/etc", Owner: 998, Group: 42, Perms: MustMode("rwxr-xr-x"), IsDir: true})
	k.AddFile(File{Path: "/etc/shadow", Owner: 998, Group: 42, Perms: MustMode("rw-r-----")})
	k.AddFile(File{Path: "/etc/nshadow", Owner: 998, Group: 42, Perms: MustMode("rw-r-----")})
	k.Spawn("passwd", raised(998, 42, 0))

	if ret, _ := k.Invoke("unlink", []Arg{StrArg("/etc/shadow")}); ret != 0 {
		t.Fatalf("unlink failed: %v", k.Trace)
	}
	if k.LookupFile("/etc/shadow") != nil {
		t.Error("unlink did not remove the file")
	}
	if ret, _ := k.Invoke("rename", []Arg{StrArg("/etc/nshadow"), StrArg("/etc/shadow")}); ret != 0 {
		t.Fatal("rename failed")
	}
	if k.LookupFile("/etc/shadow") == nil || k.LookupFile("/etc/nshadow") != nil {
		t.Error("rename did not move the file")
	}

	// A foreign user without write permission on /etc cannot unlink.
	k.Spawn("other", raised(1000, 1000, 0))
	if err := k.SetCurrent(2); err != nil {
		t.Fatal(err)
	}
	if ret, _ := k.Invoke("unlink", []Arg{StrArg("/etc/shadow")}); ret != -1 {
		t.Error("foreign unlink should fail")
	}
}

func TestReadWriteFDSemantics(t *testing.T) {
	k := newTestKernel(t, raised(2, 9, 0))
	fd, _ := k.Invoke("open", []Arg{StrArg("/dev/mem"), IntArg(OpenRead)})
	if fd < 0 {
		t.Fatal("open failed")
	}
	if n, _ := k.Invoke("read", []Arg{IntArg(fd), IntArg(4096)}); n != 4096 {
		t.Errorf("read = %d", n)
	}
	if ret, _ := k.Invoke("write", []Arg{IntArg(fd), IntArg(10)}); ret != -1 {
		t.Error("write on read-only fd should fail")
	}
	if ret, _ := k.Invoke("close", []Arg{IntArg(fd)}); ret != 0 {
		t.Error("close failed")
	}
	if ret, _ := k.Invoke("read", []Arg{IntArg(fd), IntArg(1)}); ret != -1 {
		t.Error("read on closed fd should fail")
	}
}

func TestChrootNeedsCap(t *testing.T) {
	k := newTestKernel(t, raised(1000, 1000, 0))
	if ret, _ := k.Invoke("chroot", []Arg{StrArg("/srv")}); ret != -1 {
		t.Error("chroot without CAP_SYS_CHROOT should fail")
	}
	k2 := newTestKernel(t, raised(1000, 1000, caps.NewSet(caps.CapSysChroot)))
	if ret, _ := k2.Invoke("chroot", []Arg{StrArg("/srv")}); ret != 0 {
		t.Error("chroot with CAP_SYS_CHROOT should succeed")
	}
}

func TestSetgroupsNeedsSetgid(t *testing.T) {
	k := newTestKernel(t, raised(1000, 1000, 0))
	if ret, _ := k.Invoke("setgroups", []Arg{IntArg(9)}); ret != -1 {
		t.Error("setgroups without CAP_SETGID should fail")
	}
	k2 := newTestKernel(t, raised(1000, 1000, caps.NewSet(caps.CapSetgid)))
	if ret, _ := k2.Invoke("setgroups", []Arg{IntArg(9), IntArg(42)}); ret != 0 {
		t.Error("setgroups with CAP_SETGID should succeed")
	}
	if !k2.Current().Supp[9] || !k2.Current().Supp[42] {
		t.Error("setgroups did not apply")
	}
}

func TestUnknownSyscallAborts(t *testing.T) {
	k := newTestKernel(t, raised(1000, 1000, 0))
	_, err := k.Invoke("frobnicate", nil)
	if !errors.Is(err, ErrBadSyscall) {
		t.Errorf("err = %v, want ErrBadSyscall", err)
	}
}

func TestTraceRecordsFailures(t *testing.T) {
	k := newTestKernel(t, raised(1000, 1000, 0))
	if _, err := k.Invoke("open", []Arg{StrArg("/dev/mem"), IntArg(OpenWrite)}); err != nil {
		t.Fatal(err)
	}
	if len(k.Trace) != 1 {
		t.Fatalf("trace = %v", k.Trace)
	}
	ev := k.Trace[0]
	if ev.Name != "open" || ev.Ret != -1 || ev.Err == "" {
		t.Errorf("trace event = %+v", ev)
	}
}

func TestDACMonotonicityQuick(t *testing.T) {
	// Property: granting an extra capability never revokes access that was
	// previously allowed.
	f := func(rawPerms uint16, euid, egid uint8, capBit uint8) bool {
		file := &File{Path: "/f", Owner: 50, Group: 60, Perms: Mode(rawPerms) & 0x1FF}
		base := raised(int(euid), int(egid), 0)
		extraSet := caps.NewSet(caps.Cap(capBit % caps.NumCaps))
		extra := raised(int(euid), int(egid), extraSet)
		pBase := &Proc{Creds: base, Supp: map[int]bool{}}
		pExtra := &Proc{Creds: extra, Supp: map[int]bool{}}
		for _, mode := range [][2]bool{{true, false}, {false, true}, {true, true}} {
			baseOK := access(pBase, file, mode[0], mode[1]) == nil
			extraOK := access(pExtra, file, mode[0], mode[1]) == nil
			if baseOK && !extraOK {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}
