package vkernel

import (
	"fmt"

	"privanalyzer/internal/caps"
)

// Open-mode constants for the open syscall's second argument.
const (
	OpenRead  = 0
	OpenWrite = 1
	OpenRDWR  = 2
)

// Socket-type constants for the socket syscall.
const (
	SockStream = 0
	SockRaw    = 1
)

// Socket options requiring CAP_NET_ADMIN (the ping -d / -m flags, §VII-C).
const (
	SoDebug = 1
	SoMark  = 2
)

// Signal numbers used by the models.
const (
	SigKill = 9
	SigTerm = 15
	SigChld = 17
)

// errno-style failure: the syscall returns -1 to the program, with the
// reason recorded in the trace; the run continues.
type permError struct{ why string }

// Error implements the error interface.
func (e permError) Error() string { return e.why }

func eperm(format string, args ...any) error {
	return permError{why: fmt.Sprintf(format, args...)}
}

// Invoke executes one syscall on behalf of the current process. Permission
// failures return ret == -1 with a nil error (the program observes errno);
// malformed calls return an error wrapping ErrBadSyscall, which aborts the
// interpreter run.
func (k *Kernel) Invoke(name string, args []Arg) (int64, error) {
	ret, err := k.dispatch(name, args)
	var ev Event
	if k.TraceEnabled {
		ev = Event{Name: name, Args: formatArgs(args), Ret: ret}
	}
	if err != nil {
		if _, ok := err.(permError); ok {
			if k.TraceEnabled {
				ev.Ret = -1
				ev.Err = err.Error()
				k.Trace = append(k.Trace, ev)
			}
			return -1, nil
		}
		return -1, err
	}
	if k.TraceEnabled {
		k.Trace = append(k.Trace, ev)
	}
	return ret, nil
}

func (k *Kernel) dispatch(name string, args []Arg) (int64, error) {
	p := k.Current()
	if p == nil {
		return -1, fmt.Errorf("%w: no current process", ErrBadSyscall)
	}
	if p.State != Running {
		return -1, fmt.Errorf("%w: current process terminated", ErrBadSyscall)
	}

	ints := func(n int) ([]int64, error) {
		if len(args) != n {
			return nil, fmt.Errorf("%w: %s wants %d args, got %d", ErrBadSyscall, name, n, len(args))
		}
		out := make([]int64, n)
		for i, a := range args {
			if a.IsStr {
				return nil, fmt.Errorf("%w: %s arg %d must be an integer", ErrBadSyscall, name, i)
			}
			out[i] = a.Int
		}
		return out, nil
	}

	switch name {
	case "priv_raise":
		a, err := ints(1)
		if err != nil {
			return -1, err
		}
		if err := p.Creds.Raise(caps.Set(a[0])); err != nil {
			return -1, eperm("%v", err)
		}
		return 0, nil
	case "priv_lower":
		a, err := ints(1)
		if err != nil {
			return -1, err
		}
		p.Creds.Lower(caps.Set(a[0]))
		return 0, nil
	case "priv_remove":
		a, err := ints(1)
		if err != nil {
			return -1, err
		}
		p.Creds.Remove(caps.Set(a[0]))
		return 0, nil
	case "prctl":
		a, err := ints(1)
		if err != nil {
			return -1, err
		}
		if a[0] == 1 {
			p.Creds.NoSetuidFixup = true
		}
		return 0, nil

	case "getuid":
		if _, err := ints(0); err != nil {
			return -1, err
		}
		return int64(p.Creds.RUID), nil
	case "geteuid":
		if _, err := ints(0); err != nil {
			return -1, err
		}
		return int64(p.Creds.EUID), nil
	case "getgid":
		if _, err := ints(0); err != nil {
			return -1, err
		}
		return int64(p.Creds.RGID), nil

	case "setuid":
		a, err := ints(1)
		if err != nil {
			return -1, err
		}
		if err := p.Creds.Setuid(int(a[0])); err != nil {
			return -1, eperm("%v", err)
		}
		return 0, nil
	case "seteuid":
		a, err := ints(1)
		if err != nil {
			return -1, err
		}
		if err := p.Creds.Seteuid(int(a[0])); err != nil {
			return -1, eperm("%v", err)
		}
		return 0, nil
	case "setresuid":
		a, err := ints(3)
		if err != nil {
			return -1, err
		}
		if err := p.Creds.Setresuid(int(a[0]), int(a[1]), int(a[2])); err != nil {
			return -1, eperm("%v", err)
		}
		return 0, nil
	case "setgid":
		a, err := ints(1)
		if err != nil {
			return -1, err
		}
		if err := p.Creds.Setgid(int(a[0])); err != nil {
			return -1, eperm("%v", err)
		}
		return 0, nil
	case "setegid":
		a, err := ints(1)
		if err != nil {
			return -1, err
		}
		if err := p.Creds.Setegid(int(a[0])); err != nil {
			return -1, eperm("%v", err)
		}
		return 0, nil
	case "setresgid":
		a, err := ints(3)
		if err != nil {
			return -1, err
		}
		if err := p.Creds.Setresgid(int(a[0]), int(a[1]), int(a[2])); err != nil {
			return -1, eperm("%v", err)
		}
		return 0, nil
	case "setgroups":
		// Replacing the supplementary group list requires CAP_SETGID.
		if !p.Creds.HasEffective(caps.CapSetgid) {
			return -1, eperm("setgroups without CAP_SETGID")
		}
		groups := make(map[int]bool, len(args))
		for i, a := range args {
			if a.IsStr {
				return -1, fmt.Errorf("%w: setgroups arg %d must be an integer", ErrBadSyscall, i)
			}
			groups[int(a.Int)] = true
		}
		p.Supp = groups
		return 0, nil

	case "open":
		if len(args) != 2 || !args[0].IsStr || args[1].IsStr {
			return -1, fmt.Errorf("%w: open wants (path, mode)", ErrBadSyscall)
		}
		return k.open(p, args[0].Str, int(args[1].Int))
	case "close":
		a, err := ints(1)
		if err != nil {
			return -1, err
		}
		if _, ok := p.fds[int(a[0])]; !ok {
			return -1, eperm("close of bad fd %d", a[0])
		}
		delete(p.fds, int(a[0]))
		return 0, nil
	case "read":
		a, err := ints(2)
		if err != nil {
			return -1, err
		}
		of, ok := p.fds[int(a[0])]
		if !ok || !of.read {
			return -1, eperm("read on fd %d not open for reading", a[0])
		}
		return a[1], nil
	case "write":
		a, err := ints(2)
		if err != nil {
			return -1, err
		}
		of, ok := p.fds[int(a[0])]
		if !ok || !of.write {
			return -1, eperm("write on fd %d not open for writing", a[0])
		}
		return a[1], nil

	case "stat":
		if len(args) != 1 || !args[0].IsStr {
			return -1, fmt.Errorf("%w: stat wants (path)", ErrBadSyscall)
		}
		f := k.fs[args[0].Str]
		if f == nil {
			return -1, eperm("stat %s: no such file", args[0].Str)
		}
		return int64(f.Owner), nil
	case "chmod":
		if len(args) != 2 || !args[0].IsStr || args[1].IsStr {
			return -1, fmt.Errorf("%w: chmod wants (path, mode)", ErrBadSyscall)
		}
		return k.chmod(p, args[0].Str, Mode(args[1].Int))
	case "chown":
		if len(args) != 3 || !args[0].IsStr || args[1].IsStr || args[2].IsStr {
			return -1, fmt.Errorf("%w: chown wants (path, uid, gid)", ErrBadSyscall)
		}
		return k.chown(p, args[0].Str, int(args[1].Int), int(args[2].Int))
	case "unlink":
		if len(args) != 1 || !args[0].IsStr {
			return -1, fmt.Errorf("%w: unlink wants (path)", ErrBadSyscall)
		}
		return k.unlink(p, args[0].Str)
	case "rename":
		if len(args) != 2 || !args[0].IsStr || !args[1].IsStr {
			return -1, fmt.Errorf("%w: rename wants (old, new)", ErrBadSyscall)
		}
		return k.rename(p, args[0].Str, args[1].Str)
	case "umask":
		if _, err := ints(1); err != nil {
			return -1, err
		}
		return 0, nil

	case "socket":
		a, err := ints(1)
		if err != nil {
			return -1, err
		}
		if a[0] == SockRaw && !p.Creds.HasEffective(caps.CapNetRaw) {
			return -1, eperm("raw socket without CAP_NET_RAW")
		}
		fd := p.nextFD
		p.nextFD++
		p.fds[fd] = &openFile{read: true, write: true, sock: &socket{raw: a[0] == SockRaw}}
		return int64(fd), nil
	case "bind":
		a, err := ints(2)
		if err != nil {
			return -1, err
		}
		of, ok := p.fds[int(a[0])]
		if !ok || of.sock == nil {
			return -1, eperm("bind on non-socket fd %d", a[0])
		}
		if of.sock.boundPort != 0 {
			return -1, eperm("bind on fd %d: socket already bound to port %d", a[0], of.sock.boundPort)
		}
		port := int(a[1])
		other, taken := k.ports[port]
		taken = taken && other != p.PID
		if !MayBind(port, taken, p.Creds.Effective) {
			if taken {
				return -1, eperm("port %d already bound by pid %d", port, other)
			}
			return -1, eperm("bind to port %d: not a port, or privileged without CAP_NET_BIND_SERVICE", port)
		}
		of.sock.boundPort = port
		k.ports[port] = p.PID
		return 0, nil
	case "connect":
		a, err := ints(2)
		if err != nil {
			return -1, err
		}
		of, ok := p.fds[int(a[0])]
		if !ok || of.sock == nil {
			return -1, eperm("connect on non-socket fd %d", a[0])
		}
		of.sock.connected = true
		return 0, nil
	case "listen":
		a, err := ints(1)
		if err != nil {
			return -1, err
		}
		of, ok := p.fds[int(a[0])]
		if !ok || of.sock == nil || of.sock.boundPort == 0 {
			return -1, eperm("listen on unbound fd %d", a[0])
		}
		return 0, nil
	case "accept":
		a, err := ints(1)
		if err != nil {
			return -1, err
		}
		of, ok := p.fds[int(a[0])]
		if !ok || of.sock == nil {
			return -1, eperm("accept on non-socket fd %d", a[0])
		}
		fd := p.nextFD
		p.nextFD++
		p.fds[fd] = &openFile{read: true, write: true, sock: &socket{connected: true}}
		return int64(fd), nil
	case "setsockopt":
		a, err := ints(2)
		if err != nil {
			return -1, err
		}
		of, ok := p.fds[int(a[0])]
		if !ok || of.sock == nil {
			return -1, eperm("setsockopt on non-socket fd %d", a[0])
		}
		if (a[1] == SoDebug || a[1] == SoMark) && !p.Creds.HasEffective(caps.CapNetAdmin) {
			return -1, eperm("setsockopt option %d without CAP_NET_ADMIN", a[1])
		}
		return 0, nil

	case "chroot":
		if len(args) != 1 || !args[0].IsStr {
			return -1, fmt.Errorf("%w: chroot wants (path)", ErrBadSyscall)
		}
		if !p.Creds.HasEffective(caps.CapSysChroot) {
			return -1, eperm("chroot without CAP_SYS_CHROOT")
		}
		return 0, nil

	case "kill":
		a, err := ints(2)
		if err != nil {
			return -1, err
		}
		return k.kill(p, int(a[0]), int(a[1]))
	case "signal":
		// Handler registration is static module metadata (the module's
		// SignalHandlers map); the runtime call is accepted for fidelity and
		// ignored. The second argument may be a function reference.
		if len(args) != 2 {
			return -1, fmt.Errorf("%w: signal wants (sig, handler)", ErrBadSyscall)
		}
		return 0, nil
	case "fork":
		// Minimal fork: the paper's models do not follow children (ROSA
		// lacks fork/exec too); return a fake child pid to the parent.
		if _, err := ints(0); err != nil {
			return -1, err
		}
		child := k.Spawn(p.Name+"-child", p.Creds)
		child.State = Terminated // not scheduled; bookkeeping only
		return int64(child.PID), nil
	case "exec":
		// Not modeled (matches ROSA's documented limitation); no-op.
		return 0, nil
	case "exit":
		p.State = Terminated
		return 0, nil

	default:
		return -1, fmt.Errorf("%w: unknown syscall %q", ErrBadSyscall, name)
	}
}

// inGroup reports whether p counts as a member of group g for the DAC
// checks: its egid or one of its supplementary groups.
func (p *Proc) inGroup(g int) bool { return p.Creds.EGID == g || p.Supp[g] }

// access applies MayAccess to p and f.
func access(p *Proc, f *File, read, write bool) error {
	c := p.Creds
	if MayAccess(f.Perms, f.Owner, c.EUID, p.inGroup(f.Group), read, write, c.Effective) {
		return nil
	}
	what := "read"
	if write {
		what = "write"
	}
	return eperm("no %s permission on %s (perms %s, euid %d, egid %d)", what, f.Path, f.Perms, c.EUID, c.EGID)
}

// search applies MaySearch to p and directory d.
func search(p *Proc, d *File) error {
	if MaySearch(d.Perms, d.Owner, p.Creds.EUID, p.inGroup(d.Group), p.Creds.Effective) {
		return nil
	}
	return eperm("no search permission on %s", d.Path)
}

// checkParentSearch validates search permission on the parent directory of
// path, if the parent exists in the file table (ROSA models a single parent
// level the same way).
func (k *Kernel) checkParentSearch(p *Proc, filePath string) error {
	parent := parentDir(filePath)
	if parent == "" {
		return nil
	}
	d := k.fs[parent]
	if d == nil || !d.IsDir {
		return nil
	}
	return search(p, d)
}

func (k *Kernel) open(p *Proc, path string, mode int) (int64, error) {
	f := k.fs[path]
	if f == nil {
		return -1, eperm("open %s: no such file", path)
	}
	if err := k.checkParentSearch(p, path); err != nil {
		return -1, err
	}
	read := mode == OpenRead || mode == OpenRDWR
	write := mode == OpenWrite || mode == OpenRDWR
	if err := access(p, f, read, write); err != nil {
		return -1, err
	}
	fd := p.nextFD
	p.nextFD++
	p.fds[fd] = &openFile{file: f, read: read, write: write}
	return int64(fd), nil
}

// chmod requires the caller to own the file or hold CAP_FOWNER.
func (k *Kernel) chmod(p *Proc, path string, mode Mode) (int64, error) {
	f := k.fs[path]
	if f == nil {
		return -1, eperm("chmod %s: no such file", path)
	}
	if !MayChmod(f.Owner, p.Creds.EUID, p.Creds.Effective) {
		return -1, eperm("chmod %s: not owner and no CAP_FOWNER", path)
	}
	f.Perms = mode & 0x1FF
	return 0, nil
}

// chown applies MayChown; WildID leaves the owner or the group unchanged.
// The caller holds the new group through its real, effective or saved gid
// or a supplementary group.
func (k *Kernel) chown(p *Proc, path string, uid, gid int) (int64, error) {
	f := k.fs[path]
	if f == nil {
		return -1, eperm("chown %s: no such file", path)
	}
	if uid == caps.WildID {
		uid = f.Owner
	}
	if gid == caps.WildID {
		gid = f.Group
	}
	c := p.Creds
	if !MayChown(f.Owner, f.Group, uid, gid, c.EUID, c.GIDs().May(gid, false) || p.Supp[gid], c.Effective) {
		return -1, eperm("chown %s to %d:%d: needs CAP_CHOWN, or ownership and the group", path, uid, gid)
	}
	f.Owner, f.Group = uid, gid
	return 0, nil
}

// unlink requires write+search permission on the parent directory.
func (k *Kernel) unlink(p *Proc, path string) (int64, error) {
	f := k.fs[path]
	if f == nil {
		return -1, eperm("unlink %s: no such file", path)
	}
	parent := k.fs[parentDir(path)]
	if parent != nil && parent.IsDir {
		if err := search(p, parent); err != nil {
			return -1, err
		}
		if err := access(p, parent, false, true); err != nil {
			return -1, err
		}
	}
	delete(k.fs, path)
	return 0, nil
}

// rename moves a directory entry; like unlink it needs write permission on
// the parent directory.
func (k *Kernel) rename(p *Proc, oldPath, newPath string) (int64, error) {
	f := k.fs[oldPath]
	if f == nil {
		return -1, eperm("rename %s: no such file", oldPath)
	}
	parent := k.fs[parentDir(oldPath)]
	if parent != nil && parent.IsDir {
		if err := access(p, parent, false, true); err != nil {
			return -1, err
		}
	}
	delete(k.fs, oldPath)
	f.Path = newPath
	k.fs[newPath] = f
	return 0, nil
}

// kill applies MayKill.
func (k *Kernel) kill(p *Proc, pid, sig int) (int64, error) {
	target := k.procs[pid]
	if target == nil {
		return -1, eperm("kill %d: no such process", pid)
	}
	c := p.Creds
	if !MayKill(c.UIDs(), target.Creds.UIDs(), c.Effective) {
		return -1, eperm("kill %d: permission denied (sender %s, target ruid %d suid %d)",
			pid, c.UIDString(), target.Creds.RUID, target.Creds.SUID)
	}
	if sig == SigKill || sig == SigTerm {
		target.State = Terminated
	}
	return 0, nil
}
