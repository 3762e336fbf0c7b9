package caps

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// WildID is the conventional "leave unchanged" argument for the set*id
// syscall family, mirroring the -1 sentinel in the Linux API.
const WildID = -1

// Sentinel errors returned by credential operations.
var (
	// ErrNotPermitted is returned when an operation requires a capability
	// or identity the process does not hold (Linux EPERM).
	ErrNotPermitted = errors.New("caps: operation not permitted")
	// ErrNotInPermitted is returned by Raise when a capability is absent
	// from the permitted set and therefore can never be enabled again.
	ErrNotInPermitted = errors.New("caps: capability not in permitted set")
)

// Creds is the credential state of a Linux task: real/effective/saved user
// and group IDs plus the three capability sets. Creds is a small value type;
// methods that change state are defined on *Creds.
type Creds struct {
	RUID, EUID, SUID int
	RGID, EGID, SGID int

	Effective   Set
	Permitted   Set
	Inheritable Set

	// NoSetuidFixup records that the process called
	// prctl(PR_SET_SECUREBITS, SECBIT_NO_SETUID_FIXUP): the kernel's
	// backward-compatibility behaviour of adjusting capability sets when
	// UIDs transition to or from zero is disabled. PrivAnalyzer inserts
	// this prctl into every program it compiles (paper §VII-B), so all of
	// our analyses assume it; the flag exists so the kernel model can also
	// simulate legacy behaviour.
	NoSetuidFixup bool
}

// NewCreds returns credentials for a process with all six IDs set to uid and
// gid, the given permitted set, an empty effective set, and the
// SECBIT_NO_SETUID_FIXUP behaviour PrivAnalyzer installs.
func NewCreds(uid, gid int, permitted Set) Creds {
	return Creds{
		RUID: uid, EUID: uid, SUID: uid,
		RGID: gid, EGID: gid, SGID: gid,
		Permitted:     permitted,
		NoSetuidFixup: true,
	}
}

// String renders the credentials in the format of the paper's tables:
// "perm=<set> uid=r,e,s gid=r,e,s".
func (c Creds) String() string {
	return fmt.Sprintf("perm=%s uid=%d,%d,%d gid=%d,%d,%d",
		c.Permitted, c.RUID, c.EUID, c.SUID, c.RGID, c.EGID, c.SGID)
}

// UIDString renders "ruid,euid,suid" as in the paper's UID column.
func (c Creds) UIDString() string {
	return fmt.Sprintf("%d,%d,%d", c.RUID, c.EUID, c.SUID)
}

// GIDString renders "rgid,egid,sgid" as in the paper's GID column.
func (c Creds) GIDString() string {
	return fmt.Sprintf("%d,%d,%d", c.RGID, c.EGID, c.SGID)
}

// PhaseKey identifies a ChronoPriv measurement phase: a distinct combination
// of permitted privilege set and the six process IDs. Two program points with
// equal PhaseKeys are indistinguishable to an attacker under the paper's
// attack model.
type PhaseKey struct {
	Permitted        Set
	RUID, EUID, SUID int
	RGID, EGID, SGID int
}

// Phase returns the measurement phase key for the credentials.
func (c Creds) Phase() PhaseKey {
	return PhaseKey{
		Permitted: c.Permitted,
		RUID:      c.RUID, EUID: c.EUID, SUID: c.SUID,
		RGID: c.RGID, EGID: c.EGID, SGID: c.SGID,
	}
}

// Raise enables the given capabilities in the effective set (the AutoPriv
// priv_raise wrapper). It fails with ErrNotInPermitted if any capability has
// already been removed from the permitted set.
func (c *Creds) Raise(s Set) error {
	if !s.SubsetOf(c.Permitted) {
		return fmt.Errorf("%w: raising %s with permitted %s",
			ErrNotInPermitted, s.Minus(c.Permitted), c.Permitted)
	}
	c.Effective = c.Effective.Union(s)
	return nil
}

// Lower disables the given capabilities in the effective set (priv_lower).
// Lowering a capability that is not raised is a no-op, as in Linux.
func (c *Creds) Lower(s Set) {
	c.Effective = c.Effective.Minus(s)
}

// Remove disables the given capabilities in both the effective and permitted
// sets (priv_remove). A removed capability can never be re-acquired by the
// process until it executes a new program image.
func (c *Creds) Remove(s Set) {
	c.Effective = c.Effective.Minus(s)
	c.Permitted = c.Permitted.Minus(s)
}

// HasEffective reports whether cap is raised in the effective set; this is
// the check the kernel's access-control paths perform.
func (c Creds) HasEffective(cap Cap) bool { return c.Effective.Has(cap) }

// IDs is a real/effective/saved triple: a process's user IDs or its group
// IDs. Its methods are the set*id transitions of Linux, pure and
// allocation-free, and the only implementation of them: Creds applies them
// for the simulated kernel, and ROSA's credential rules (internal/rosa)
// apply them to every candidate argument. priv reports that the call's
// capability is raised (CAP_SETUID for user IDs, CAP_SETGID for group
// IDs); ok=false means the call is denied (EPERM) and leaves the IDs as
// they were.
type IDs struct{ R, E, S int }

// May reports whether a set*id call may set one ID to v: any value when
// privileged, otherwise only one of the current real, effective or saved
// IDs.
func (ids IDs) May(v int, priv bool) bool {
	return priv || v == ids.R || v == ids.E || v == ids.S
}

// Setid is setuid(2) and setgid(2): privileged, all three IDs become v;
// otherwise v must be the real or saved ID, and only the effective ID
// changes.
func (ids IDs) Setid(v int, priv bool) (IDs, bool) {
	if priv {
		return IDs{v, v, v}, true
	}
	return ids.Seteid(v, false)
}

// Seteid is seteuid(2) and setegid(2): the effective ID becomes v, which
// must be the real or saved ID unless privileged.
func (ids IDs) Seteid(v int, priv bool) (IDs, bool) {
	if !priv && v != ids.R && v != ids.S {
		return ids, false
	}
	ids.E = v
	return ids, true
}

// Setres is setresuid(2) and setresgid(2): each of r, e and s is WildID
// (leave unchanged) or a value May accepts.
func (ids IDs) Setres(r, e, s int, priv bool) (IDs, bool) {
	keep := func(v, cur int) int {
		if v == WildID {
			return cur
		}
		return v
	}
	next := IDs{keep(r, ids.R), keep(e, ids.E), keep(s, ids.S)}
	if !ids.May(next.R, priv) || !ids.May(next.E, priv) || !ids.May(next.S, priv) {
		return ids, false
	}
	return next, true
}

// UIDs returns the real, effective and saved user IDs.
func (c Creds) UIDs() IDs { return IDs{c.RUID, c.EUID, c.SUID} }

// GIDs returns the real, effective and saved group IDs.
func (c Creds) GIDs() IDs { return IDs{c.RGID, c.EGID, c.SGID} }

// setIDs applies one set*id transition to the user IDs, or to the group
// IDs when group is set; the transition is privileged when CapSetuid
// (CapSetgid) is raised. call and args name the syscall in the error.
func (c *Creds) setIDs(group bool, next func(IDs, bool) (IDs, bool), call string, args ...int) error {
	ids, capability := c.UIDs(), CapSetuid
	if group {
		ids, capability = c.GIDs(), CapSetgid
	}
	n, ok := next(ids, c.HasEffective(capability))
	if !ok {
		strs := make([]string, len(args))
		for i, a := range args {
			strs[i] = strconv.Itoa(a)
		}
		return fmt.Errorf("%w: %s(%s) with %s", ErrNotPermitted, call, strings.Join(strs, ","), c.String())
	}
	if group {
		c.RGID, c.EGID, c.SGID = n.R, n.E, n.S
	} else {
		c.RUID, c.EUID, c.SUID = n.R, n.E, n.S
	}
	return nil
}

// Setuid implements setuid(2) (IDs.Setid).
func (c *Creds) Setuid(uid int) error {
	return c.setIDs(false, func(ids IDs, priv bool) (IDs, bool) { return ids.Setid(uid, priv) }, "setuid", uid)
}

// Seteuid implements seteuid(2) (IDs.Seteid).
func (c *Creds) Seteuid(uid int) error {
	return c.setIDs(false, func(ids IDs, priv bool) (IDs, bool) { return ids.Seteid(uid, priv) }, "seteuid", uid)
}

// Setresuid implements setresuid(2) (IDs.Setres); each of r, e, s may be
// WildID.
func (c *Creds) Setresuid(r, e, s int) error {
	return c.setIDs(false, func(ids IDs, priv bool) (IDs, bool) { return ids.Setres(r, e, s, priv) }, "setresuid", r, e, s)
}

// Setgid implements setgid(2) (IDs.Setid on the group IDs).
func (c *Creds) Setgid(gid int) error {
	return c.setIDs(true, func(ids IDs, priv bool) (IDs, bool) { return ids.Setid(gid, priv) }, "setgid", gid)
}

// Setegid implements setegid(2).
func (c *Creds) Setegid(gid int) error {
	return c.setIDs(true, func(ids IDs, priv bool) (IDs, bool) { return ids.Seteid(gid, priv) }, "setegid", gid)
}

// Setresgid implements setresgid(2).
func (c *Creds) Setresgid(r, e, s int) error {
	return c.setIDs(true, func(ids IDs, priv bool) (IDs, bool) { return ids.Setres(r, e, s, priv) }, "setresgid", r, e, s)
}
