package vkernel

import "privanalyzer/internal/caps"

// The permission checks below are the one implementation of the Linux
// access-control rules both models enforce: the simulated kernel's
// syscalls and ROSA's rewrite rules (internal/rosa) call them, so the two
// cannot drift apart (internal/rosa's conformance suite holds them to each
// other call by call). Each is a pure function of ids, a mode word and the
// caller's effective capability set eff (for ROSA, a message's privileges,
// any of which the attacker may raise).
//
// Group membership is the caller's input. The kernel counts the egid and
// the supplementary groups; ROSA's process term carries no supplementary
// groups (neither does the paper's), so it counts the egid alone and judges
// any other process on the other-bits. That is a deliberate model choice
// (DESIGN.md §2).

// classBits returns the rwx bits (in the low three) of the permission class
// that applies to the caller: owner when euid owns the object, group when
// the caller is in its group, other otherwise.
func classBits(perms Mode, owner, euid int, inGroup bool) Mode {
	switch {
	case euid == owner:
		return perms >> 6 & 7
	case inGroup:
		return perms >> 3 & 7
	default:
		return perms & 7
	}
}

// MayAccess is the Linux DAC check on a file with its capability bypasses:
// CAP_DAC_OVERRIDE bypasses everything, CAP_DAC_READ_SEARCH read-only
// access. Otherwise the caller's class must grant each of read and write
// asked for.
func MayAccess(perms Mode, owner, euid int, inGroup, read, write bool, eff caps.Set) bool {
	if eff.Has(caps.CapDacOverride) || read && !write && eff.Has(caps.CapDacReadSearch) {
		return true
	}
	bits := classBits(perms, owner, euid, inGroup)
	return (!read || bits&4 != 0) && (!write || bits&2 != 0)
}

// MaySearch is the search (execute) check on a directory, bypassed by
// CAP_DAC_OVERRIDE or CAP_DAC_READ_SEARCH.
func MaySearch(perms Mode, owner, euid int, inGroup bool, eff caps.Set) bool {
	return eff.Has(caps.CapDacOverride) || eff.Has(caps.CapDacReadSearch) ||
		classBits(perms, owner, euid, inGroup)&1 != 0
}

// MayChmod reports whether the caller may change a file's mode: it must own
// the file or hold CAP_FOWNER.
func MayChmod(owner, euid int, eff caps.Set) bool {
	return euid == owner || eff.Has(caps.CapFowner)
}

// MayChown reports whether the caller may change a file from owner:group
// to newOwner:newGroup. A new owner needs CAP_CHOWN. A new group needs
// CAP_CHOWN, or owning the file and holding the new group, which ownGroup
// reports: both models count the caller's real, effective and saved gids
// (wider than Linux, whose chown_ok accepts only the fsgid and the
// supplementary groups; DESIGN.md §2), and the kernel its supplementary
// groups too.
func MayChown(owner, group, newOwner, newGroup, euid int, ownGroup bool, eff caps.Set) bool {
	if eff.Has(caps.CapChown) {
		return true
	}
	return newOwner == owner && (newGroup == group || euid == owner && ownGroup)
}

// MayKill is the signal permission rule: the sender's real or effective
// UID must match the target's real or saved UID, unless the sender holds
// CAP_KILL.
func MayKill(sender, target caps.IDs, eff caps.Set) bool {
	return eff.Has(caps.CapKill) ||
		sender.E == target.R || sender.E == target.S ||
		sender.R == target.R || sender.R == target.S
}

// MayBind reports whether a socket may bind to port. Ports of 0 and below
// are refused: neither model picks an ephemeral port, and a socket at port
// 0 is an unbound one. Ports below 1024 need CAP_NET_BIND_SERVICE, and a
// taken port is unavailable: the kernel counts a port another process
// holds as taken, ROSA, whose sockets have no owner, any bound socket's.
func MayBind(port int, taken bool, eff caps.Set) bool {
	return port > 0 && (port >= 1024 || eff.Has(caps.CapNetBindService)) && !taken
}
