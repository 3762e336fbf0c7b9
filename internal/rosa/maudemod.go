package rosa

import (
	"fmt"
	"strings"

	"privanalyzer/internal/caps"
)

// MaudeModule generates complete Maude 2.7 source for the ROSA model — the
// counterpart of the original's 1,151 lines of Maude (§VI). The module is
// self-contained core Maude (no Full Maude object syntax needed): it
// declares the privilege constants, the object and message constructors in
// the exact shapes this package's terms render to, the Linux
// permission-check equations, and one (conditional) rewrite rule per
// modeled system call, mirroring rules.go rule for rule. Together with
// MaudeTerm / Query.MaudeSearch, a query built here can be re-checked on a
// real Maude installation.
//
// Documented simplifications relative to the Go checker (which remains the
// source of truth for all reported verdicts):
//   - the open rules check the file's permission word but not the parent
//     directory entry;
//   - the unprivileged setresuid/setresgid component-wise swaps are omitted
//     (the privileged rules are complete);
//   - chown and fchown always need CapChown: the owner's change of a file's
//     group to its own group (vkernel.MayChown) is omitted;
//   - bind checks the port (positive, and below 1024 only with
//     CapNetBindService, as vkernel.MayBind) but not whether another socket
//     already holds it;
//   - the Capsicum gate exists as the CapMode object and cap-enter rule but
//     is not woven into every namespace rule's condition.
func MaudeModule() string {
	var b strings.Builder
	b.WriteString(maudeHeader)
	writeMaudePrivs(&b)
	b.WriteString(maudeSortsAndOps)
	b.WriteString(maudeHelpers)
	b.WriteString(maudeRules)
	b.WriteString("endm\n")
	return b.String()
}

const maudeHeader = `*** ROSA: Rewrite of Objects for Syscall Analysis
*** Generated by the PrivAnalyzer Go reproduction; models the Linux
*** system-call API over an object configuration (processes, files,
*** directory entries, sockets, users, groups) with per-message privilege
*** sets, as described in DSN'19 sections V-B and VI.
mod UNIX is
  protecting INT .
  protecting STRING .
  protecting BOOL .

`

// writeMaudePrivs declares the privilege constants and the set union.
func writeMaudePrivs(b *strings.Builder) {
	b.WriteString("  *** Privileges (Linux capabilities) and privilege sets.\n")
	b.WriteString("  sorts Priv PrivSet .\n")
	b.WriteString("  subsort Priv < PrivSet .\n")
	b.WriteString("  op empty : -> PrivSet [ctor] .\n")
	b.WriteString("  op _;_ : PrivSet PrivSet -> PrivSet [ctor assoc comm id: empty] .\n")
	names := make([]string, 0, caps.NumCaps)
	for c := caps.Cap(0); c < caps.NumCaps; c++ {
		names = append(names, c.String())
	}
	for i := 0; i < len(names); i += 4 {
		end := i + 4
		if end > len(names) {
			end = len(names)
		}
		fmt.Fprintf(b, "  ops %s : -> Priv [ctor] .\n", strings.Join(names[i:end], " "))
	}
	b.WriteString("  op _in_ : Priv PrivSet -> Bool .\n")
	b.WriteString("  var P P' : Priv . var PS : PrivSet .\n")
	b.WriteString("  eq P in (P ; PS) = true .\n")
	b.WriteString("  eq P in PS = false [owise] .\n\n")
}

const maudeSortsAndOps = `  *** Objects, messages, and configurations.
  sorts Object Msg Configuration procState Mode IntSet .
  subsort Object < Configuration .
  subsort Msg < Configuration .
  op none : -> Configuration [ctor] .
  op __ : Configuration Configuration -> Configuration [ctor assoc comm id: none] .

  ops run term : -> procState [ctor] .

  op set : -> IntSet [ctor] .                     *** empty object-id set
  op set : IntList -> IntSet [ctor] .
  sort IntList .  subsort Int < IntList .
  op _,_ : IntList IntList -> IntList [ctor assoc] .
  op _inSet_ : Int IntSet -> Bool .
  op insert : Int IntSet -> IntSet .
  var I J : Int . var IL : IntList .
  eq I inSet set = false .
  eq I inSet set(I) = true .
  eq I inSet set((I, IL)) = true .
  eq I inSet set((J, IL)) = I inSet set(IL) if I =/= J [owise] .
  eq I inSet set(J) = false [owise] .
  eq insert(I, set) = set(I) .
  eq insert(I, S:IntSet) = S:IntSet if I inSet S:IntSet .
  eq insert(I, set(IL)) = set((I, IL)) [owise] .

  *** Modes are 9-bit rwxrwxrwx words carried as integers; bit tests below.
  op ownerR : -> Int .  eq ownerR = 256 .
  op ownerW : -> Int .  eq ownerW = 128 .
  op ownerX : -> Int .  eq ownerX = 64 .
  op groupR : -> Int .  eq groupR = 32 .
  op groupW : -> Int .  eq groupW = 16 .
  op groupX : -> Int .  eq groupX = 8 .
  op otherR : -> Int .  eq otherR = 4 .
  op otherW : -> Int .  eq otherW = 2 .
  op otherX : -> Int .  eq otherX = 1 .
  op hasBit : Int Int -> Bool .
  eq hasBit(M:Int, B:Int) = (M:Int rem (2 * B:Int)) >= B:Int .

  *** Object constructors, argument-for-argument the shapes the Go terms
  *** render to (terms.go):
  ***   Process(id, euid, ruid, suid, egid, rgid, sgid, state, rdf, wrf)
  op Process : Int Int Int Int Int Int Int procState IntSet IntSet -> Object [ctor] .
  op File : Int String Int Int Int -> Object [ctor] .
  op Dir : Int String Int Int Int Int -> Object [ctor] .
  op Socket : Int Int -> Object [ctor] .
  op User : Int -> Object [ctor] .
  op Group : Int -> Object [ctor] .
  op CapMode : Int -> Object [ctor] .
  op Fence : Int -> Object [ctor] .

  *** Message constructors (pid first, privilege set last; Wild = -1).
  op open : Int Int Int PrivSet -> Msg [ctor] .
  op chmod : Int Int Int PrivSet -> Msg [ctor] .
  op fchmod : Int Int Int PrivSet -> Msg [ctor] .
  op chown : Int Int Int Int PrivSet -> Msg [ctor] .
  op fchown : Int Int Int Int PrivSet -> Msg [ctor] .
  op unlink : Int Int PrivSet -> Msg [ctor] .
  op rename : Int Int Int PrivSet -> Msg [ctor] .
  op setuid : Int Int PrivSet -> Msg [ctor] .
  op seteuid : Int Int PrivSet -> Msg [ctor] .
  op setresuid : Int Int Int Int PrivSet -> Msg [ctor] .
  op setgid : Int Int PrivSet -> Msg [ctor] .
  op setegid : Int Int PrivSet -> Msg [ctor] .
  op setresgid : Int Int Int Int PrivSet -> Msg [ctor] .
  op kill : Int Int Int PrivSet -> Msg [ctor] .
  op socket : Int Int PrivSet -> Msg [ctor] .
  op bind : Int Int Int PrivSet -> Msg [ctor] .
  op connect : Int Int Int PrivSet -> Msg [ctor] .
  op cap-enter : Int -> Msg [ctor] .
  op seq : Int Msg -> Msg [ctor] .

`

const maudeHelpers = `  *** Linux DAC with capability bypasses (vkernel.MayAccess, MaySearch).
  op mayRead : Int Int Int Int Int PrivSet -> Bool .  *** euid egid perms owner group privs
  op mayWrite : Int Int Int Int Int PrivSet -> Bool .
  op maySearch : Int Int Int Int Int PrivSet -> Bool .
  vars EU EG PM OW GR : Int . var PR : PrivSet .
  ceq mayRead(EU, EG, PM, OW, GR, PR) = true if CapDacOverride in PR .
  ceq mayRead(EU, EG, PM, OW, GR, PR) = true if CapDacReadSearch in PR .
  ceq mayRead(EU, EG, PM, OW, GR, PR) = hasBit(PM, ownerR) if EU == OW [owise] .
  ceq mayRead(EU, EG, PM, OW, GR, PR) = hasBit(PM, groupR) if EU =/= OW and EG == GR [owise] .
  eq  mayRead(EU, EG, PM, OW, GR, PR) = hasBit(PM, otherR) [owise] .
  ceq mayWrite(EU, EG, PM, OW, GR, PR) = true if CapDacOverride in PR .
  ceq mayWrite(EU, EG, PM, OW, GR, PR) = hasBit(PM, ownerW) if EU == OW [owise] .
  ceq mayWrite(EU, EG, PM, OW, GR, PR) = hasBit(PM, groupW) if EU =/= OW and EG == GR [owise] .
  eq  mayWrite(EU, EG, PM, OW, GR, PR) = hasBit(PM, otherW) [owise] .
  ceq maySearch(EU, EG, PM, OW, GR, PR) = true if CapDacOverride in PR .
  ceq maySearch(EU, EG, PM, OW, GR, PR) = true if CapDacReadSearch in PR .
  ceq maySearch(EU, EG, PM, OW, GR, PR) = hasBit(PM, ownerX) if EU == OW [owise] .
  ceq maySearch(EU, EG, PM, OW, GR, PR) = hasBit(PM, groupX) if EU =/= OW and EG == GR [owise] .
  eq  maySearch(EU, EG, PM, OW, GR, PR) = hasBit(PM, otherX) [owise] .

  op wildOr : Int Int -> Bool .   *** argument matches target or is Wild
  eq wildOr(-1, I) = true .
  eq wildOr(I, I) = true .
  eq wildOr(I, J) = false [owise] .

`

// maudeRules holds the rewrite rules, one per syscall, mirroring rules.go.
// Variables: P* process fields, F* file fields, D* dir fields, message
// arguments by name, Z the configuration rest implicit in the soup.
const maudeRules = `  *** Rule variables.
  vars PID FID DID SID TGT SIG PORT MODE PERMS U G R E S N INODE : Int .
  vars EUID RUID SUID EGID RGID SGID : Int .
  vars TE TR TS TEG TRG TSG : Int .
  vars NAME : String .
  vars RDF WRF TRDF TWRF : IntSet .
  vars ST TST : procState .
  var  PRV : PrivSet .

  *** open (read mode 0): pathname lookup on the single parent level is
  *** approximated here by the file's permission word alone; the Go checker
  *** additionally consults Dir entries (rules.go openRule).
  crl [open-r] :
      open(PID, FID, 0, PRV)
      Process(PID, EUID, RUID, SUID, EGID, RGID, SGID, run, RDF, WRF)
      File(FID, NAME, PERMS, OW, GR)
   => Process(PID, EUID, RUID, SUID, EGID, RGID, SGID, run, insert(FID, RDF), WRF)
      File(FID, NAME, PERMS, OW, GR)
   if mayRead(EUID, EGID, PERMS, OW, GR, PRV) .

  crl [open-w] :
      open(PID, FID, 1, PRV)
      Process(PID, EUID, RUID, SUID, EGID, RGID, SGID, run, RDF, WRF)
      File(FID, NAME, PERMS, OW, GR)
   => Process(PID, EUID, RUID, SUID, EGID, RGID, SGID, run, RDF, insert(FID, WRF))
      File(FID, NAME, PERMS, OW, GR)
   if mayWrite(EUID, EGID, PERMS, OW, GR, PRV) .

  crl [chmod] :
      chmod(PID, FID, N, PRV)
      Process(PID, EUID, RUID, SUID, EGID, RGID, SGID, run, RDF, WRF)
      File(FID, NAME, PERMS, OW, GR)
   => Process(PID, EUID, RUID, SUID, EGID, RGID, SGID, run, RDF, WRF)
      File(FID, NAME, N, OW, GR)
   if EUID == OW or CapFowner in PRV .

  crl [fchmod] :
      fchmod(PID, FID, N, PRV)
      Process(PID, EUID, RUID, SUID, EGID, RGID, SGID, run, RDF, WRF)
      File(FID, NAME, PERMS, OW, GR)
   => Process(PID, EUID, RUID, SUID, EGID, RGID, SGID, run, RDF, WRF)
      File(FID, NAME, N, OW, GR)
   if (FID inSet RDF or FID inSet WRF) and (EUID == OW or CapFowner in PRV) .

  crl [chown] :
      chown(PID, FID, U, G, PRV)
      Process(PID, EUID, RUID, SUID, EGID, RGID, SGID, run, RDF, WRF)
      File(FID, NAME, PERMS, OW, GR)
      User(U) Group(G)
   => Process(PID, EUID, RUID, SUID, EGID, RGID, SGID, run, RDF, WRF)
      File(FID, NAME, PERMS, U, G)
      User(U) Group(G)
   if CapChown in PRV .

  crl [fchown] :
      fchown(PID, FID, U, G, PRV)
      Process(PID, EUID, RUID, SUID, EGID, RGID, SGID, run, RDF, WRF)
      File(FID, NAME, PERMS, OW, GR)
      User(U) Group(G)
   => Process(PID, EUID, RUID, SUID, EGID, RGID, SGID, run, RDF, WRF)
      File(FID, NAME, PERMS, U, G)
      User(U) Group(G)
   if (FID inSet RDF or FID inSet WRF) and CapChown in PRV .

  crl [unlink] :
      unlink(PID, DID, PRV)
      Process(PID, EUID, RUID, SUID, EGID, RGID, SGID, run, RDF, WRF)
      Dir(DID, NAME, PERMS, OW, GR, INODE)
   => Process(PID, EUID, RUID, SUID, EGID, RGID, SGID, run, RDF, WRF)
      Dir(DID, NAME, PERMS, OW, GR, -1)
   if maySearch(EUID, EGID, PERMS, OW, GR, PRV)
      and mayWrite(EUID, EGID, PERMS, OW, GR, PRV) .

  crl [rename] :
      rename(PID, DID, N, PRV)
      Process(PID, EUID, RUID, SUID, EGID, RGID, SGID, run, RDF, WRF)
      Dir(DID, NAME, PERMS, OW, GR, INODE)
   => Process(PID, EUID, RUID, SUID, EGID, RGID, SGID, run, RDF, WRF)
      Dir(DID, NAME, PERMS, OW, GR, N)
   if mayWrite(EUID, EGID, PERMS, OW, GR, PRV) .

  *** setuid family: privileged sets all three ids to any User object's id;
  *** unprivileged adopts only the real or saved uid.
  crl [setuid-priv] :
      setuid(PID, U, PRV)
      Process(PID, EUID, RUID, SUID, EGID, RGID, SGID, run, RDF, WRF)
      User(N)
   => Process(PID, N, N, N, EGID, RGID, SGID, run, RDF, WRF)
      User(N)
   if (CapSetuid in PRV) and wildOr(U, N) .

  crl [setuid-unpriv] :
      setuid(PID, U, PRV)
      Process(PID, EUID, RUID, SUID, EGID, RGID, SGID, run, RDF, WRF)
   => Process(PID, U, RUID, SUID, EGID, RGID, SGID, run, RDF, WRF)
   if (not (CapSetuid in PRV)) and (U == RUID or U == SUID) .

  crl [seteuid-priv] :
      seteuid(PID, U, PRV)
      Process(PID, EUID, RUID, SUID, EGID, RGID, SGID, run, RDF, WRF)
      User(N)
   => Process(PID, N, RUID, SUID, EGID, RGID, SGID, run, RDF, WRF)
      User(N)
   if (CapSetuid in PRV) and wildOr(U, N) .

  crl [seteuid-unpriv] :
      seteuid(PID, U, PRV)
      Process(PID, EUID, RUID, SUID, EGID, RGID, SGID, run, RDF, WRF)
   => Process(PID, U, RUID, SUID, EGID, RGID, SGID, run, RDF, WRF)
   if (not (CapSetuid in PRV)) and (U == RUID or U == SUID) .

  crl [setresuid-priv] :
      setresuid(PID, R, E, S, PRV)
      Process(PID, EUID, RUID, SUID, EGID, RGID, SGID, run, RDF, WRF)
      User(R) User(E) User(S)
   => Process(PID, E, R, S, EGID, RGID, SGID, run, RDF, WRF)
      User(R) User(E) User(S)
   if CapSetuid in PRV .

  crl [setgid-priv] :
      setgid(PID, G, PRV)
      Process(PID, EUID, RUID, SUID, EGID, RGID, SGID, run, RDF, WRF)
      Group(N)
   => Process(PID, EUID, RUID, SUID, N, N, N, run, RDF, WRF)
      Group(N)
   if (CapSetgid in PRV) and wildOr(G, N) .

  crl [setgid-unpriv] :
      setgid(PID, G, PRV)
      Process(PID, EUID, RUID, SUID, EGID, RGID, SGID, run, RDF, WRF)
   => Process(PID, EUID, RUID, SUID, G, RGID, SGID, run, RDF, WRF)
   if (not (CapSetgid in PRV)) and (G == RGID or G == SGID) .

  crl [setegid-priv] :
      setegid(PID, G, PRV)
      Process(PID, EUID, RUID, SUID, EGID, RGID, SGID, run, RDF, WRF)
      Group(N)
   => Process(PID, EUID, RUID, SUID, N, RGID, SGID, run, RDF, WRF)
      Group(N)
   if (CapSetgid in PRV) and wildOr(G, N) .

  crl [setresgid-priv] :
      setresgid(PID, R, E, S, PRV)
      Process(PID, EUID, RUID, SUID, EGID, RGID, SGID, run, RDF, WRF)
      Group(R) Group(E) Group(S)
   => Process(PID, EUID, RUID, SUID, E, R, S, run, RDF, WRF)
      Group(R) Group(E) Group(S)
   if CapSetgid in PRV .

  *** kill consumes any permitted signal; only SIGKILL (9) and SIGTERM (15)
  *** terminate the target.
  crl [kill] :
      kill(PID, TGT, SIG, PRV)
      Process(PID, EUID, RUID, SUID, EGID, RGID, SGID, run, RDF, WRF)
      Process(N, TE, TR, TS, TEG, TRG, TSG, run, TRDF, TWRF)
   => Process(PID, EUID, RUID, SUID, EGID, RGID, SGID, run, RDF, WRF)
      Process(N, TE, TR, TS, TEG, TRG, TSG,
              if SIG == 9 or SIG == 15 then term else run fi, TRDF, TWRF)
   if wildOr(TGT, N)
      and ((CapKill in PRV) or EUID == TR or EUID == TS or RUID == TR or RUID == TS) .

  rl [socket] :
      socket(PID, SID, PRV)
      Process(PID, EUID, RUID, SUID, EGID, RGID, SGID, run, RDF, WRF)
   => Process(PID, EUID, RUID, SUID, EGID, RGID, SGID, run, RDF, WRF)
      Socket(SID, 0) .

  *** bind: an unbound socket takes a positive port, one below 1024 only
  *** with CapNetBindService; whether the port is taken is not checked.
  crl [bind] :
      bind(PID, SID, PORT, PRV)
      Process(PID, EUID, RUID, SUID, EGID, RGID, SGID, run, RDF, WRF)
      Socket(N, 0)
   => Process(PID, EUID, RUID, SUID, EGID, RGID, SGID, run, RDF, WRF)
      Socket(N, PORT)
   if wildOr(SID, N) and PORT > 0 and (PORT >= 1024 or CapNetBindService in PRV) .

  rl [connect] :
      connect(PID, SID, PORT, PRV)
      Process(PID, EUID, RUID, SUID, EGID, RGID, SGID, run, RDF, WRF)
      Socket(SID, N)
   => Process(PID, EUID, RUID, SUID, EGID, RGID, SGID, run, RDF, WRF)
      Socket(SID, N) .

  rl [cap-enter] :
      cap-enter(PID)
      Process(PID, EUID, RUID, SUID, EGID, RGID, SGID, run, RDF, WRF)
   => Process(PID, EUID, RUID, SUID, EGID, RGID, SGID, run, RDF, WRF)
      CapMode(PID) .

  rl [seq] :
      seq(N, M:Msg) Fence(N)
   => M:Msg Fence(N + 1) .

  rl [seq-skip] :
      seq(N, M:Msg) Fence(N)
   => Fence(N + 1) .

`
