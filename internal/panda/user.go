package panda

import (
	"amoebasim/internal/akernel"
	"amoebasim/internal/flip"
	"amoebasim/internal/proc"
	"amoebasim/internal/sim"
)

// pandaGroupAddr is the FLIP group address of Panda group 0; group g
// multicasts on pandaGroupAddr + g (see groupAddr).
const pandaGroupAddr flip.Address = 0xE000_0000_0000_0001

// groupAddr is the FLIP multicast address of Panda group gid.
func groupAddr(gid int) flip.Address { return pandaGroupAddr + flip.Address(gid) }

// pandaDepth models Panda's call nesting: "procedure calls in Panda are
// more deeply nested than in Amoeba", causing extra register-window
// overflow and underflow traps, especially around syscalls issued deep in
// the stack.
const pandaDepth = 6

// flipTraits describe Panda over the kernel's raw FLIP interface.
var flipTraits = linkTraits{
	mode: UserSpace, depth: pandaDepth, fragLayer: true, bb: true,
	timer: "pan-timer", daemon: "pan-daemon", sequencer: "pan-sequencer",
	rpcReq: "prpc.req", rpcDone: "prpc.done", rpcFail: "prpc.fail", rpcAck: "prpc.ack",
	rpcUpcall: "prpc.upcall", rpcServe: "prpc.serve", rpcRep: "prpc.rep",
	rpcRepFormat: "seq=%d size=%d (daemon signals client)",
	grpSend:      "pgrp.send", grpDlv: "pgrp.dlv", grpSeq: "pgrp.seq",
}

// UserConfig configures a user-space Panda instance.
type UserConfig struct {
	// Groups lists the communication groups this instance participates in
	// (as member, sequencer, or both). When nil, the legacy
	// Members/Sequencer/HasGroup fields below describe a single group with
	// GID 0.
	Groups []GroupSpec
	// Members lists the processor ids participating in group
	// communication (empty disables the group module). A dedicated
	// sequencer machine is NOT listed here. Ignored when Groups is set.
	Members []int
	// Sequencer is the processor id whose instance runs the sequencer
	// thread. It may be a member (the default setup) or a dedicated
	// machine outside Members (the paper's "User-space-dedicated" run).
	// Ignored when Groups is set.
	Sequencer int
	// HasGroup enables the group module even for non-members (the
	// dedicated sequencer machine needs it). Ignored when Groups is set.
	HasGroup bool
	// NoPiggyback disables piggybacking reply acknowledgements on the
	// next request (ablation: every reply gets an immediate explicit
	// acknowledgement message).
	NoPiggyback bool
	// InterfaceDaemon reproduces the pre-continuation Panda the paper
	// mentions in §3.2: protocol upcalls are relayed to a separate
	// interface-layer daemon thread (so handlers may block) instead of
	// running to completion in the system-layer receive daemon. The
	// paper measured that removing this thread "dropped the latency of
	// RPC and group messages with 300 µs".
	InterfaceDaemon bool
}

// User is the user-space Panda implementation: Panda's own RPC and
// totally-ordered group protocols running as a library on the kernel's
// raw FLIP interface. It is the FLIP link under the shared protocol core.
type User struct {
	core
	k *akernel.Kernel
}

var _ Transport = (*User)(nil)
var _ NonblockingSender = (*User)(nil)

// NewUser creates and starts a user-space Panda instance on kernel k.
func NewUser(k *akernel.Kernel, cfg UserConfig) *User {
	u := &User{k: k}
	specs := cfg.Groups
	if specs == nil && (len(cfg.Members) > 0 || cfg.HasGroup) {
		// Legacy single-group configuration.
		specs = []GroupSpec{{Members: cfg.Members, Sequencer: cfg.Sequencer}}
	}
	u.init(k.Processor(), u, &flipTraits, specs)
	u.noPiggyback = cfg.NoPiggyback
	k.RawRegister()
	for _, g := range u.grps {
		if g != nil {
			k.RawJoinGroup(groupAddr(g.gid))
		}
	}
	u.start(cfg.InterfaceDaemon)
	if u.ownsSeq() {
		// Time a packet spends queued for a sequencer thread is sequencer
		// queueing, not ordinary receive-daemon queueing.
		k.RawWaitPhase(func(pk *flip.Packet) sim.PhaseID {
			if u.ownsSeqTraffic(packetWire(pk)) {
				return sim.PhaseSeqQueue
			}
			return sim.PhaseRecvQueue
		})
	}
	if u.dedicated() {
		// Dedicated sequencer machine: drop member traffic (ordered data,
		// accepts, syncs) in the kernel so only the sequencer threads ever
		// run — keeping their context loaded (warm dispatch, the paper's
		// 60 µs instead of 110 µs).
		k.RawDiscard(func(pk *flip.Packet) bool { return !u.ownsSeqTraffic(packetWire(pk)) })
	}
	return u
}

// GroupSendNB is the §6 extension: a totally-ordered broadcast that does
// not wait for the sequencer round trip.
func (u *User) GroupSendNB(t *proc.Thread, payload any, size int) error {
	g := u.groupByGID(0)
	if g == nil {
		return errNoGroup
	}
	return g.send(t, payload, size, false)
}

// packetWire returns the protocol message pk carries, or nil for a
// foreign payload.
func packetWire(pk *flip.Packet) *uwire {
	w, _ := pk.Payload.(*uwire)
	return w
}

func (u *User) nextMsgID() uint64 { return u.k.RawNextMsgID() }

func (u *User) unicast(t *proc.Thread, dst, hdr int, w *uwire, msgID uint64) {
	u.k.RawSend(t, akernel.RawAddress(dst), msgID, hdr, w.size, w, false)
}

func (u *User) multicast(t *proc.Thread, gid, hdr int, w *uwire, msgID uint64) {
	u.k.RawSend(t, groupAddr(gid), msgID, hdr, w.size, w, true)
}

// receiver fetches packets from the kernel with a system call and a copy
// to user space, then reassembles them there. The kernel's raw-queue
// classifier (installed by NewUser) attributes queue waits, so ph is
// unused.
func (u *User) receiver(match func(*uwire) bool, _ sim.PhaseID, r *flip.Reassembler) func(*proc.Thread) *uwire {
	var filter func(*flip.Packet) bool
	if match != nil {
		filter = func(pk *flip.Packet) bool { return match(packetWire(pk)) }
	}
	return func(t *proc.Thread) *uwire {
		pk := u.k.RawReceiveMatch(t, filter)
		done := r.Add(pk)
		w := packetWire(pk)
		// The wire struct is extracted; recycle the packet shell.
		u.k.RawRelease(pk)
		if !done {
			return nil
		}
		return w
	}
}

// wake signals the blocked thread. Threads are kernel-level, so waking
// one is a system call issued deep in the Panda stack — the source of the
// extra crossings and underflow traps the paper measures.
func (u *User) wake(t, blocked *proc.Thread) {
	t.Syscall()
	t.Flush()
	blocked.Unblock()
}

// relocate forces a re-locate: after an unanswered request the kernel's
// cached route to the server may be stale.
func (u *User) relocate(dst int) { u.k.RawInvalidateRoute(akernel.RawAddress(dst)) }
