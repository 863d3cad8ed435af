package panda

import (
	"strconv"
	"time"

	"amoebasim/internal/flip"
	"amoebasim/internal/metrics"
	"amoebasim/internal/model"
	"amoebasim/internal/proc"
	"amoebasim/internal/sim"
)

type uwireKind uint8

const (
	uREQ uwireKind = iota + 1
	uREP
	uACK
	ugREQ
	ugDATA
	ugBB
	ugACCEPT
	ugRETR
	ugSYNC
	ugSTATUS
	uRAW
)

// uwire is one Panda protocol message: header plus payload, carried by
// whichever link is underneath.
type uwire struct {
	kind    uwireKind
	gid     int // group id (group protocol kinds only)
	from    int
	seq     uint64
	ackSeq  uint64
	tmpID   uint64
	lo, hi  uint64
	payload any
	size    int
}

// RawHandler receives Panda system-layer messages (used by the Table 1
// unicast/multicast microbenchmarks). It runs in the receive daemon and
// must run to completion.
type RawHandler func(t *proc.Thread, from int, payload any, size int)

// systemHeaderBytes is the system-layer test-message header.
const systemHeaderBytes = 16

// link is the data path under Panda's protocols: it moves protocol
// messages between processors and wakes blocked callers. The RPC and
// group state machines exist once, in core, above it. Two links exist:
// the kernel's raw FLIP interface (User) and a user-mapped NIC queue
// pair (QP).
type link interface {
	// nextMsgID allocates the id of a new message (retransmissions reuse
	// the original's).
	nextMsgID() uint64
	// unicast sends w, with hdr protocol-header bytes, to processor dst.
	unicast(t *proc.Thread, dst, hdr int, w *uwire, msgID uint64)
	// multicast sends w to every holder of group gid, the sender included.
	multicast(t *proc.Thread, gid, hdr int, w *uwire, msgID uint64)
	// receiver returns a blocking receive over the frames match accepts
	// (nil: all). Each call consumes one frame, reassembles it in r, and
	// returns its message once complete (nil while fragments are
	// missing). ph is the service phase queue waits are attributed
	// against (PhaseSeqService for sequencer threads).
	receiver(match func(*uwire) bool, ph sim.PhaseID, r *flip.Reassembler) func(*proc.Thread) *uwire
	// wake resumes a thread blocked on a reply or delivery, from the
	// receive context t.
	wake(t, blocked *proc.Thread)
	// relocate drops any cached route to processor dst before an RPC
	// retransmission.
	relocate(dst int)
}

// linkTraits are a link's fixed properties: its Mode, how deeply the
// protocol stack nests over it, whether it pays the fragmentation
// layer's per-message charge, whether large group messages may take the
// BB method, and the names its threads and trace events carry.
type linkTraits struct {
	mode      Mode
	depth     int
	fragLayer bool
	bb        bool

	timer, daemon, sequencer string // thread names

	rpcReq, rpcDone, rpcFail, rpcAck, rpcUpcall, rpcServe, rpcRep string
	rpcRepFormat                                                  string
	grpSend, grpDlv, grpSeq                                       string
}

// core is one Panda protocol instance: the RPC and totally-ordered group
// state machines, the timer helper and the upcall dispatch, running over
// a link. User and QP embed it.
type core struct {
	id   int
	p    *proc.Processor
	m    *model.CostModel
	sim  *sim.Sim
	link link
	tr   *linkTraits

	noPiggyback bool
	fragCost    time.Duration // FragLayer on links that charge it, else 0

	reasm      *flip.Reassembler
	helper     *helper
	iface      *helper // interface-layer daemon (ablation), nil normally
	rpc        rpcProto
	grps       []*groupProto // indexed by gid; nil entries for groups not held
	rawHandler RawHandler

	mx *protoMetrics // nil when metrics are disabled
}

// protoMetrics bundles the instance's metric handles (labeled by
// processor).
type protoMetrics struct {
	rpcCalls        *metrics.Counter
	rpcRetrans      *metrics.Counter
	rpcUpcalls      *metrics.Counter
	rpcFailures     *metrics.Counter
	acksPiggybacked *metrics.Counter
	acksExplicit    *metrics.Counter
	rpcLatency      *metrics.Histogram
	reasmTimeouts   *metrics.Counter
	grpPBSends      *metrics.Counter
	grpBBSends      *metrics.Counter
	grpSendRetrans  *metrics.Counter
	grpDeliveries   *metrics.Counter
	grpRetransReqs  *metrics.Counter
}

// init builds the protocol state for processor p over link l, holding
// the given groups. The link's constructor finishes its own setup and
// then calls start.
func (u *core) init(p *proc.Processor, l link, tr *linkTraits, groups []GroupSpec) {
	u.id = p.ID()
	u.p = p
	u.m = p.Model()
	u.sim = p.Sim()
	u.link = l
	u.tr = tr
	if tr.fragLayer {
		u.fragCost = u.m.FragLayer
	}
	if reg := u.sim.Metrics(); reg != nil {
		lb := metrics.L("proc", p.Name())
		u.mx = &protoMetrics{
			rpcCalls:        reg.Counter("panda.rpc_calls", lb),
			rpcRetrans:      reg.Counter("panda.rpc_retransmissions", lb),
			rpcUpcalls:      reg.Counter("panda.rpc_upcalls", lb),
			rpcFailures:     reg.Counter("panda.rpc_failures", lb),
			acksPiggybacked: reg.Counter("panda.acks_piggybacked", lb),
			acksExplicit:    reg.Counter("panda.acks_explicit", lb),
			rpcLatency:      reg.Histogram("panda.rpc_latency_us", lb),
			reasmTimeouts:   reg.Counter("panda.reasm_timeouts", lb),
			grpPBSends:      reg.Counter("panda.grp_pb_sends", lb),
			grpBBSends:      reg.Counter("panda.grp_bb_sends", lb),
			grpSendRetrans:  reg.Counter("panda.grp_send_retrans", lb),
			grpDeliveries:   reg.Counter("panda.grp_deliveries", lb),
			grpRetransReqs:  reg.Counter("panda.grp_retrans_requests", lb),
		}
	}
	u.reasm = flip.NewReassembler(u.sim, u.m.RetransTimeout)
	if u.mx != nil {
		u.reasm.SetTimeoutCounter(u.mx.reasmTimeouts)
	}
	u.rpc.init(u)
	for _, gs := range groups {
		g := &groupProto{}
		g.init(u, gs)
		for gs.GID >= len(u.grps) {
			u.grps = append(u.grps, nil)
		}
		u.grps[gs.GID] = g
	}
}

// start creates the instance's threads: the timer helper, the optional
// interface-layer daemon, the receive daemon, and one sequencer thread
// per group this instance sequences.
func (u *core) start(interfaceDaemon bool) {
	u.helper = newHelper(u.p, u.tr.timer)
	if interfaceDaemon {
		u.iface = newHelper(u.p, "pan-iface")
	}
	u.p.NewThread(u.tr.daemon, proc.PrioDaemon, u.daemonLoop)
	for _, g := range u.grps {
		if g == nil || g.spec.Sequencer != u.id {
			continue
		}
		g.initSequencer()
		name := u.tr.sequencer
		if g.gid > 0 {
			name += "-g" + strconv.Itoa(g.gid)
		}
		seq := u.p.NewThread(name, proc.PrioDaemon, g.sequencerLoop)
		// Everything a sequencer thread does — protocol work, crossings,
		// dispatch — is sequencer service from the client's point of view.
		seq.SetPhaseOverride(sim.PhaseSeqService)
	}
}

// groupByGID returns the group with the given id, or nil when this
// instance does not hold it.
func (u *core) groupByGID(gid int) *groupProto {
	if gid < 0 || gid >= len(u.grps) {
		return nil
	}
	return u.grps[gid]
}

// ownsSeq reports whether this instance sequences any of its groups.
func (u *core) ownsSeq() bool {
	for _, g := range u.grps {
		if g != nil && g.spec.Sequencer == u.id {
			return true
		}
	}
	return false
}

// anyMember reports whether this instance is a member of any of its
// groups (false on a dedicated sequencer machine).
func (u *core) anyMember() bool {
	for _, g := range u.grps {
		if g != nil && g.isMember() {
			return true
		}
	}
	return false
}

// dedicated reports whether this instance runs only sequencer threads (a
// dedicated sequencer machine): its link drops member traffic so those
// threads keep their context loaded.
func (u *core) dedicated() bool { return u.ownsSeq() && !u.anyMember() }

// Mode reports which implementation this instance is.
func (u *core) Mode() Mode { return u.tr.mode }

// ID reports the processor id.
func (u *core) ID() int { return u.id }

// HandleRaw registers the system-layer message upcall.
func (u *core) HandleRaw(h RawHandler) { u.rawHandler = h }

// HandleRPC registers the RPC request upcall.
func (u *core) HandleRPC(h RPCHandler) { u.rpc.handler = h }

// HandleGroup registers the ordered group delivery upcall (shared by
// every group of the instance).
func (u *core) HandleGroup(h GroupHandler) {
	for _, g := range u.grps {
		if g != nil {
			g.handler = h
		}
	}
}

// SystemSend is the Panda system-layer primitive of Table 1: a message
// straight onto the link (unicast to a processor, or multicast to every
// instance of group 0).
func (u *core) SystemSend(t *proc.Thread, dest int, payload any, size int, multicast bool) {
	w := &uwire{kind: uRAW, from: u.id, payload: payload, size: size}
	t.Call(u.tr.depth)
	t.ChargeP(sim.PhaseFrag, u.fragCost)
	if multicast {
		u.link.multicast(t, 0, systemHeaderBytes, w, u.link.nextMsgID())
	} else {
		u.link.unicast(t, dest, systemHeaderBytes, w, u.link.nextMsgID())
	}
	t.Return(u.tr.depth)
}

// daemonLoop is the receive daemon: it takes frames from the link,
// reassembles them into messages in user space, and upcalls into the
// protocol handlers. Upcalls run to completion without intermediate
// thread switches.
func (u *core) daemonLoop(t *proc.Thread) {
	var filter func(*uwire) bool
	if u.ownsSeq() {
		// Sequencer traffic for owned groups is consumed directly by the
		// sequencer threads.
		filter = func(w *uwire) bool { return !u.ownsSeqTraffic(w) }
	}
	recv := u.link.receiver(filter, sim.PhaseProtoRecv, u.reasm)
	for {
		w := recv(t)
		t.Call(u.tr.depth)
		if w != nil {
			if u.iface != nil {
				// Ablation: relay the upcall through the interface-layer
				// daemon (one extra thread switch each way, as in
				// pre-continuation Panda).
				t.Syscall()
				t.Flush()
				u.iface.postFromThread(t, func(it *proc.Thread) {
					it.Call(u.tr.depth)
					u.dispatch(it, w)
					it.Return(u.tr.depth)
				})
			} else {
				u.dispatch(t, w)
			}
		}
		t.Return(u.tr.depth)
		// Drop the per-packet operation before blocking for the next one so
		// the fetch isn't misattributed to a finished operation.
		t.SetOp(0)
	}
}

func (u *core) dispatch(t *proc.Thread, w *uwire) {
	switch w.kind {
	case uREQ:
		u.rpc.handleREQ(t, w)
	case uREP:
		u.rpc.handleREP(t, w)
	case uACK:
		u.rpc.handleACK(t, w)
	case ugDATA, ugACCEPT, ugSYNC, ugBB:
		if g := u.groupByGID(w.gid); g != nil {
			g.memberHandle(t, w)
		}
	case uRAW:
		if u.rawHandler != nil {
			u.rawHandler(t, w.from, w.payload, w.size)
		}
	}
}

// seqTraffic reports whether w (nil for a foreign frame) is
// sequencer-bound group protocol traffic, and for which group.
func seqTraffic(w *uwire) (gid int, ok bool) {
	if w == nil {
		return 0, false
	}
	switch w.kind {
	case ugREQ, ugBB, ugRETR, ugSTATUS:
		return w.gid, true
	default:
		return 0, false
	}
}

// ownsSeqTraffic reports whether w is sequencer traffic for a group this
// instance sequences. A co-located shard must not steal other groups'
// sequencer traffic from the receive daemon.
func (u *core) ownsSeqTraffic(w *uwire) bool {
	gid, ok := seqTraffic(w)
	if !ok {
		return false
	}
	g := u.groupByGID(gid)
	return g != nil && g.spec.Sequencer == u.id
}

// helper is a protocol service thread that executes deferred actions
// (retransmissions, explicit acks, sync probes) scheduled by timers, which
// fire in driver context and therefore cannot issue syscalls themselves.
type helper struct {
	t   *proc.Thread
	sem proc.Semaphore
	q   []func(t *proc.Thread)
}

func newHelper(p *proc.Processor, name string) *helper {
	h := &helper{}
	h.t = p.NewThread(name, proc.PrioDaemon, h.loop)
	return h
}

func (h *helper) loop(t *proc.Thread) {
	for {
		h.sem.Down(t)
		fn := h.q[0]
		n := copy(h.q, h.q[1:])
		h.q[n] = nil // clear the vacated slot so the closure can be GC'd
		h.q = h.q[:n]
		fn(t)
	}
}

// post enqueues an action from driver context (a timer callback).
func (h *helper) post(fn func(t *proc.Thread)) {
	h.q = append(h.q, fn)
	h.sem.UpFromDriver()
}

// postFromThread enqueues an action from thread context.
func (h *helper) postFromThread(t *proc.Thread, fn func(t *proc.Thread)) {
	h.q = append(h.q, fn)
	h.sem.Up(t)
}
