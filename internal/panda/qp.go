package panda

import (
	"fmt"
	"strings"

	"amoebasim/internal/ether"
	"amoebasim/internal/flip"
	"amoebasim/internal/proc"
	"amoebasim/internal/sim"
)

// bypassDepth models the thin user-level library: unlike Panda-over-FLIP's
// deeply nested stack (pandaDepth 6, trapping on every syscall), the
// bypass fast path is two frames deep — shallow enough that the SPARC's
// six register windows absorb it without overflow or underflow traps,
// which is why the crossing phase of a bypass operation is exactly zero.
const bypassDepth = 2

// qpTraits describe Panda over a user-mapped NIC queue pair. The NIC
// gather-reads the application buffer per fragment, so there is no
// fragmentation-layer copy to charge. Group sends take the PB method at
// every size: the BB method's reason to exist — avoiding a second copy
// of large messages through the sequencer — does not arise without
// copies.
var qpTraits = linkTraits{
	mode: Bypass, depth: bypassDepth,
	timer: "qp-timer", daemon: "qp-consumer", sequencer: "qp-sequencer",
	rpcReq: "brpc.req", rpcDone: "brpc.done", rpcFail: "brpc.fail", rpcAck: "brpc.ack",
	rpcUpcall: "brpc.upcall", rpcServe: "brpc.serve", rpcRep: "brpc.rep",
	rpcRepFormat: "seq=%d size=%d (consumer resumes client)",
	grpSend:      "bgrp.send", grpDlv: "bgrp.dlv", grpSeq: "bgrp.seq",
}

// Dispatch selects how the kernel-bypass consumer learns about new
// completion-queue entries — the poll/interrupt trade the transport
// exposes as a first-class knob (-dispatch poll|interrupt|hybrid).
type Dispatch int

const (
	// Poll spins on the completion queue: the consumer burns CPU checking
	// for entries (up to model.PollSpinBudget per idle gap) in exchange
	// for picking a packet up without interrupt entry or an
	// interrupt-to-thread dispatch.
	Poll Dispatch = iota + 1
	// Interrupt arms the NIC interrupt and parks: no CPU burned while
	// idle, but every pickup pays interrupt entry plus the paper's
	// interrupt-to-thread dispatch (110 µs cold, 60 µs warm).
	Interrupt
	// Hybrid polls while traffic is flowing and falls back to the
	// interrupt path once the queue has been idle longer than
	// model.PollSpinBudget — the adaptive scheme modern user-level NIC
	// runtimes use.
	Hybrid
)

func (d Dispatch) String() string {
	switch d {
	case Poll:
		return "poll"
	case Interrupt:
		return "interrupt"
	case Hybrid:
		return "hybrid"
	default:
		return "unknown"
	}
}

// ParseDispatch resolves a dispatch-mode name. The empty string defaults
// to Poll, the canonical kernel-bypass configuration.
func ParseDispatch(s string) (Dispatch, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "poll":
		return Poll, nil
	case "interrupt", "intr":
		return Interrupt, nil
	case "hybrid":
		return Hybrid, nil
	default:
		return 0, fmt.Errorf("panda: unknown dispatch mode %q (poll, interrupt or hybrid)", s)
	}
}

// QPConfig configures one kernel-bypass instance.
type QPConfig struct {
	// NICBase is the NIC id of processor 0's bypass queue pair; processor
	// i's QP answers at NICBase + i (static routing, no locate).
	NICBase int
	// Groups lists the communication groups this instance participates in
	// (as member, sequencer, or both).
	Groups []GroupSpec
	// Dispatch selects the completion-queue dispatch mode (zero: Poll).
	Dispatch Dispatch
}

// QP is the kernel-bypass Panda implementation: the same RPC and group
// protocols as User, over a user-mapped NIC queue pair instead of the
// kernel's raw FLIP interface. Sends post descriptors pointing straight
// at application buffers and ring a doorbell — no syscall crossing, no
// kernel copy, no fragmentation-layer copy. Receives are consumed from a
// completion queue by polling, by a NIC interrupt, or by a hybrid of the
// two (see Dispatch). Routes are static (queue pairs are pre-established
// to every peer), so there is no locate traffic either.
type QP struct {
	core
	nic     *ether.NIC
	nicBase int
	disp    Dispatch
	seqOnly bool // a dedicated sequencer machine (see core.dedicated)
	rxq     []rxEntry
	waiters []*waiter
	msgSeq  uint64
}

var _ Transport = (*QP)(nil)

// qframe is one wire frame of a message: the NIC gather-reads the payload
// straight out of the application buffer (w.payload is carried by
// reference), so fragmentation never copies.
type qframe struct {
	w      *uwire
	src    int // sender processor id
	dst    int // destination processor id, or -1 for multicast
	msgID  uint64
	frag   int
	nfrags int
	length int
	hdr    int // protocol header bytes (first fragment only)
	op     uint64
}

// rxEntry is one completion-queue entry plus its arrival instant, so the
// time it waits for the consumer can be causally attributed.
type rxEntry struct {
	f  *qframe
	at sim.Time
}

// waiter is a thread parked on the completion queue.
type waiter struct {
	t      *proc.Thread
	match  func(*uwire) bool
	ph     sim.PhaseID // service phase (PhaseSeqService for sequencer threads)
	at     sim.Time    // park instant, for spin accounting
	f      *qframe
	polled bool // woken on the poll path (charge the poll probe on resume)
}

// NewQP creates and starts a kernel-bypass instance on processor p,
// attaching its queue-pair NIC to the given Ethernet segment.
func NewQP(p *proc.Processor, net *ether.Network, segment int, cfg QPConfig) (*QP, error) {
	q := &QP{nicBase: cfg.NICBase, disp: cfg.Dispatch}
	if q.disp == 0 {
		q.disp = Poll
	}
	nic, err := net.AddNIC(segment, q.onFrame)
	if err != nil {
		return nil, err
	}
	q.nic = nic
	q.init(p, q, &qpTraits, cfg.Groups)
	// A dedicated sequencer machine runs no application threads: pickups
	// never pay the shared-machine dispatch cost, and the NIC filter drops
	// member traffic so only the sequencer threads ever run, keeping their
	// context loaded (the warm-dispatch / direct-resume regime).
	q.seqOnly = q.dedicated()
	q.start(false)
	return q, nil
}

func (q *QP) nextMsgID() uint64 {
	q.msgSeq++
	return q.msgSeq
}

func (q *QP) unicast(t *proc.Thread, dst, hdr int, w *uwire, msgID uint64) {
	q.post(t, dst, hdr, w, msgID)
}

// multicast reaches every queue pair on the wire; the steering table of
// each receiving QP drops groups it does not hold (see deliver).
func (q *QP) multicast(t *proc.Thread, _, hdr int, w *uwire, msgID uint64) {
	q.post(t, -1, hdr, w, msgID)
}

// wake hands the processor straight to the blocked thread — a direct
// resume, no kernel crossing.
func (q *QP) wake(t, blocked *proc.Thread) {
	t.Flush()
	blocked.UnblockDirect()
}

// relocate is a no-op: queue pairs are pre-established, so a timeout
// retransmits directly.
func (q *QP) relocate(int) {}

// ---- Send path ----

// post transmits a message to processor dst, or to every queue pair when
// dst is -1: per fragment, build a descriptor pointing at the application
// buffer (no copy — the NIC gather-reads it), ring the doorbell, and hand
// the frame to the wire. No syscall, no kernel layer.
func (q *QP) post(t *proc.Thread, dst int, hdr int, w *uwire, msgID uint64) {
	cap0 := q.m.MTU - q.m.BypassHeaderBytes
	n := 1
	if w.size > 0 {
		n = (w.size + cap0 - 1) / cap0
	}
	off := 0
	for i := 0; i < n; i++ {
		length := w.size - off
		if length > cap0 {
			length = cap0
		}
		f := &qframe{
			w: w, src: q.id, dst: dst, msgID: msgID,
			frag: i, nfrags: n, length: length, op: t.Op(),
		}
		if i == 0 {
			f.hdr = hdr
		}
		t.ChargeP(sim.PhaseProtoSend, q.m.BypassTxPacket)
		t.ChargeP(sim.PhaseDoorbell, q.m.DoorbellWrite)
		t.Flush()
		size := q.m.BypassHeaderBytes + f.hdr + f.length
		switch {
		case dst < 0:
			q.nic.Send(ether.Frame{Dst: ether.Broadcast, Size: size, Payload: f, Op: f.op})
			// The QP loops a multicast descriptor back to the local
			// completion queue (the wire excludes the sending station).
			f := f
			q.sim.Schedule(0, func() { q.deliver(f) })
		case dst == q.id:
			// Loopback queue pair: straight to the local completion queue
			// without touching the wire.
			f := f
			q.sim.Schedule(0, func() { q.deliver(f) })
		default:
			q.nic.Send(ether.Frame{Dst: q.nicBase + dst, Size: size, Payload: f, Op: f.op})
		}
		off += length
	}
}

// ---- Receive path ----

// onFrame is the NIC receive upcall: the device DMA-writes the fragment
// into a posted receive buffer and appends a completion-queue entry. No
// CPU cost accrues until a consumer picks the entry up.
func (q *QP) onFrame(fr ether.Frame) {
	f, ok := fr.Payload.(*qframe)
	if !ok {
		return // foreign (FLIP) traffic sharing the wire
	}
	q.deliver(f)
}

// deliver routes one completion-queue entry: straight to a matching
// parked consumer (waking it per the dispatch mode), or onto the queue.
// Runs in driver context.
func (q *QP) deliver(f *qframe) {
	if q.seqOnly && !q.ownsSeqTraffic(f.w) {
		return
	}
	if f.dst < 0 {
		// Multicast: group data for a group this instance does not hold is
		// filtered by the QP's steering table.
		if g := f.w.gid; f.w.kind != uRAW && q.groupByGID(g) == nil {
			return
		}
	}
	for i, w := range q.waiters {
		if w.match != nil && !w.match(f.w) {
			continue
		}
		last := len(q.waiters) - 1
		copy(q.waiters[i:], q.waiters[i+1:])
		q.waiters[last] = nil
		q.waiters = q.waiters[:last]
		w.f = f
		q.resume(w, f)
		return
	}
	q.rxq = append(q.rxq, rxEntry{f: f, at: q.sim.Now()})
}

// resume wakes a parked consumer according to the dispatch mode.
//
// Poll: the consumer was spinning on the completion queue — the idle gap
// (capped at PollSpinBudget) is real CPU burned on this processor, and the
// pickup itself needs no interrupt: a direct resume (free when the
// context is still loaded, one context switch when an application thread
// ran in between).
//
// Interrupt: the NIC raises an interrupt; the consumer is dispatched out
// of the handler with the paper's interrupt-dispatch cost (110 µs cold,
// 60 µs warm).
//
// Hybrid: poll semantics while the idle gap is within PollSpinBudget;
// past it the consumer has parked for real with the interrupt armed —
// it pays the full spin budget it burned before parking plus the
// interrupt path. The choice is a pure function of event times, so runs
// are deterministic.
func (q *QP) resume(w *waiter, f *qframe) {
	now := q.sim.Now()
	gap := now.Sub(w.at)
	poll := q.disp == Poll || (q.disp == Hybrid && gap <= q.m.PollSpinBudget)
	if poll {
		spin := gap
		if spin > q.m.PollSpinBudget {
			spin = q.m.PollSpinBudget
		}
		q.p.AddSpin(spin)
		w.polled = true
		w.t.SetOp(f.op)
		w.t.UnblockDirect()
		return
	}
	if q.disp == Hybrid {
		q.p.AddSpin(q.m.PollSpinBudget) // spun out the budget before parking
	}
	w.t.SetOp(f.op)
	q.p.InterruptTagged(q.m.IntrEntry, f.op, w.ph, func() { w.t.Unblock() })
}

// receiver consumes completion-queue entries: no fetch syscall and no
// kernel-to-user copy.
func (q *QP) receiver(match func(*uwire) bool, ph sim.PhaseID, r *flip.Reassembler) func(*proc.Thread) *uwire {
	return func(t *proc.Thread) *uwire {
		f := q.receive(t, match, ph)
		if !r.AddFrag(flip.Address(f.src), f.msgID, f.frag, f.nfrags) {
			return nil
		}
		return f.w
	}
}

// receive blocks t until a completion-queue entry satisfying match (nil:
// any) is available, then consumes it. ph is the service phase queue
// waits are attributed against (PhaseSeqService for sequencer threads).
func (q *QP) receive(t *proc.Thread, match func(*uwire) bool, ph sim.PhaseID) *qframe {
	var f *qframe
	for i, e := range q.rxq {
		if match == nil || match(e.f.w) {
			f = e.f
			q.sim.CausalSpan(f.op, waitPhaseFor(ph), e.at, q.sim.Now())
			last := len(q.rxq) - 1
			copy(q.rxq[i:], q.rxq[i+1:])
			q.rxq[last] = rxEntry{}
			q.rxq = q.rxq[:last]
			break
		}
	}
	if f == nil {
		w := &waiter{t: t, match: match, ph: ph, at: q.sim.Now()}
		q.waiters = append(q.waiters, w)
		t.Block()
		f = w.f
		if w.polled {
			t.ChargeP(sim.PhasePollSpin, q.m.PollCheck)
		}
	} else {
		// Backlog pickup: the consumer stayed runnable between entries. On
		// a shared machine each new message pays the time-sharing
		// arbitration cost of running the QP consumer next to application
		// threads — the price the kernel-space column avoids by processing
		// at interrupt level; a dedicated machine pays nothing. Later
		// fragments of the same message ride the burst for free: the
		// consumer already holds the processor while it streams them.
		if !q.seqOnly && f.frag == 0 {
			t.ChargeP(sim.PhaseSched, q.m.BypassSharedDispatch)
		}
		if q.disp != Interrupt {
			t.ChargeP(sim.PhasePollSpin, q.m.PollCheck)
		}
	}
	t.SetOp(f.op)
	t.ChargeP(sim.PhaseProtoRecv, q.m.BypassRxPacket)
	return f
}

// waitPhaseFor maps a service phase to the phase its queue wait belongs
// to: waiting for the sequencer is sequencer queueing, everything else is
// receive queueing.
func waitPhaseFor(ph sim.PhaseID) sim.PhaseID {
	if ph == sim.PhaseSeqService {
		return sim.PhaseSeqQueue
	}
	return sim.PhaseRecvQueue
}
