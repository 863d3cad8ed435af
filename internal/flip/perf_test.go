package flip

import (
	"testing"
	"time"

	"amoebasim/internal/sim"
)

// ---- Bounded pending-locate queue ----

// TestPendingLocateQueueBounded: the per-address pending queue holds at
// most MaxPendingLocate messages; overflow evicts the oldest message
// deterministically and counts it as dropped.
func TestPendingLocateQueueBounded(t *testing.T) {
	r := newRig(t, 2)
	const addr Address = 777 // never registered: the locate stays pending
	st := r.stacks[0]
	const extra = 5
	firstID := st.msgSeq + 1
	for i := 0; i < MaxPendingLocate+extra; i++ {
		st.SendFromInterrupt(Message{
			Src: 1, Dst: addr, Proto: ProtoSystem,
			MsgID: st.NextMsgID(), Size: 10,
		})
	}
	// Long enough for every send to reach the queue, short enough that
	// the locate has not yet given up.
	r.sim.RunUntil(sim.Time(2 * time.Millisecond))
	q := st.pending[addr]
	if len(q) != MaxPendingLocate {
		t.Fatalf("pending queue holds %d messages, cap is %d", len(q), MaxPendingLocate)
	}
	if st.DroppedPending != extra {
		t.Fatalf("DroppedPending = %d, want %d", st.DroppedPending, extra)
	}
	// Oldest-drop: the survivors are exactly the newest MaxPendingLocate.
	if want := firstID + extra; q[0].MsgID != want {
		t.Fatalf("oldest surviving MsgID = %d, want %d (oldest-drop order)", q[0].MsgID, want)
	}
	// The failed locate still cleans up everything it queued.
	r.sim.Run()
	if len(st.pending) != 0 {
		t.Fatal("pending queue not cleaned up after locate failure")
	}
}

// ---- Zero-alloc budgets (enforced in CI) ----

// TestPacketPoolZeroAlloc: the allocate/release cycle of a pooled packet
// is allocation-free in steady state.
func TestPacketPoolZeroAlloc(t *testing.T) {
	r := newRig(t, 1)
	st := r.stacks[0]
	cycle := func() {
		pk := st.allocPacket()
		pk.poolable = true
		pk.refs = 1
		st.ReleasePacket(pk)
	}
	cycle() // mint the pooled packet
	if avg := testing.AllocsPerRun(1000, cycle); avg != 0 {
		t.Fatalf("packet pool cycle allocates %.2f objects/op, budget is 0", avg)
	}
}

// TestReassemblerStateReuseZeroAlloc: completing a multi-fragment
// message recycles its bitset state, so a steady stream of reassemblies
// allocates nothing.
func TestReassemblerStateReuseZeroAlloc(t *testing.T) {
	s := sim.New()
	re := NewReassembler(s, time.Hour)
	pks := [3]*Packet{}
	for i := range pks {
		pks[i] = &Packet{Src: 1, MsgID: 1, Frag: i, NFrags: 3}
	}
	feed := func() {
		for _, pk := range pks {
			re.Add(pk)
		}
	}
	feed() // mint the pooled state
	if avg := testing.AllocsPerRun(1000, feed); avg != 0 {
		t.Fatalf("reassembly steady state allocates %.2f objects/msg, budget is 0", avg)
	}
}

// TestReassemblerSingleFragmentZeroAlloc: the steady-state receive path
// of the kernel-bypass queue pair — one frame per message, by far the
// common case at the paper's sizes — goes through AddFrag and must not
// touch the partial-message pool or allocate at all.
func TestReassemblerSingleFragmentZeroAlloc(t *testing.T) {
	s := sim.New()
	re := NewReassembler(s, 500*time.Millisecond)
	avg := testing.AllocsPerRun(1000, func() {
		if !re.AddFrag(1, 7, 0, 1) {
			t.Fatal("single-fragment message did not complete")
		}
	})
	if avg != 0 {
		t.Fatalf("single-fragment add allocates %.2f objects/op, budget is 0", avg)
	}
	if re.Pending() != 0 {
		t.Fatalf("single-fragment messages left %d partials", re.Pending())
	}
}

// unicastSteadyStateBudget is the allocation budget for one complete
// warm-routed unicast send+receive. The packet itself is pooled; the
// residual (6 objects measured) is the event closures of the ether and
// interrupt layers.
const unicastSteadyStateBudget = 10

// TestUnicastSteadyStateBudget: a warm-routed single-fragment unicast
// from send to delivered handler stays within the allocation budget —
// the pooled packet and batched delivery keep the per-message garbage to
// the event closures.
func TestUnicastSteadyStateBudget(t *testing.T) {
	r := newRig(t, 2)
	const addr Address = 9
	r.stacks[1].Register(addr)
	r.stacks[1].Handle(ProtoSystem, func(pk *Packet) {})
	WarmRoutes(r.stacks)
	send := func() {
		r.stacks[0].SendFromInterrupt(Message{
			Src: 1, Dst: addr, Proto: ProtoSystem,
			MsgID: r.stacks[0].NextMsgID(), Size: 128,
		})
		r.sim.Run()
	}
	send() // warm pools and queues
	if avg := testing.AllocsPerRun(200, send); avg > unicastSteadyStateBudget {
		t.Fatalf("warm unicast allocates %.2f objects/msg, budget is %d",
			avg, unicastSteadyStateBudget)
	}
}

// ---- Micro-benchmarks ----

// BenchmarkPacketPool measures the pooled packet allocate/release cycle.
func BenchmarkPacketPool(b *testing.B) {
	r := newRig(b, 1)
	st := r.stacks[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pk := st.allocPacket()
		pk.poolable = true
		pk.refs = 1
		st.ReleasePacket(pk)
	}
}

// BenchmarkUnicastSteadyState measures one warm-routed unicast message
// end to end (send, wire, receive interrupt, dispatch, recycle).
func BenchmarkUnicastSteadyState(b *testing.B) {
	r := newRig(b, 2)
	const addr Address = 9
	r.stacks[1].Register(addr)
	r.stacks[1].Handle(ProtoSystem, func(pk *Packet) {})
	WarmRoutes(r.stacks)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.stacks[0].SendFromInterrupt(Message{
			Src: 1, Dst: addr, Proto: ProtoSystem,
			MsgID: r.stacks[0].NextMsgID(), Size: 128,
		})
		r.sim.Run()
	}
}
