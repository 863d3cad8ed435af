package panda

import "testing"

// TestSeqTrafficClassifierZeroAlloc: the receive filters run on every
// frame — the kernel-bypass NIC discard filter on a dedicated sequencer
// machine, the sequencer threads' match on both links — so the
// classifier must be free.
func TestSeqTrafficClassifierZeroAlloc(t *testing.T) {
	seq := &uwire{kind: ugREQ, gid: 3}
	data := &uwire{kind: ugDATA, gid: 3}
	avg := testing.AllocsPerRun(1000, func() {
		if gid, ok := seqTraffic(seq); !ok || gid != 3 {
			t.Fatal("sequencer-bound frame not classified")
		}
		if _, ok := seqTraffic(data); ok {
			t.Fatal("data frame misclassified as sequencer-bound")
		}
		if _, ok := seqTraffic(nil); ok {
			t.Fatal("foreign frame misclassified as sequencer-bound")
		}
	})
	if avg != 0 {
		t.Fatalf("seqTraffic allocates %.2f objects/op, budget is 0", avg)
	}
}

// TestBypassNotNonblockingSender: the Orca runtime turns on nonblocking
// broadcasts whenever a transport implements NonblockingSender, so the
// kernel-bypass transport gaining GroupSendNB by accident would silently
// shift its Table 3 rows.
func TestBypassNotNonblockingSender(t *testing.T) {
	if _, ok := any(&QP{}).(NonblockingSender); ok {
		t.Fatal("*QP implements NonblockingSender; its Table 3 rows assume blocking broadcasts")
	}
}
