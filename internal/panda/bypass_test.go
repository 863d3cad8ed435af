package panda_test

import (
	"testing"
	"time"

	"amoebasim/internal/cluster"
	"amoebasim/internal/panda"
	"amoebasim/internal/proc"
	"amoebasim/internal/sim"
)

func newPool(t *testing.T, cfg cluster.Config) *cluster.Cluster {
	t.Helper()
	if cfg.Mode == 0 {
		cfg.Mode = panda.Bypass
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	c, err := cluster.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Shutdown)
	return c
}

// rpcRoundTrip runs rounds pingpong RPCs and reports the per-call latency.
func rpcRoundTrip(t *testing.T, cfg cluster.Config, rounds int) time.Duration {
	t.Helper()
	c := newPool(t, cfg)
	srv := c.Transports[0]
	srv.HandleRPC(func(th *proc.Thread, ctx *panda.RPCContext, req any, sz int) {
		srv.Reply(th, ctx, nil, 0)
	})
	var total time.Duration
	c.Procs[1].NewThread("client", proc.PrioNormal, func(th *proc.Thread) {
		if _, _, err := c.Transports[1].Call(th, 0, nil, 1024); err != nil {
			t.Errorf("warmup call: %v", err)
			return
		}
		start := c.Sim.Now()
		for i := 0; i < rounds; i++ {
			if _, _, err := c.Transports[1].Call(th, 0, nil, 1024); err != nil {
				t.Errorf("call %d: %v", i, err)
				return
			}
		}
		total = c.Sim.Now().Sub(start)
	})
	c.Run()
	if total == 0 {
		t.Fatal("rpc pingpong never completed")
	}
	return total / time.Duration(rounds)
}

func TestBypassRPCRoundTrip(t *testing.T) {
	d := rpcRoundTrip(t, cluster.Config{Procs: 2}, 10)
	if d <= 0 || d > 5*time.Millisecond {
		t.Fatalf("rpc latency = %v, implausible", d)
	}
}

func TestBypassRPCMultiFragment(t *testing.T) {
	c := newPool(t, cluster.Config{Procs: 2})
	srv := c.Transports[0]
	var got int
	srv.HandleRPC(func(th *proc.Thread, ctx *panda.RPCContext, req any, sz int) {
		got = sz
		srv.Reply(th, ctx, req, sz)
	})
	done := false
	c.Procs[1].NewThread("client", proc.PrioNormal, func(th *proc.Thread) {
		rep, sz, err := c.Transports[1].Call(th, 0, "big", 16000)
		if err != nil {
			t.Errorf("call: %v", err)
			return
		}
		if rep != "big" || sz != 16000 {
			t.Errorf("reply = %v/%d, want big/16000", rep, sz)
		}
		done = true
	})
	c.Run()
	if !done || got != 16000 {
		t.Fatalf("done=%v server saw %d bytes, want 16000", done, got)
	}
}

// groupLatency measures the blocking GroupSend round trip from a
// non-sequencer member.
func groupLatency(t *testing.T, cfg cluster.Config, rounds int) time.Duration {
	t.Helper()
	cfg.Group = true
	c := newPool(t, cfg)
	var total time.Duration
	tr := c.Transports[1]
	c.Procs[1].NewThread("sender", proc.PrioNormal, func(th *proc.Thread) {
		if err := tr.GroupSend(th, nil, 1024); err != nil {
			t.Errorf("warmup group send: %v", err)
			return
		}
		start := c.Sim.Now()
		for i := 0; i < rounds; i++ {
			if err := tr.GroupSend(th, nil, 1024); err != nil {
				t.Errorf("group send %d: %v", i, err)
				return
			}
		}
		total = c.Sim.Now().Sub(start)
	})
	c.Run()
	if total == 0 {
		t.Fatal("group send never completed")
	}
	return total / time.Duration(rounds)
}

func TestBypassGroupSendTotalOrder(t *testing.T) {
	const members = 4
	const perSender = 20
	c := newPool(t, cluster.Config{Procs: members, Group: true})
	orders := make([][]uint64, members)
	for i := 0; i < members; i++ {
		i := i
		c.Transports[i].HandleGroup(func(th *proc.Thread, sender int, seqno uint64, payload any, sz int) {
			orders[i] = append(orders[i], seqno)
		})
	}
	for s := 1; s < members; s++ {
		tr := c.Transports[s]
		c.Procs[s].NewThread("sender", proc.PrioNormal, func(th *proc.Thread) {
			for i := 0; i < perSender; i++ {
				if err := tr.GroupSend(th, nil, 512); err != nil {
					t.Errorf("sender %d: %v", tr.ID(), err)
					return
				}
			}
		})
	}
	c.Run()
	want := (members - 1) * perSender
	for i, got := range orders {
		if len(got) != want {
			t.Fatalf("member %d delivered %d messages, want %d", i, len(got), want)
		}
		for j, s := range got {
			if s != uint64(j+1) {
				t.Fatalf("member %d delivery %d has seqno %d (not total order)", i, j, s)
			}
		}
	}
}

func TestBypassGroupSendDedicatedSequencer(t *testing.T) {
	d := groupLatency(t, cluster.Config{Procs: 2, DedicatedSequencer: true}, 10)
	if d <= 0 || d > 5*time.Millisecond {
		t.Fatalf("group latency = %v, implausible", d)
	}
}

// TestBypassFasterThanUserSpace is the bypass column's core shape assertion:
// eliminating the syscall crossings, kernel copies and FLIP processing
// must put bypass unicast RPC latency strictly below the user-space
// implementation at every Table 1 size.
func TestBypassFasterThanUserSpace(t *testing.T) {
	for _, size := range []int{0, 1024, 4096} {
		var lat [2]time.Duration
		for i, mode := range []panda.Mode{panda.Bypass, panda.UserSpace} {
			c := newPool(t, cluster.Config{Procs: 2, Mode: mode})
			srv := c.Transports[0]
			srv.HandleRPC(func(th *proc.Thread, ctx *panda.RPCContext, req any, sz int) {
				srv.Reply(th, ctx, nil, 0)
			})
			var total time.Duration
			size := size
			c.Procs[1].NewThread("client", proc.PrioNormal, func(th *proc.Thread) {
				if _, _, err := c.Transports[1].Call(th, 0, nil, size); err != nil {
					return
				}
				start := c.Sim.Now()
				for r := 0; r < 10; r++ {
					if _, _, err := c.Transports[1].Call(th, 0, nil, size); err != nil {
						return
					}
				}
				total = c.Sim.Now().Sub(start)
			})
			c.Run()
			if total == 0 {
				t.Fatalf("%v pingpong at %dB never completed", mode, size)
			}
			lat[i] = total / 10
		}
		if lat[0] >= lat[1] {
			t.Errorf("size %d: bypass rpc %v not below user-space %v", size, lat[0], lat[1])
		}
	}
}

// TestPollBeatsInterruptLatency asserts the dispatch-mode ordering: a
// poll-mode pickup skips interrupt entry and the interrupt-to-thread
// dispatch, so per-op latency must be strictly lower than interrupt mode;
// hybrid under a latency-bound pingpong... parks past the budget, so it
// pays the interrupt path too and must not beat interrupt by more than
// the budgeted spin.
func TestPollBeatsInterruptLatency(t *testing.T) {
	poll := rpcRoundTrip(t, cluster.Config{Procs: 2, Dispatch: panda.Poll}, 10)
	intr := rpcRoundTrip(t, cluster.Config{Procs: 2, Dispatch: panda.Interrupt}, 10)
	if poll >= intr {
		t.Fatalf("poll rpc %v not below interrupt %v", poll, intr)
	}
	gpoll := groupLatency(t, cluster.Config{Procs: 2, Dispatch: panda.Poll}, 10)
	gintr := groupLatency(t, cluster.Config{Procs: 2, Dispatch: panda.Interrupt}, 10)
	if gpoll >= gintr {
		t.Fatalf("poll group %v not below interrupt %v", gpoll, gintr)
	}
}

// TestPollChargesOccupancy asserts that poll-mode pickups burn processor
// time: the pool's aggregate spin time must be positive in poll mode,
// zero in interrupt mode, and occupancy must reflect the difference.
func TestPollChargesOccupancy(t *testing.T) {
	run := func(d panda.Dispatch) (time.Duration, float64) {
		c := newPool(t, cluster.Config{Procs: 2, Dispatch: d})
		srv := c.Transports[0]
		srv.HandleRPC(func(th *proc.Thread, ctx *panda.RPCContext, req any, sz int) {
			srv.Reply(th, ctx, nil, 0)
		})
		start0 := c.Procs[0].Stats()
		var window time.Duration
		c.Procs[1].NewThread("client", proc.PrioNormal, func(th *proc.Thread) {
			begin := c.Sim.Now()
			for i := 0; i < 50; i++ {
				if _, _, err := c.Transports[1].Call(th, 0, nil, 256); err != nil {
					return
				}
			}
			window = c.Sim.Now().Sub(begin)
		})
		c.Run()
		if window == 0 {
			t.Fatal("pingpong never completed")
		}
		return c.Stats().SpinTime, c.Occupancy(0, start0, window)
	}
	spinPoll, occPoll := run(panda.Poll)
	spinIntr, occIntr := run(panda.Interrupt)
	if spinPoll <= 0 {
		t.Fatalf("poll mode spin time = %v, want > 0", spinPoll)
	}
	if spinIntr != 0 {
		t.Fatalf("interrupt mode spin time = %v, want 0", spinIntr)
	}
	if occPoll <= occIntr {
		t.Fatalf("poll server occupancy %.4f not above interrupt %.4f", occPoll, occIntr)
	}
}

// TestHybridDeterministicUnderFaults runs the hybrid dispatch mode twice
// under every shipped fault scenario and asserts the runs are
// bit-identical (same final virtual time, same aggregate stats): the
// poll-vs-interrupt switchover is a pure function of event times.
func TestHybridDeterministicUnderFaults(t *testing.T) {
	scenarios := []string{
		"", "burst-loss", "chaos", "dup-storm", "nic-flap", "partition", "reorder",
	}
	for _, sc := range scenarios {
		name := sc
		if name == "" {
			name = "ideal"
		}
		t.Run(name, func(t *testing.T) {
			run := func() (sim.Time, proc.Stats, int) {
				c := newPool(t, cluster.Config{
					Procs: 4, Group: true, Dispatch: panda.Hybrid,
					FaultScenario: sc, Seed: 7,
				})
				delivered := 0
				c.Transports[0].HandleGroup(func(th *proc.Thread, sender int, seqno uint64, payload any, sz int) {
					delivered++
				})
				for s := 1; s < 4; s++ {
					tr := c.Transports[s]
					c.Procs[s].NewThread("sender", proc.PrioNormal, func(th *proc.Thread) {
						for i := 0; i < 10; i++ {
							if tr.GroupSend(th, nil, 2048) != nil {
								return
							}
						}
					})
				}
				c.RunUntil(sim.Time(2 * time.Second))
				return c.Sim.Now(), c.Stats(), delivered
			}
			t1, s1, d1 := run()
			t2, s2, d2 := run()
			if t1 != t2 || s1 != s2 || d1 != d2 {
				t.Fatalf("hybrid runs diverged: time %v vs %v, delivered %d vs %d, stats %+v vs %+v",
					t1, t2, d1, d2, s1, s2)
			}
			if d1 == 0 {
				t.Fatal("no deliveries under scenario")
			}
		})
	}
}

// TestBypassSystemSendMulticast exercises the raw system-layer primitive,
// including the local loopback copy of a multicast.
func TestBypassSystemSendMulticast(t *testing.T) {
	c := newPool(t, cluster.Config{Procs: 3})
	type sysEP interface {
		HandleRaw(panda.RawHandler)
		SystemSend(t *proc.Thread, dest int, payload any, size int, multicast bool)
	}
	got := make([]int, 3)
	for i := 0; i < 3; i++ {
		i := i
		c.Transports[i].(sysEP).HandleRaw(func(th *proc.Thread, from int, payload any, sz int) {
			got[i]++
		})
	}
	ep := c.Transports[0].(sysEP)
	c.Procs[0].NewThread("sender", proc.PrioNormal, func(th *proc.Thread) {
		ep.SystemSend(th, 0, nil, 4096, true)
	})
	c.Run()
	for i, n := range got {
		if n != 1 {
			t.Fatalf("endpoint %d saw %d multicasts, want 1 (loopback included)", i, n)
		}
	}
}

// TestBypassMetricsParity: with one protocol core under both links, a
// bypass pool reports the same panda.* counters as a user-space pool,
// including the sequencer-history gauge, which must drain back to empty
// once the pool is quiescent (every member has acknowledged every
// sequenced message).
func TestBypassMetricsParity(t *testing.T) {
	const calls, sends = 7, 5
	for _, mode := range []panda.Mode{panda.UserSpace, panda.Bypass} {
		t.Run(mode.String(), func(t *testing.T) {
			c := newPool(t, cluster.Config{Procs: 4, Mode: mode, Group: true, Metrics: true})
			echoServer(c.Transports[0])
			c.Procs[1].NewThread("client", proc.PrioNormal, func(th *proc.Thread) {
				for i := 0; i < calls; i++ {
					if _, _, err := c.Transports[1].Call(th, 0, nil, 64); err != nil {
						t.Errorf("call %d: %v", i, err)
						return
					}
				}
			})
			c.Procs[2].NewThread("sender", proc.PrioNormal, func(th *proc.Thread) {
				for i := 0; i < sends; i++ {
					if err := c.Transports[2].GroupSend(th, nil, 256); err != nil {
						t.Errorf("group send %d: %v", i, err)
						return
					}
				}
			})
			c.Run()
			snap := c.Metrics.Snapshot()
			sum := func(name string) int64 {
				var n int64
				for _, cs := range snap.Counters {
					if cs.Name == name {
						n += cs.Value
					}
				}
				return n
			}
			if got := sum("panda.rpc_calls"); got != calls {
				t.Errorf("panda.rpc_calls = %d, want %d", got, calls)
			}
			if got := sum("panda.grp_pb_sends"); got != sends {
				t.Errorf("panda.grp_pb_sends = %d, want %d", got, sends)
			}
			if got := sum("panda.grp_deliveries"); got != 4*sends {
				t.Errorf("panda.grp_deliveries = %d, want %d", got, 4*sends)
			}
			found := false
			for _, g := range snap.Gauges {
				if g.Name != "panda.seq_history" {
					continue
				}
				found = true
				if g.Max < 1 {
					t.Errorf("panda.seq_history never held a message (max %d)", g.Max)
				}
				if g.Value != 0 {
					t.Errorf("panda.seq_history = %d after quiescence, want 0", g.Value)
				}
			}
			if !found {
				t.Fatal("panda.seq_history gauge missing")
			}
		})
	}
}
