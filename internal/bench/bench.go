// Package bench regenerates the paper's quantitative results: Table 1
// (communication latencies), Table 2 (throughputs), Table 3 (application
// execution times and speedups), and the §4.2/§4.3 overhead
// decompositions. Sweeps fan out over a bounded worker pool (pool.go);
// every data point owns its whole cluster, so pooled results are
// bit-identical to sequential ones.
package bench

import (
	"errors"
	"fmt"
	"time"

	"amoebasim/internal/cluster"
	"amoebasim/internal/panda"
	"amoebasim/internal/proc"
	"amoebasim/internal/sim"
)

// PaperSizes are the message sizes of Table 1.
var PaperSizes = []int{0, 1024, 2048, 3072, 4096}

// defaultRounds is the number of measured round trips per data point (the
// paper averages 10 runs; the simulation is deterministic, so rounds only
// smooth piggyback warts).
const defaultRounds = 10

// errIncomplete reports a measurement workload that never reached its
// final round — a protocol stall, not a misconfiguration.
var errIncomplete = errors.New("bench: measurement did not complete")

func newCluster(cfg cluster.Config) (*cluster.Cluster, error) {
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	c, err := cluster.New(cfg)
	if err != nil {
		return nil, fmt.Errorf("bench: build cluster: %w", err)
	}
	return c, nil
}

// systemSender is the system-layer primitive of Table 1's
// unicast/multicast columns, implemented by the user-space transport
// (*panda.User) and the kernel-bypass transport (*panda.QP).
type systemSender interface {
	HandleRaw(panda.RawHandler)
	SystemSend(t *proc.Thread, dest int, payload any, size int, multicast bool)
}

// SystemLatency measures the Panda system-layer primitive of Table 1's
// unicast/multicast columns: a user-to-user pingpong where replies are
// sent directly from within the receive upcall (no context switching in
// the measured path), one-way time reported.
func SystemLatency(mode panda.Mode, size int, multicast bool) (time.Duration, error) {
	c, err := newCluster(cluster.Config{Procs: 2, Mode: mode, Group: multicast})
	if err != nil {
		return 0, err
	}
	defer c.Shutdown()
	u0, ok0 := c.Transports[0].(systemSender)
	u1, ok1 := c.Transports[1].(systemSender)
	if !ok0 || !ok1 {
		return 0, errors.New("bench: transports without a system-layer primitive")
	}
	send := func(u systemSender, t *proc.Thread, dst int) {
		u.SystemSend(t, dst, nil, size, multicast)
	}
	u0.HandleRaw(func(t *proc.Thread, from int, payload any, sz int) {
		if from != 0 {
			send(u0, t, from)
		}
	})
	const rounds = defaultRounds
	count := 0
	var start sim.Time
	var total time.Duration
	u1.HandleRaw(func(t *proc.Thread, from int, payload any, sz int) {
		if from == 1 {
			return // own multicast loopback
		}
		count++
		if count == 1 {
			start = c.Sim.Now()
		}
		if count <= rounds {
			send(u1, t, from)
			return
		}
		total = c.Sim.Now().Sub(start)
	})
	c.Procs[1].NewThread("pinger", proc.PrioNormal, func(t *proc.Thread) {
		send(u1, t, 0) // warm-up (locate) + kick off
	})
	c.Run()
	if total == 0 {
		return 0, fmt.Errorf("system pingpong: %w", errIncomplete)
	}
	return total / (2 * rounds), nil
}

// RPCLatency measures Table 1's RPC columns: requests of the given size,
// empty replies, one round trip reported.
func RPCLatency(mode panda.Mode, size int) (time.Duration, error) {
	c, err := newCluster(cluster.Config{Procs: 2, Mode: mode})
	if err != nil {
		return 0, err
	}
	defer c.Shutdown()
	srv := c.Transports[0]
	srv.HandleRPC(func(t *proc.Thread, ctx *panda.RPCContext, req any, sz int) {
		srv.Reply(t, ctx, nil, 0)
	})
	var total time.Duration
	c.Procs[1].NewThread("client", proc.PrioNormal, func(t *proc.Thread) {
		if _, _, err := c.Transports[1].Call(t, 0, nil, size); err != nil {
			return
		}
		start := c.Sim.Now()
		for i := 0; i < defaultRounds; i++ {
			if _, _, err := c.Transports[1].Call(t, 0, nil, size); err != nil {
				return
			}
		}
		total = c.Sim.Now().Sub(start)
	})
	c.Run()
	if total == 0 {
		return 0, fmt.Errorf("rpc pingpong: %w", errIncomplete)
	}
	return total / defaultRounds, nil
}

// GroupLatency measures Table 1's group columns: a group of two members;
// the sender (not the sequencer machine) waits until its own message
// comes back from the sequencer.
func GroupLatency(mode panda.Mode, size int, dedicated bool) (time.Duration, error) {
	c, err := newCluster(cluster.Config{
		Procs: 2, Mode: mode, Group: true, DedicatedSequencer: dedicated,
	})
	if err != nil {
		return 0, err
	}
	defer c.Shutdown()
	var total time.Duration
	tr := c.Transports[1]
	c.Procs[1].NewThread("sender", proc.PrioNormal, func(t *proc.Thread) {
		if err := tr.GroupSend(t, nil, size); err != nil {
			return
		}
		start := c.Sim.Now()
		for i := 0; i < defaultRounds; i++ {
			if err := tr.GroupSend(t, nil, size); err != nil {
				return
			}
		}
		total = c.Sim.Now().Sub(start)
	})
	c.Run()
	if total == 0 {
		return 0, fmt.Errorf("group send: %w", errIncomplete)
	}
	return total / defaultRounds, nil
}

// Table1Row is one row of Table 1, extended with the kernel-bypass
// implementation as a third column per primitive.
type Table1Row struct {
	Size            int
	Unicast         time.Duration
	Multicast       time.Duration
	UnicastBypass   time.Duration
	MulticastBypass time.Duration
	RPCUser         time.Duration
	RPCKernel       time.Duration
	RPCBypass       time.Duration
	GroupUser       time.Duration
	GroupKernel     time.Duration
	GroupBypass     time.Duration
}

// table1Jobs fills rows (one per size, Size already set) cell by cell;
// each cell is one pool job owning its own cluster.
func table1Jobs(sizes []int, rows []Table1Row) []Job {
	var jobs []Job
	for i, s := range sizes {
		i, s := i, s
		cell := func(col string, dst *time.Duration, f func() (time.Duration, error)) Job {
			return Job{
				Name: fmt.Sprintf("table1/%dB/%s", s, col),
				Run: func() error {
					d, err := f()
					if err != nil {
						return err
					}
					*dst = d
					return nil
				},
			}
		}
		jobs = append(jobs,
			cell("unicast", &rows[i].Unicast, func() (time.Duration, error) { return SystemLatency(panda.UserSpace, s, false) }),
			cell("multicast", &rows[i].Multicast, func() (time.Duration, error) { return SystemLatency(panda.UserSpace, s, true) }),
			cell("unicast-bypass", &rows[i].UnicastBypass, func() (time.Duration, error) { return SystemLatency(panda.Bypass, s, false) }),
			cell("multicast-bypass", &rows[i].MulticastBypass, func() (time.Duration, error) { return SystemLatency(panda.Bypass, s, true) }),
			cell("rpc-user", &rows[i].RPCUser, func() (time.Duration, error) { return RPCLatency(panda.UserSpace, s) }),
			cell("rpc-kernel", &rows[i].RPCKernel, func() (time.Duration, error) { return RPCLatency(panda.KernelSpace, s) }),
			cell("rpc-bypass", &rows[i].RPCBypass, func() (time.Duration, error) { return RPCLatency(panda.Bypass, s) }),
			cell("group-user", &rows[i].GroupUser, func() (time.Duration, error) { return GroupLatency(panda.UserSpace, s, false) }),
			cell("group-kernel", &rows[i].GroupKernel, func() (time.Duration, error) { return GroupLatency(panda.KernelSpace, s, false) }),
			cell("group-bypass", &rows[i].GroupBypass, func() (time.Duration, error) { return GroupLatency(panda.Bypass, s, false) }),
		)
	}
	return jobs
}

// Table1 regenerates Table 1 for the given message sizes, sequentially.
func Table1(sizes []int) ([]Table1Row, error) { return Table1Sweep(sizes, 1) }

// Table1Sweep regenerates Table 1 with every cell fanned out across the
// worker pool. Bit-identical to the sequential run for any worker count.
func Table1Sweep(sizes []int, workers int) ([]Table1Row, error) {
	if sizes == nil {
		sizes = PaperSizes
	}
	rows := make([]Table1Row, len(sizes))
	for i, s := range sizes {
		rows[i].Size = s
	}
	if err := PoolErrors(RunPool(table1Jobs(sizes, rows), workers)); err != nil {
		return nil, err
	}
	return rows, nil
}

// Table2 holds the throughput results of Table 2 in bytes/second, with
// the kernel-bypass implementation as a third column.
type Table2 struct {
	RPCUser     float64
	RPCKernel   float64
	RPCBypass   float64
	GroupUser   float64
	GroupKernel float64
	GroupBypass float64
}

// throughputWindow is the simulated time over which throughput is
// averaged.
const throughputWindow = 2 * time.Second

// RPCThroughput streams 8000-byte requests with empty replies and reports
// the data rate.
func RPCThroughput(mode panda.Mode) (float64, error) {
	c, err := newCluster(cluster.Config{Procs: 2, Mode: mode})
	if err != nil {
		return 0, err
	}
	defer c.Shutdown()
	var received int64
	srv := c.Transports[0]
	srv.HandleRPC(func(t *proc.Thread, ctx *panda.RPCContext, req any, sz int) {
		received += int64(sz)
		srv.Reply(t, ctx, nil, 0)
	})
	c.Procs[1].NewThread("client", proc.PrioNormal, func(t *proc.Thread) {
		for {
			if _, _, err := c.Transports[1].Call(t, 0, nil, 8000); err != nil {
				return
			}
		}
	})
	c.RunUntil(sim.Time(throughputWindow))
	return float64(received) / throughputWindow.Seconds(), nil
}

// GroupThroughput has several members send 8000-byte messages in parallel
// (saturating the Ethernet, as in the paper) and reports the ordered
// delivery rate at one member.
func GroupThroughput(mode panda.Mode) (float64, error) {
	const members = 4
	c, err := newCluster(cluster.Config{Procs: members, Mode: mode, Group: true})
	if err != nil {
		return 0, err
	}
	defer c.Shutdown()
	var delivered int64
	c.Transports[0].HandleGroup(func(t *proc.Thread, sender int, seqno uint64, payload any, sz int) {
		delivered += int64(sz)
	})
	for s := 1; s < members; s++ {
		tr := c.Transports[s]
		c.Procs[s].NewThread("sender", proc.PrioNormal, func(t *proc.Thread) {
			for {
				if err := tr.GroupSend(t, nil, 8000); err != nil {
					return
				}
			}
		})
	}
	c.RunUntil(sim.Time(throughputWindow))
	return float64(delivered) / throughputWindow.Seconds(), nil
}

// table2Jobs fills t2 cell by cell; one pool job per cell.
func table2Jobs(t2 *Table2) []Job {
	cell := func(name string, dst *float64, f func() (float64, error)) Job {
		return Job{
			Name: "table2/" + name,
			Run: func() error {
				v, err := f()
				if err != nil {
					return err
				}
				*dst = v
				return nil
			},
		}
	}
	return []Job{
		cell("rpc-user", &t2.RPCUser, func() (float64, error) { return RPCThroughput(panda.UserSpace) }),
		cell("rpc-kernel", &t2.RPCKernel, func() (float64, error) { return RPCThroughput(panda.KernelSpace) }),
		cell("rpc-bypass", &t2.RPCBypass, func() (float64, error) { return RPCThroughput(panda.Bypass) }),
		cell("group-user", &t2.GroupUser, func() (float64, error) { return GroupThroughput(panda.UserSpace) }),
		cell("group-kernel", &t2.GroupKernel, func() (float64, error) { return GroupThroughput(panda.KernelSpace) }),
		cell("group-bypass", &t2.GroupBypass, func() (float64, error) { return GroupThroughput(panda.Bypass) }),
	}
}

// RunTable2 regenerates Table 2 sequentially.
func RunTable2() (Table2, error) { return Table2Sweep(1) }

// Table2Sweep regenerates Table 2 with its four cells fanned out across
// the worker pool.
func Table2Sweep(workers int) (Table2, error) {
	var t2 Table2
	if err := PoolErrors(RunPool(table2Jobs(&t2), workers)); err != nil {
		return Table2{}, err
	}
	return t2, nil
}
