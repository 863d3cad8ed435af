package main

// The three workloads. README.md records why each exists and which layer
// metric should move which end-to-end metric on it.

import (
	"fmt"
	"time"

	"amoebasim/internal/apps"
	"amoebasim/internal/cluster"
	"amoebasim/internal/panda"
	"amoebasim/internal/proc"
	"amoebasim/internal/sim"
)

// workload is one named benchmark input. run executes it once, recording
// spans and output checks into r; seed makes its inputs.
type workload struct {
	name string
	run  func(r *recorder, seed uint64) error
}

var workloads = []workload{
	{"rpc-512p", runRPC},
	{"group-256p", runGroup},
	{"orca-32p", runOrca},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// token is the seeded payload of stream a's k-th message: the echo and
// delivery checks compare what arrives against it.
func token(seed, a, k uint64) uint64 {
	z := seed ^ a<<40 ^ k
	z += 0x9e3779b97f4a7c15
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// Shape of rpc-512p: user-space echo RPC over warmed routes.
const (
	rpcProcs    = 512
	rpcSegments = 64
	rpcReqBytes = 128
	rpcWindow   = 250 * time.Millisecond // closed-loop sending window
)

// runRPC: 256 clients (processors 256..511) each call their own server
// (processor i-256) until the window closes; the simulation then drains.
// Every reply must echo its request's token.
func runRPC(r *recorder, seed uint64) error {
	return r.runJob(job{
		cfg:  cluster.Config{Procs: rpcProcs, Segments: rpcSegments, Mode: panda.UserSpace, Seed: seed},
		warm: true,
		setup: func(c *cluster.Cluster) (func(), func() (int64, int64)) {
			for i := 0; i < rpcProcs/2; i++ {
				srv := c.Transports[i]
				srv.HandleRPC(func(th *proc.Thread, ctx *panda.RPCContext, req any, sz int) {
					srv.Reply(th, ctx, req, sz)
				})
			}
			nclients := rpcProcs / 2
			calls := make([]int64, nclients)
			bad := make([]int64, nclients)
			for i := 0; i < nclients; i++ {
				i := i
				cl := c.Transports[nclients+i]
				c.Procs[nclients+i].NewThread("client", proc.PrioNormal, func(th *proc.Thread) {
					th.Sleep(time.Duration(i) * 13 * time.Microsecond)
					for k := uint64(0); th.Proc().Sim().Now() < sim.Time(rpcWindow); k++ {
						want := token(seed, uint64(i), k)
						rep, _, err := cl.Call(th, i, want, rpcReqBytes)
						calls[i]++
						if err != nil {
							bad[i]++
							r.problem("client %d call %d: %v", i, k, err)
						} else if got, _ := rep.(uint64); got != want {
							bad[i]++
							r.problem("client %d call %d: reply %x, want %x", i, k, got, want)
						}
					}
				})
			}
			check := func() (attempted, failed int64) {
				for i := range calls {
					attempted += calls[i]
					failed += bad[i]
				}
				return attempted, failed
			}
			return c.Run, check
		},
	})
}

// Shape of group-256p: closed-loop totally-ordered group sends.
const (
	groupProcs   = 256
	groupSenders = 32
	groupSmall   = 64   // single frame
	groupLarge   = 8000 // Table 2's size: fragments
	groupWindow  = 300 * time.Millisecond
	groupSpacing = groupProcs / groupSenders // one sender per 8-processor segment
)

// senderProc is the processor of group sender s, mid-segment.
func senderProc(s int) int { return s*groupSpacing + 4 }

// runGroup runs the same group window on each implementation in turn.
func runGroup(r *recorder, seed uint64) error {
	for _, mode := range panda.AllModes() {
		if err := r.runJob(job{
			cfg:   cluster.Config{Procs: groupProcs, Mode: mode, Group: true, Seed: seed},
			warm:  true,
			setup: func(c *cluster.Cluster) (func(), func() (int64, int64)) { return setupGroup(r, c, seed) },
		}); err != nil {
			return fmt.Errorf("%v: %w", mode, err)
		}
	}
	return nil
}

// setupGroup starts one sender per segment (see senderProc), alternating
// single-frame and fragmenting messages until the window closes; the
// simulation then drains. The oracle: every member delivers the same
// (sender, seqno) sequence, each sender's messages arrive in order with
// their tokens intact, and every send reaches every member.
func setupGroup(r *recorder, c *cluster.Cluster, seed uint64) (func(), func() (int64, int64)) {
	type delivery struct {
		sender int
		seqno  uint64
	}
	var order []delivery  // the sequence, as first delivered by any member
	var misordered []bool // per position: some member disagreed
	pos := make([]int, groupProcs)
	next := make([][]uint64, groupProcs) // per member, per sender: next expected send index
	for m := 0; m < groupProcs; m++ {
		m := m
		next[m] = make([]uint64, groupSenders)
		c.Transports[m].HandleGroup(func(th *proc.Thread, sender int, seqno uint64, payload any, size int) {
			d := delivery{sender, seqno}
			if p := pos[m]; p == len(order) {
				order = append(order, d)
				misordered = append(misordered, false)
			} else if order[p] != d {
				if !misordered[p] {
					r.problem("member %d position %d: (%d,%d), first delivered (%d,%d)",
						m, p, sender, seqno, order[p].sender, order[p].seqno)
				}
				misordered[p] = true
			}
			pos[m]++
			s := (sender - 4) / groupSpacing
			if sender != senderProc(s) {
				r.problem("member %d: delivery from non-sender %d", m, sender)
				return
			}
			if got, want := payload, token(seed, uint64(s), next[m][s]); got != want {
				r.problem("member %d: sender %d message %d carries %v, want %x", m, s, next[m][s], got, want)
				misordered[pos[m]-1] = true
			}
			next[m][s]++
		})
	}
	sent := make([]uint64, groupSenders)
	errs := make([]int64, groupSenders)
	for s := 0; s < groupSenders; s++ {
		s := s
		id := senderProc(s)
		tr := c.Transports[id]
		c.Procs[id].NewThread("sender", proc.PrioNormal, func(th *proc.Thread) {
			for k := uint64(0); th.Proc().Sim().Now() < sim.Time(groupWindow); k++ {
				size := groupSmall
				if (k+uint64(s))%2 == 1 {
					size = groupLarge
				}
				if err := tr.GroupSend(th, token(seed, uint64(s), k), size); err != nil {
					errs[s]++
					r.problem("sender %d send %d: %v", s, k, err)
					return
				}
				sent[s]++
			}
		})
	}
	check := func() (attempted, failed int64) {
		for s := range sent {
			attempted += int64(sent[s]) + errs[s]
			failed += errs[s]
			// A send is missing if some member has not delivered it.
			low := sent[s]
			for m := range next {
				if next[m][s] < low {
					low = next[m][s]
				}
			}
			if low < sent[s] {
				r.problem("sender %d: %d of %d sends missing at some member", s, sent[s]-low, sent[s])
				failed += int64(sent[s] - low)
			}
		}
		for _, bad := range misordered {
			if bad {
				failed++
			}
		}
		return attempted, failed
	}
	return c.Run, check
}

// Shape of orca-32p: Table 3's ASP and SOR at paper scale, cold routes.
const orcaProcs = 32

// orcaApps builds the workload's application instances for a seed, at
// Table 3's problem sizes (spelled out, since the oracles read them).
func orcaApps(seed uint64) []apps.App {
	is := instanceSeed(seed)
	return []apps.App{
		&apps.ASP{N: 768, Seed: is},
		&apps.SOR{Rows: 500, Cols: 512, Iters: 200, Omega: 1.9, Seed: is},
	}
}

// instanceSeed maps the benchmark seed to a non-zero application seed
// (zero selects the application's default instance).
func instanceSeed(seed uint64) uint64 {
	if s := token(seed, 0xa995, 0); s != 0 {
		return s
	}
	return 1
}

// runOrca runs each application on each implementation. Each run is one
// operation; it fails if the run errs. The parent checks the answers
// against the sequential oracle.
func runOrca(r *recorder, seed uint64) error {
	for _, app := range orcaApps(seed) {
		app := app
		for _, mode := range panda.AllModes() {
			key := app.Name() + "/" + mode.String()
			if err := r.runJob(job{
				cfg: cluster.Config{Procs: orcaProcs, Mode: mode, Group: app.NeedsGroup(), Seed: seed},
				app: app.Name(),
				setup: func(c *cluster.Cluster) (func(), func() (int64, int64)) {
					h := apps.NewHarness(c)
					answer := app.Setup(h)
					var err error
					run := func() { _, err = h.Wait() }
					check := func() (int64, int64) {
						if err != nil {
							r.problem("%s: %v", key, err)
							return 1, 1
						}
						r.res.Answers[key] = answer()
						return 1, 0
					}
					return run, check
				},
			}); err != nil {
				return fmt.Errorf("%s: %w", key, err)
			}
		}
	}
	return nil
}
