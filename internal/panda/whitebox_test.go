package panda

import (
	"testing"
	"time"

	"amoebasim/internal/akernel"
	"amoebasim/internal/ether"
	"amoebasim/internal/model"
	"amoebasim/internal/proc"
	"amoebasim/internal/sim"
)

// buildUsers assembles a small all-user-space rig without importing the
// cluster package (white-box tests live in package panda).
func buildUsers(t *testing.T, n int, sequencer int, group bool) (*sim.Sim, *ether.Network, []*User) {
	t.Helper()
	s := sim.New()
	m := model.Calibrated()
	net := ether.New(s, m, 1, 1)
	var members []int
	if group {
		for i := 0; i < n; i++ {
			members = append(members, i)
		}
	}
	var users []*User
	for i := 0; i < n; i++ {
		p := proc.New(s, m, i, "cpu")
		k, err := akernel.New(p, net, 0)
		if err != nil {
			t.Fatal(err)
		}
		users = append(users, NewUser(k, UserConfig{Members: members, Sequencer: sequencer}))
	}
	t.Cleanup(func() {
		for _, u := range users {
			u.p.Shutdown()
		}
	})
	return s, net, users
}

// TestWhiteboxBBFlow bounds the BB (large message) flow and dumps state if
// it stalls, guarding against sequencing livelock.
func TestWhiteboxBBFlow(t *testing.T) {
	s, _, users := buildUsers(t, 3, 0, true)
	got := make([]int, 3)
	for i, u := range users {
		i := i
		u.HandleGroup(func(th *proc.Thread, sender int, seqno uint64, payload any, size int) {
			got[i]++
		})
	}
	sendErr := error(nil)
	sent := 0
	u1 := users[1]
	u1.p.NewThread("send", proc.PrioNormal, func(th *proc.Thread) {
		for j := 0; j < 3; j++ {
			if err := u1.GroupSend(th, j, 8000); err != nil {
				sendErr = err
				return
			}
			sent++
		}
	})
	for i := 0; i < 3_000_000 && s.Pending() > 0 && s.Now() < sim.Time(2*time.Second); i++ {
		s.Step()
	}
	t.Logf("stopped at %v after %d events, pending %d", s.Now(), s.EventsRun(), s.Pending())
	if sendErr != nil || sent != 3 || got[0] != 3 || got[1] != 3 || got[2] != 3 {
		grp := func(i int) *groupProto { return users[i].grps[0] }
		g0 := grp(0)
		t.Fatalf("stall: sent=%d err=%v got=%v | seq: seqno=%d hist=%d acked=%v | members nextDeliver=%d,%d,%d holdback=%d,%d,%d bbData=%d,%d,%d bbAccept=%d,%d,%d pending=%d",
			sent, sendErr, got, g0.seqno, len(g0.history), g0.acked,
			grp(0).nextDeliver, grp(1).nextDeliver, grp(2).nextDeliver,
			len(grp(0).holdback), len(grp(1).holdback), len(grp(2).holdback),
			len(grp(0).bbData), len(grp(1).bbData), len(grp(2).bbData),
			len(grp(0).bbAccept), len(grp(1).bbAccept), len(grp(2).bbAccept),
			s.Pending())
	}
}
