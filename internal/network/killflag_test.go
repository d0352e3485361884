package network_test

import (
	"testing"

	"mediaworm/internal/core"
	"mediaworm/internal/flit"
	"mediaworm/internal/network"
	"mediaworm/internal/sched"
	"mediaworm/internal/sim"
)

// occupancyAudit is an engine probe that audits every router's occupancy
// masks and every NI's backlog word after each event, cycle ticks
// included, so a kill or reap that leaves a mask stale fails at once.
type occupancyAudit struct {
	t   *testing.T
	fab *network.Fabric
}

func (a occupancyAudit) OnEvent(now sim.Time, _ int) {
	if err := network.CheckOccupancy(a.fab); err != nil {
		a.t.Fatalf("t=%d: %v", now, err)
	}
}

// audit arms the occupancy audit on eng for the rest of the test.
func audit(t *testing.T, eng *sim.Engine, fab *network.Fabric) {
	eng.SetProbe(occupancyAudit{t, fab})
}

// oneRouter builds a fabric of one 2-port router with one VC: port 0
// carries an endpoint whose NI injects and whose sink receives, and port 1
// is wired to out as an endpoint or transit port. Messages route to port
// msg.Dst; a negative Dst has no route.
func oneRouter(t *testing.T, out core.Consumer, endpoint bool) (*network.Fabric, *core.Router, *network.NI) {
	t.Helper()
	eng := sim.NewEngine()
	cfg := core.Config{
		Ports: 2, VCs: 1, BufferDepth: 4, StageDepth: 2,
		Policy: sched.VirtualClock, Period: 10 * sim.Nanosecond,
		Route: func(_ int, m *flit.Message, buf []int) []int {
			if m.Dst < 0 {
				return buf
			}
			return append(buf, m.Dst)
		},
	}
	fab := network.NewFabric(eng, cfg.Period, 1, cfg.VCs)
	r, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fab.AddRouter(r)
	ni, _ := fab.AttachEndpoint(r, 0, 0)
	r.Connect(1, out, endpoint)
	audit(t, eng, fab)
	return fab, r, ni
}

// stepUntil ticks the fabric's engine one cycle at a time until cond holds.
func stepUntil(t *testing.T, fab *network.Fabric, cond func() bool) {
	t.Helper()
	for i := 0; !cond(); i++ {
		if i > 1000 {
			t.Fatal("condition not reached in 1000 cycles")
		}
		fab.Engine.Run(fab.Engine.Now() + fab.Period)
	}
}

// granted reports whether r holds a worm granted an output VC.
func granted(r *core.Router) bool {
	b := r.BlockedWorms()
	return len(b) == 1 && b[0].OutVC >= 0
}

// TestEveryKillSiteRaisesTheFabricFlag drives each of the seven kill sites
// from a fault-free start and checks that it raises the fabric's kill
// flag — the flag every router and NI consults before reaping, so a site
// that bypassed it would leave its worm unreaped.
func TestEveryKillSiteRaisesTheFabricFlag(t *testing.T) {
	worm := func(dst int) *flit.Message {
		return &flit.Message{ID: 1, StreamID: -1, Class: flit.BestEffort, MsgsInFrame: 1,
			Flits: 6, Vtick: sim.Forever, Dst: dst}
	}
	cases := []struct {
		name string
		// kill builds a fabric, runs it to the site's precondition and
		// fires the site once.
		kill func(t *testing.T) *network.Fabric
	}{
		{"link down: staged flits", func(t *testing.T) *network.Fabric {
			// A 2-flit worm wholly staged at an endpoint port with no
			// credit: no holder, no input VC still forwarding.
			fab, r, ni := oneRouter(t, network.DeadEnd{}, true)
			m := worm(1)
			m.Flits = 2
			ni.Inject(0, m)
			stepUntil(t, fab, func() bool { return r.Stats().FlitsSwitched == 2 })
			if network.KillFlag(fab) || len(r.BlockedWorms()) != 0 {
				t.Fatal("precondition: flag raised or worm still at the input")
			}
			r.SetLinkUp(1, false)
			return fab
		}},
		{"link down: output-VC holder", func(t *testing.T) *network.Fabric {
			// A worm granted a transit port's output VC, nothing staged
			// yet: the holder is killed first.
			fab, r, ni := oneRouter(t, network.DeadEnd{}, false)
			ni.Inject(0, worm(1))
			stepUntil(t, fab, func() bool { return granted(r) })
			if network.KillFlag(fab) || r.Stats().FlitsSwitched != 0 {
				t.Fatal("precondition: flag raised or flits already staged")
			}
			r.SetLinkUp(1, false)
			return fab
		}},
		{"link down: active input VC", func(t *testing.T) *network.Fabric {
			// A worm granted an endpoint port's shared VC (no holder),
			// nothing staged yet: only the input VC's grant ties it to
			// the link.
			fab, r, ni := oneRouter(t, network.DeadEnd{}, true)
			ni.Inject(0, worm(1))
			stepUntil(t, fab, func() bool { return granted(r) })
			if network.KillFlag(fab) || r.Stats().FlitsSwitched != 0 {
				t.Fatal("precondition: flag raised or flits already staged")
			}
			r.SetLinkUp(1, false)
			return fab
		}},
		{"no route", func(t *testing.T) *network.Fabric {
			fab, r, ni := oneRouter(t, network.DeadEnd{}, true)
			ni.Inject(0, worm(-1))
			stepUntil(t, fab, func() bool { return r.Stats().MessagesKilled == 1 })
			return fab
		}},
		{"wire corruption", func(t *testing.T) *network.Fabric {
			fab, r, ni := oneRouter(t, network.DeadEnd{}, true)
			r.SetCorruption(func(int, flit.Flit) bool { return true })
			ni.Inject(0, worm(0)) // back out to the endpoint's own sink
			stepUntil(t, fab, func() bool { return r.Stats().MessagesKilled == 1 })
			return fab
		}},
		{"retransmission timeout", func(t *testing.T) *network.Fabric {
			eng, fab, nis, _ := buildRing(t)
			rt := network.NewRetransmitter(fab, 200*sim.Nanosecond, 1)
			nis[0].Inject(0, ringWorm(1, 0))
			eng.Run(300 * sim.Nanosecond)
			if rt.Abandoned != 1 {
				t.Fatalf("Abandoned = %d, want the timed-out worm", rt.Abandoned)
			}
			return fab
		}},
		{"watchdog recovery", func(t *testing.T) *network.Fabric {
			eng, fab, nis, _ := buildRing(t)
			fab.SetWatchdog(200, true)
			for i, ni := range nis {
				ni.Inject(0, ringWorm(uint64(i+1), i))
			}
			eng.Run(1 * sim.Millisecond)
			if fab.DeadlocksBroken == 0 {
				t.Fatal("watchdog broke no deadlock")
			}
			return fab
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fab := tc.kill(t)
			if !network.KillFlag(fab) {
				t.Fatal("kill left the fabric's kill flag down")
			}
			// A bounded run: an unreaped worm keeps the cycle driver
			// ticking forever, which Drain would never return from.
			fab.Engine.Run(fab.Engine.Now() + sim.Millisecond)
			if err := fab.CheckDrained(); err != nil {
				t.Fatalf("killed worm not reaped: %v", err)
			}
		})
	}
}

// TestKillAtOneRouterReapsAtAnother kills a worm by corrupting it on the
// second router's link and checks the first router and its NI reap the
// rest of it. The ring's routers each carve their own one-router arena, so
// only a flag the fabric owns reaches the router that did not kill; the
// ring audits the occupancy masks after every tick.
func TestKillAtOneRouterReapsAtAnother(t *testing.T) {
	eng, fab, nis, sinks := buildRing(t)
	corrupted := false
	fab.Routers[1].SetCorruption(func(p int, _ flit.Flit) bool {
		if p == 1 && !corrupted {
			corrupted = true
			return true
		}
		return false
	})
	victim := ringWorm(1, 0) // router 0 → 1 → 2, 64 flits
	nis[0].Inject(0, victim)
	eng.Run(sim.Millisecond) // bounded: an unreaped worm would tick forever
	if !victim.Dead || fab.Routers[1].Stats().MessagesKilled != 1 {
		t.Fatalf("worm not killed at router 1: dead=%v", victim.Dead)
	}
	if fab.Routers[0].Stats().FlitsDropped == 0 || nis[0].Dropped == 0 {
		t.Fatalf("router 0 dropped %d, NI 0 dropped %d: the kill did not reach them",
			fab.Routers[0].Stats().FlitsDropped, nis[0].Dropped)
	}
	if err := fab.CheckDrained(); err != nil {
		t.Fatal(err)
	}
	var delivered uint64
	for _, s := range sinks {
		delivered += s.FlitsReceived()
	}
	if delivered+fab.DroppedFlits() != uint64(victim.Flits) {
		t.Fatalf("delivered %d + dropped %d != %d injected", delivered, fab.DroppedFlits(), victim.Flits)
	}
}
