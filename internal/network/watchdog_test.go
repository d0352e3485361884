package network_test

import (
	"strings"
	"testing"

	"mediaworm/internal/core"
	"mediaworm/internal/flit"
	"mediaworm/internal/network"
	"mediaworm/internal/sched"
	"mediaworm/internal/sim"
)

// buildRing wires 4 two-port routers into a unidirectional ring with a
// single virtual channel: port 0 is the endpoint, port 1 the ring link to
// the next router. With every node sending a long worm two hops clockwise,
// each worm holds its local ring link while waiting for the next one — the
// textbook wormhole deadlock the watchdog must detect. Every event the
// ring's engine fires is followed by an occupancy audit. Each router
// carves its own one-router arena, so only the fabric's kill flag links
// one router's kills to another's reaping.
func buildRing(t *testing.T) (*sim.Engine, *network.Fabric, []*network.NI, []*network.Sink) {
	t.Helper()
	eng := sim.NewEngine()
	cfg := core.Config{
		Ports:       2,
		VCs:         1,
		RTVCs:       0,
		BufferDepth: 4,
		StageDepth:  2,
		Policy:      sched.VirtualClock,
		Period:      10 * sim.Nanosecond,
		Route: func(routerID int, msg *flit.Message, buf []int) []int {
			if msg.Dst == routerID {
				return append(buf, 0)
			}
			return append(buf, 1)
		},
	}
	fab := network.NewFabric(eng, cfg.Period, 4, cfg.VCs)
	routers := make([]*core.Router, 4)
	for i := range routers {
		c := cfg
		c.ID = i
		r, err := core.New(c)
		if err != nil {
			t.Fatal(err)
		}
		routers[i] = r
		fab.AddRouter(r)
	}
	var nis []*network.NI
	var sinks []*network.Sink
	for i, r := range routers {
		ni, sink := fab.AttachEndpoint(r, 0, i)
		nis = append(nis, ni)
		sinks = append(sinks, sink)
	}
	for i := range routers {
		fab.Link(routers[i], 1, routers[(i+1)%4], 1)
	}
	audit(t, eng, fab)
	return eng, fab, nis, sinks
}

// ringWorm builds a 64-flit best-effort message from node src two hops
// clockwise. 64 flits far exceed the per-hop buffering (4 + 2), so no worm's
// tail can clear a router while its header is blocked.
func ringWorm(id uint64, src int) *flit.Message {
	return &flit.Message{
		ID:          id,
		StreamID:    -1,
		Class:       flit.BestEffort,
		MsgsInFrame: 1,
		Flits:       64,
		Vtick:       sim.Forever,
		Src:         src,
		Dst:         (src + 2) % 4,
	}
}

func TestWatchdogDetectsRingDeadlock(t *testing.T) {
	eng, fab, nis, _ := buildRing(t)
	fab.SetWatchdog(200, false)
	for i, ni := range nis {
		ni.Inject(0, ringWorm(uint64(i+1), i))
	}
	eng.Run(1 * sim.Millisecond)

	if fab.Deadlock == nil {
		t.Fatal("ring deadlock not detected")
	}
	rep := fab.Deadlock
	if len(rep.Cycle) == 0 {
		t.Fatalf("watchdog found no wait-for cycle: %v", rep)
	}
	// The full cycle alternates each worm's granted hop with its blocked
	// hop: 4 worms x 2 entries.
	if len(rep.Cycle) != 8 {
		t.Errorf("cycle has %d entries, want 8: %v", len(rep.Cycle), rep)
	}
	seen := map[uint64]bool{}
	for _, e := range rep.Cycle {
		seen[e.Msg.ID] = true
	}
	if len(seen) != 4 {
		t.Errorf("cycle involves %d worms, want all 4: %v", len(seen), rep)
	}
	if !strings.Contains(rep.String(), "cycle:") {
		t.Errorf("report does not render the cycle: %s", rep)
	}
	// Without recovery the driver stops with the deadlocked flits still in
	// the fabric — the run returns instead of hanging.
	if fab.Work() == 0 {
		t.Error("deadlocked fabric reported no in-flight work")
	}
}

func TestWatchdogRecoveryUnblocksRing(t *testing.T) {
	eng, fab, nis, sinks := buildRing(t)
	fab.SetWatchdog(200, true)
	for i, ni := range nis {
		ni.Inject(0, ringWorm(uint64(i+1), i))
	}
	eng.Run(10 * sim.Millisecond)

	if fab.DeadlocksBroken == 0 {
		t.Fatal("recovery watchdog broke no deadlock")
	}
	if fab.Deadlock.Victim != 4 {
		t.Errorf("victim = msg %d, want the youngest (4)", fab.Deadlock.Victim)
	}
	if err := fab.CheckDrained(); err != nil {
		t.Fatalf("fabric did not drain after recovery: %v", err)
	}
	var received, dropped uint64
	for _, s := range sinks {
		received += s.FlitsReceived()
	}
	dropped = fab.DroppedFlits()
	if received+dropped != 4*64 {
		t.Errorf("conservation: received %d + dropped %d != injected %d",
			received, dropped, 4*64)
	}
	if received != 3*64 {
		t.Errorf("received %d flits, want 3 surviving worms (192)", received)
	}
}

func TestWatchdogRecoveryWithRetransmitDeliversAll(t *testing.T) {
	eng, fab, nis, sinks := buildRing(t)
	fab.SetWatchdog(200, true)
	rt := network.NewRetransmitter(fab, 50*sim.Microsecond, 5)
	for i, ni := range nis {
		ni.Inject(0, ringWorm(uint64(i+1), i))
	}
	eng.Run(10 * sim.Millisecond)
	eng.Drain()

	if fab.DeadlocksBroken == 0 {
		t.Fatal("recovery watchdog broke no deadlock")
	}
	if rt.Recovered != 1 {
		t.Errorf("Recovered = %d, want 1 (the deadlock victim resent)", rt.Recovered)
	}
	if rt.Abandoned != 0 || rt.Pending() != 0 {
		t.Errorf("Abandoned = %d, Pending = %d, want 0/0", rt.Abandoned, rt.Pending())
	}
	var msgs uint64
	for _, s := range sinks {
		msgs += s.MessagesReceived()
	}
	if msgs != 4 {
		t.Errorf("delivered %d messages, want all 4", msgs)
	}
	if err := fab.CheckDrained(); err != nil {
		t.Fatalf("fabric did not drain: %v", err)
	}
}
