package fault_test

import (
	"testing"

	"mediaworm/internal/core"
	"mediaworm/internal/fault"
	"mediaworm/internal/flit"
	"mediaworm/internal/network"
	"mediaworm/internal/rng"
	"mediaworm/internal/sched"
	"mediaworm/internal/sim"
	"mediaworm/internal/topology"
)

const period = 80 * sim.Nanosecond

// fabric builds the named topology from the tests' router configuration
// through the one fabric constructor, topology.Build.
func fabric(t *testing.T, name string) (*sim.Engine, *topology.Net) {
	t.Helper()
	spec, err := topology.ParseSpec(name)
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.NewEngine()
	net, err := topology.Build(eng, spec, core.Config{
		Ports:       8,
		VCs:         4,
		RTVCs:       0,
		BufferDepth: 8,
		StageDepth:  4,
		Policy:      sched.VirtualClock,
		Period:      period,
	})
	if err != nil {
		t.Fatal(err)
	}
	return eng, net
}

func fatMesh(t *testing.T) (*sim.Engine, *topology.Net) {
	t.Helper()
	return fabric(t, "fat-mesh-2x2")
}

// meshLink adapts a topology transit link to a fault.Link.
func meshLink(net *topology.Net, l topology.TransitLink) fault.Link {
	return fault.Link{
		A: net.Routers[l.A], APort: l.APort,
		B: net.Routers[l.B], BPort: l.BPort,
	}
}

// xLinks returns the two parallel links between switches a and b.
func linksBetween(net *topology.Net, a, b int) []fault.Link {
	var out []fault.Link
	for _, l := range net.TransitLinks() {
		if l.A == a && l.B == b {
			out = append(out, meshLink(net, l))
		}
	}
	return out
}

// beMsg builds a best-effort message of n flits from src to dst.
func beMsg(id uint64, src, dst, n int) *flit.Message {
	return &flit.Message{
		ID:          id,
		StreamID:    -1,
		Class:       flit.BestEffort,
		MsgsInFrame: 1,
		Flits:       n,
		Vtick:       sim.Forever,
		Src:         src,
		Dst:         dst,
		DstVC:       0,
	}
}

// injectStream schedules count messages from src to dst, one every gap.
func injectStream(eng *sim.Engine, net *topology.Net, src, dst, count, flits int, gap sim.Time) {
	for i := 0; i < count; i++ {
		msg := beMsg(uint64(1000+i), src, dst, flits)
		at := sim.Time(i) * gap
		eng.At(at, func() {
			msg.Injected = eng.Now()
			net.NIs[src].Inject(0, msg)
		})
	}
}

// TestOutageReroutesAroundDeadLinks kills every lane between routers 0 and
// 1 mid-run: BOTH parallel X links of the fat-mesh, and the single links of
// a generated mesh and torus. The fault-aware route must send traffic the
// long way (on the fat-mesh: Y to switch 2, X to switch 3, Y to switch 1),
// and the retransmitter must resend whatever the outage killed in flight:
// every message is eventually delivered.
func TestOutageReroutesAroundDeadLinks(t *testing.T) {
	for _, tc := range []struct {
		fabric   string
		src, dst int // endpoints on routers 0 and 1
	}{
		{"fat-mesh-2x2", 0, 5},
		{"mesh3x3c1", 0, 1},
		{"torus4x4c1", 0, 1},
	} {
		t.Run(tc.fabric, func(t *testing.T) {
			eng, net := fabric(t, tc.fabric)
			rt := network.NewRetransmitter(net.Fabric, 500*sim.Microsecond, 8)
			inj := fault.NewInjector(eng, net.Fabric, nil)

			// 100-flit messages every 5 µs: each takes ~8 µs on the wire, so
			// the 0–1 links are busy continuously and the outage is
			// guaranteed to catch worms in flight.
			const count = 40
			injectStream(eng, net, tc.src, tc.dst, count, 100, 5*sim.Microsecond)
			dead := linksBetween(net, 0, 1)
			for _, l := range dead {
				inj.OutageAt(50*sim.Microsecond, 250*sim.Microsecond, l)
			}
			eng.Run(5 * sim.Millisecond)
			eng.Drain()

			if got := net.Sinks[tc.dst].MessagesReceived(); got != count {
				t.Errorf("delivered %d messages, want %d", got, count)
			}
			if rt.Abandoned != 0 {
				t.Errorf("Abandoned = %d, want 0 (outage ends, reroute exists)", rt.Abandoned)
			}
			if net.Fabric.DroppedFlits() == 0 {
				t.Error("outage dropped nothing — fault did not land")
			}
			if err := net.Fabric.CheckDrained(); err != nil {
				t.Fatalf("fabric did not drain: %v", err)
			}
			if want := uint64(len(dead)); len(dead) == 0 || inj.LinkDowns != want || inj.LinkUps != want {
				t.Errorf("LinkDowns/Ups = %d/%d, want %d/%d", inj.LinkDowns, inj.LinkUps, want, want)
			}
		})
	}
}

// TestPermanentPartitionAbandons severs every link out of switch 0 for good:
// messages can never be delivered, so after MaxAttempts the retransmitter
// gives up and the fabric still drains cleanly.
func TestPermanentPartitionAbandons(t *testing.T) {
	eng, net := fatMesh(t)
	rt := network.NewRetransmitter(net.Fabric, 20*sim.Microsecond, 3)
	inj := fault.NewInjector(eng, net.Fabric, nil)

	for _, l := range linksBetween(net, 0, 1) {
		inj.LinkDownAt(0, l)
	}
	for _, l := range linksBetween(net, 0, 2) {
		inj.LinkDownAt(0, l)
	}
	injectStream(eng, net, 0, 5, 3, 20, sim.Microsecond)
	eng.Run(5 * sim.Millisecond)
	eng.Drain()

	if rt.Abandoned != 3 {
		t.Errorf("Abandoned = %d, want 3", rt.Abandoned)
	}
	if rt.Pending() != 0 {
		t.Errorf("Pending = %d, want 0", rt.Pending())
	}
	if got := net.Sinks[5].MessagesReceived(); got != 0 {
		t.Errorf("delivered %d messages across a full partition", got)
	}
	if err := net.Fabric.CheckDrained(); err != nil {
		t.Fatalf("fabric did not drain: %v", err)
	}
	if net.LiveTransitLinks() != 4 {
		t.Errorf("LiveTransitLinks = %d, want 4", net.LiveTransitLinks())
	}
}

// TestCorruptionRecovered arms per-flit corruption; every corrupted message
// is killed, retransmitted, and eventually delivered.
func TestCorruptionRecovered(t *testing.T) {
	eng, net := fatMesh(t)
	rt := network.NewRetransmitter(net.Fabric, 100*sim.Microsecond, 10)
	inj := fault.NewInjector(eng, net.Fabric, rng.NewStream(7, "fault"))
	inj.CorruptFlits(0.002)

	const count = 30
	injectStream(eng, net, 0, 5, count, 20, 10*sim.Microsecond)
	eng.Run(20 * sim.Millisecond)
	eng.Drain()

	if got := net.Sinks[5].MessagesReceived(); got != count {
		t.Errorf("delivered %d messages, want %d", got, count)
	}
	killed := uint64(0)
	for _, r := range net.Routers {
		killed += r.Stats().MessagesKilled
	}
	if killed == 0 {
		t.Error("corruption at 0.2%/flit over 600 flits killed nothing")
	}
	if rt.Recovered == 0 {
		t.Error("no message recovered by retransmission")
	}
	if err := net.Fabric.CheckDrained(); err != nil {
		t.Fatalf("fabric did not drain: %v", err)
	}
}

// TestStallFreezesPortWithoutLoss stalls the only live path's output port:
// flits wait (StallCycles counts up), nothing is dropped, and traffic
// completes once the stall lifts.
func TestStallFreezesPortWithoutLoss(t *testing.T) {
	eng, net := fatMesh(t)
	inj := fault.NewInjector(eng, net.Fabric, nil)

	injectStream(eng, net, 0, 5, 10, 20, sim.Microsecond)
	inj.StallAt(2*sim.Microsecond, 100*sim.Microsecond, net.Routers[1], 1)
	eng.Run(5 * sim.Millisecond)
	eng.Drain()

	if got := net.Sinks[5].MessagesReceived(); got != 10 {
		t.Errorf("delivered %d messages, want 10", got)
	}
	if net.Fabric.DroppedFlits() != 0 {
		t.Errorf("stall dropped %d flits, want 0", net.Fabric.DroppedFlits())
	}
	ps := net.Routers[1].PortStats(1)
	if ps.StallCycles == 0 {
		t.Error("no stall cycles recorded on the frozen port")
	}
	if err := net.Fabric.CheckDrained(); err != nil {
		t.Fatalf("fabric did not drain: %v", err)
	}
}

// churnRun drives stochastic link churn over steady traffic and returns a
// signature of everything that happened.
func churnRun(t *testing.T, seed uint64) [6]uint64 {
	t.Helper()
	eng, net := fatMesh(t)
	rt := network.NewRetransmitter(net.Fabric, 200*sim.Microsecond, 8)
	inj := fault.NewInjector(eng, net.Fabric, rng.NewStream(seed, "fault"))
	for _, l := range net.TransitLinks() {
		inj.Churn(meshLink(net, l), 300*sim.Microsecond, 60*sim.Microsecond, 2*sim.Millisecond)
	}
	for src := 0; src < 4; src++ {
		injectStream(eng, net, src*4, (src*4+10)%16, 50, 20, 20*sim.Microsecond)
	}
	eng.Run(20 * sim.Millisecond)
	eng.Drain()
	var delivered uint64
	for _, s := range net.Sinks {
		delivered += s.MessagesReceived()
	}
	return [6]uint64{
		delivered,
		net.Fabric.DroppedFlits(),
		rt.Retransmissions,
		rt.Abandoned,
		inj.LinkDowns,
		inj.LinkUps,
	}
}

// TestChurnIsSeedDeterministic: the same seed must reproduce the exact fault
// trace and simulation, byte for byte; a different seed must not.
func TestChurnIsSeedDeterministic(t *testing.T) {
	a := churnRun(t, 42)
	b := churnRun(t, 42)
	if a != b {
		t.Fatalf("same seed diverged: %v vs %v", a, b)
	}
	if a[4] == 0 {
		t.Fatalf("churn produced no link faults: %v", a)
	}
	c := churnRun(t, 43)
	if a == c {
		t.Errorf("different seeds produced identical runs: %v", a)
	}
}

// TestRemotePartitionKillsInsteadOfPanicking partitions the destination
// switch away using only links that are remote to the source switch: the
// source router's own links stay up, yet the fault-aware route finds no
// path. The router must kill the message (unroutable) — a regression test
// for liveRoute panicking on empty candidates from a locally-healthy
// router — and retransmission must abandon it cleanly.
func TestRemotePartitionKillsInsteadOfPanicking(t *testing.T) {
	eng, net := fatMesh(t)
	rt := network.NewRetransmitter(net.Fabric, 20*sim.Microsecond, 3)
	inj := fault.NewInjector(eng, net.Fabric, nil)

	// Sever switch 3 from the mesh: links 1↔3 and 2↔3 (remote to switch 0).
	for _, pair := range [][2]int{{1, 3}, {2, 3}} {
		for _, l := range linksBetween(net, pair[0], pair[1]) {
			inj.LinkDownAt(0, l)
		}
	}
	const count = 3
	injectStream(eng, net, 0, 15, count, 20, 10*sim.Microsecond) // node 0 (sw 0) → node 15 (sw 3)
	eng.Run(2 * sim.Millisecond)
	eng.Drain()

	if rt.Abandoned != count {
		t.Errorf("Abandoned = %d, want %d", rt.Abandoned, count)
	}
	if got := net.Sinks[15].MessagesReceived(); got != 0 {
		t.Errorf("delivered %d messages across a partition", got)
	}
	var killed uint64
	for _, r := range net.Fabric.Routers {
		killed += r.Stats().MessagesKilled
	}
	if killed == 0 {
		t.Error("no router killed the unroutable messages")
	}
	if err := net.Fabric.CheckDrained(); err != nil {
		t.Fatalf("fabric did not drain: %v", err)
	}
}
