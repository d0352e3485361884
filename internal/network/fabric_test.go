package network_test

import (
	"testing"

	"mediaworm/internal/core"
	"mediaworm/internal/flit"
	"mediaworm/internal/network"
	"mediaworm/internal/sched"
	"mediaworm/internal/sim"
	"mediaworm/internal/topology"
)

func tinyNet(t *testing.T) (*sim.Engine, *topology.Net) {
	t.Helper()
	eng := sim.NewEngine()
	net, err := paperNet(eng, "single-switch", core.Config{
		Ports: 2, VCs: 2, RTVCs: 1,
		BufferDepth: 20, StageDepth: 4,
		Policy: sched.VirtualClock, Period: tPeriod,
	})
	if err != nil {
		t.Fatal(err)
	}
	return eng, net
}

func mkMsg(id uint64, dst int, flits int) *flit.Message {
	return &flit.Message{
		ID: id, StreamID: int(id), Class: flit.VBR, MsgsInFrame: 1,
		Flits: flits, Vtick: 100, Dst: dst, DstVC: 0,
	}
}

func TestFabricSleepsWhenIdle(t *testing.T) {
	eng, net := tinyNet(t)
	// With no traffic the fabric schedules nothing.
	if eng.Pending() != 0 {
		t.Fatalf("idle fabric has %d pending events", eng.Pending())
	}
	m := mkMsg(1, 1, 4)
	m.Injected = 0
	net.NIs[0].Inject(0, m)
	if eng.Pending() == 0 {
		t.Fatal("injection did not wake the ticker")
	}
	eng.Drain()
	if net.Fabric.Work() != 0 {
		t.Fatalf("work %d after drain", net.Fabric.Work())
	}
	// Idle again after the drain: ticker must have stopped, so the total
	// processed events is bounded by flits × pipeline, not by wall time.
	processed := eng.Processed()
	if processed == 0 || processed > 200 {
		t.Fatalf("processed %d events for one 4-flit message", processed)
	}
}

func TestFabricTickAlignment(t *testing.T) {
	eng, net := tinyNet(t)
	// Inject off-cycle: at t = 130 ns (cycles are multiples of 80 ns).
	m := mkMsg(1, 1, 1)
	eng.At(130, func() {
		m.Injected = eng.Now()
		net.NIs[0].Inject(0, m)
	})
	var arrival sim.Time
	net.Sinks[1].OnMessage = func(_ *flit.Message, at sim.Time) { arrival = at }
	eng.Drain()
	if arrival == 0 {
		t.Fatal("message lost")
	}
	if arrival%tPeriod != 0 {
		t.Fatalf("delivery at %d not cycle-aligned", arrival)
	}
}

func TestFabricWakeAfterLongIdle(t *testing.T) {
	eng, net := tinyNet(t)
	delivered := 0
	for i := 0; i < 2; i++ {
		net.Sinks[1-i%2].OnMessage = func(*flit.Message, sim.Time) { delivered++ }
	}
	// Two bursts separated by a long gap; the ticker must stop in between
	// and restart cleanly.
	inject := func(at sim.Time, id uint64, src, dst int) {
		m := mkMsg(id, dst, 5)
		eng.At(at, func() {
			m.Injected = eng.Now()
			net.NIs[src].Inject(0, m)
		})
	}
	inject(0, 1, 0, 1)
	inject(50*sim.Millisecond, 2, 1, 0)
	eng.Drain()
	if delivered != 2 {
		t.Fatalf("delivered %d messages, want 2", delivered)
	}
	// Events processed must be far fewer than the 625k cycles the 50 ms
	// gap would cost a always-on ticker.
	if eng.Processed() > 5000 {
		t.Fatalf("idle gap was ticked through: %d events", eng.Processed())
	}
}

func TestCheckDrainedDetectsWork(t *testing.T) {
	eng, net := tinyNet(t)
	m := mkMsg(1, 1, 10)
	m.Injected = 0
	net.NIs[0].Inject(0, m)
	if err := net.Fabric.CheckDrained(); err == nil {
		t.Fatal("in-flight work not detected")
	}
	eng.Drain()
	if err := net.Fabric.CheckDrained(); err != nil {
		t.Fatal(err)
	}
}

func TestNIPolicyOverride(t *testing.T) {
	eng, net := tinyNet(t)
	net.NIs[0].SetPolicyParams(sched.FIFO, sched.Params{})
	// A best-effort message injected before a real-time one on different
	// VCs: FIFO NI serves arrival order, so BE flits go first.
	be := &flit.Message{ID: 1, Class: flit.BestEffort, MsgsInFrame: 1,
		Flits: 5, Vtick: sim.Forever, Dst: 1, DstVC: 1, Injected: 0}
	rt := mkMsg(2, 1, 5)
	var order []uint64
	net.Sinks[1].OnMessage = func(m *flit.Message, at sim.Time) { order = append(order, m.ID) }
	net.NIs[0].Inject(1, be)
	eng.At(1, func() {
		rt.Injected = 1
		net.NIs[0].Inject(0, rt)
	})
	eng.Drain()
	if len(order) != 2 || order[0] != 1 {
		t.Fatalf("FIFO NI delivery order %v, want best-effort (1) first", order)
	}
	// Same scenario under Virtual Clock: the real-time message overtakes.
	eng2, net2 := tinyNet(t)
	be2 := &flit.Message{ID: 1, Class: flit.BestEffort, MsgsInFrame: 1,
		Flits: 5, Vtick: sim.Forever, Dst: 1, DstVC: 1, Injected: 0}
	rt2 := mkMsg(2, 1, 5)
	var order2 []uint64
	net2.Sinks[1].OnMessage = func(m *flit.Message, at sim.Time) { order2 = append(order2, m.ID) }
	net2.NIs[0].Inject(1, be2)
	eng2.At(1, func() {
		rt2.Injected = 1
		net2.NIs[0].Inject(0, rt2)
	})
	eng2.Drain()
	if len(order2) != 2 || order2[0] != 2 {
		t.Fatalf("Virtual Clock NI delivery order %v, want real-time (2) first", order2)
	}
}

func TestFabricRejectsBadPeriod(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	network.NewFabric(sim.NewEngine(), 0, 0, 0)
}
