package network_test

import (
	"testing"

	"mediaworm/internal/flit"
	"mediaworm/internal/network"
	"mediaworm/internal/sched"
	"mediaworm/internal/sim"
)

func TestDynamicPartitionTracksMix(t *testing.T) {
	eng := sim.NewEngine()
	cfg := baseCfg(sched.VirtualClock, 16, 8)
	net, err := paperNet(eng, "single-switch", cfg)
	if err != nil {
		t.Fatal(err)
	}
	stop := 10 * sim.Millisecond
	dp := network.NewDynamicPartition(net.Fabric, 500*sim.Microsecond, stop, 8)
	if dp.RTVCs() != 8 || dp.VCs() != 16 {
		t.Fatalf("initial partition %d/%d", dp.RTVCs(), dp.VCs())
	}

	// Inject a heavily best-effort-skewed load: 1 RT message per 10 BE.
	var id uint64
	inject := func(at sim.Time, class flit.Class, vc int) {
		id++
		m := &flit.Message{
			ID: id, StreamID: int(id), Class: class, MsgsInFrame: 1,
			Flits: 20, Vtick: 8000, Dst: 1, DstVC: vc,
		}
		if class == flit.BestEffort {
			m.Vtick = sim.Forever
		}
		eng.At(at, func() {
			m.Injected = eng.Now()
			net.NIs[0].Inject(vc, m)
		})
	}
	for i := 0; i < 200; i++ {
		at := sim.Time(i) * 20 * sim.Microsecond
		if i%10 == 0 {
			inject(at, flit.VBR, 0)
		} else {
			inject(at, flit.BestEffort, 12)
		}
	}
	eng.Run(stop)
	eng.Drain()
	if dp.Adjustments == 0 {
		t.Fatal("controller never adjusted under a skewed mix")
	}
	if dp.RTVCs() >= 8 {
		t.Fatalf("partition %d did not shrink toward the 10%% RT mix", dp.RTVCs())
	}
	if dp.RTVCs() < 1 {
		t.Fatal("MinPerClass violated")
	}
	// Routers follow the controller.
	if got := net.Routers[0].RTVCs(); got != dp.RTVCs() {
		t.Fatalf("router partition %d ≠ controller %d", got, dp.RTVCs())
	}
}

func TestDynamicPartitionStopsAtDeadline(t *testing.T) {
	eng := sim.NewEngine()
	net, err := paperNet(eng, "single-switch", baseCfg(sched.VirtualClock, 8, 4))
	if err != nil {
		t.Fatal(err)
	}
	stop := 1 * sim.Millisecond
	network.NewDynamicPartition(net.Fabric, 100*sim.Microsecond, stop, 4)
	// The engine must drain: the controller quiesces at stop.
	end := eng.Drain()
	if end >= stop {
		t.Fatalf("controller events past the deadline: last at %v", end)
	}
}

func TestDynamicPartitionValidation(t *testing.T) {
	eng := sim.NewEngine()
	net, err := paperNet(eng, "single-switch", baseCfg(sched.VirtualClock, 8, 4))
	if err != nil {
		t.Fatal(err)
	}
	expectPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		f()
	}
	expectPanic("bad initial", func() { network.NewDynamicPartition(net.Fabric, 1, 1000, 99) })
	expectPanic("bad interval", func() { network.NewDynamicPartition(net.Fabric, 0, 1000, 4) })
	empty := network.NewFabric(sim.NewEngine(), 80, 0, 0)
	expectPanic("empty fabric", func() { network.NewDynamicPartition(empty, 1, 1000, 0) })
}

func TestSetRTVCsBounds(t *testing.T) {
	eng := sim.NewEngine()
	net, err := paperNet(eng, "single-switch", baseCfg(sched.VirtualClock, 8, 4))
	if err != nil {
		t.Fatal(err)
	}
	r := net.Routers[0]
	r.SetRTVCs(0)
	r.SetRTVCs(8)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range SetRTVCs did not panic")
		}
	}()
	r.SetRTVCs(9)
}

func TestDeadEnd(t *testing.T) {
	var d network.DeadEnd
	if full := d.Full(); *full != ^uint64(0) {
		t.Fatalf("dead end's full mask %#x leaves a VC with credit", *full)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("accepting on a dead end did not panic")
		}
	}()
	d.Accept(0, flit.Flit{})
}
