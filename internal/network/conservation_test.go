package network_test

import (
	"testing"

	"mediaworm/internal/flit"
	"mediaworm/internal/network"
	"mediaworm/internal/sim"
)

// accounted sums the three sides of the flit-conservation ledger:
// delivered (sinks), dropped (router buffers + NI queues), in-flight
// (the fabric work counter, which includes NI backlogs).
func accounted(fab *network.Fabric, nis []*network.NI, sinks []*network.Sink) (delivered, dropped uint64, inFlight int64) {
	for _, s := range sinks {
		delivered += s.FlitsReceived()
	}
	for _, r := range fab.Routers {
		dropped += r.Stats().FlitsDropped
	}
	for _, n := range nis {
		dropped += n.Dropped
	}
	return delivered, dropped, fab.Work()
}

// oneHopWorm builds a short-haul worm that cannot participate in a ring
// cycle: it needs only its local ring link plus the destination endpoint.
func oneHopWorm(id uint64, src int) *flit.Message {
	m := ringWorm(id, src)
	m.Dst = (src + 1) % 4
	return m
}

// TestFlitConservationFaultFree checks the ledger on a clean run — the
// invariant injected = delivered + dropped + in-flight must hold at every
// instant, with the dropped term identically zero.
func TestFlitConservationFaultFree(t *testing.T) {
	eng, fab, nis, sinks := buildRing(t)
	var injected uint64
	var id uint64
	for round := 0; round < 5; round++ {
		round := round
		eng.At(sim.Time(round)*3*sim.Microsecond, func() {
			for src, ni := range nis {
				id++
				m := oneHopWorm(id, src)
				ni.Inject(0, m)
				injected += uint64(m.Flits)
			}
		})
	}
	// Mid-run checkpoints: conservation is a per-cycle invariant, not just
	// a post-drain one.
	for _, at := range []sim.Time{2 * sim.Microsecond, 7 * sim.Microsecond, 11 * sim.Microsecond} {
		eng.At(at, func() {
			delivered, dropped, inFlight := accounted(fab, nis, sinks)
			if dropped != 0 {
				t.Fatalf("fault-free run dropped %d flits", dropped)
			}
			if delivered+uint64(inFlight) != injected {
				t.Fatalf("t=%v: delivered %d + in-flight %d != injected %d",
					eng.Now(), delivered, inFlight, injected)
			}
		})
	}
	eng.Drain()
	if err := fab.CheckDrained(); err != nil {
		t.Fatal(err)
	}
	delivered, dropped, inFlight := accounted(fab, nis, sinks)
	if dropped != 0 || inFlight != 0 {
		t.Fatalf("post-drain: dropped=%d in-flight=%d, want 0/0", dropped, inFlight)
	}
	if delivered != injected {
		t.Fatalf("delivered %d of %d injected flits", delivered, injected)
	}
}

// TestFlitConservationWithKilledWorm kills a message mid-flight and checks
// the same ledger balances through the drop path, with the routers'
// per-port drop counters agreeing with their totals.
func TestFlitConservationWithKilledWorm(t *testing.T) {
	eng, fab, nis, sinks := buildRing(t)
	victim := oneHopWorm(1, 0)
	survivor := oneHopWorm(2, 2)
	nis[0].Inject(0, victim)
	nis[2].Inject(0, survivor)
	injected := uint64(victim.Flits + survivor.Flits)

	// Let the victim's header advance into the fabric, then kill it while
	// flits sit in both the NI queue and router buffers.
	eng.At(500*sim.Nanosecond, func() {
		if victim.Dead {
			t.Fatal("victim dead before kill")
		}
		fab.Kill(victim)
		fab.Wake()
	})
	eng.Drain()
	if err := fab.CheckDrained(); err != nil {
		t.Fatal(err)
	}
	delivered, dropped, inFlight := accounted(fab, nis, sinks)
	if inFlight != 0 {
		t.Fatalf("in-flight %d after drain", inFlight)
	}
	if dropped == 0 {
		t.Fatal("killing a mid-flight worm dropped nothing")
	}
	if delivered+dropped != injected {
		t.Fatalf("delivered %d + dropped %d != injected %d", delivered, dropped, injected)
	}
	if delivered < uint64(survivor.Flits) {
		t.Fatalf("survivor lost flits: delivered %d < %d", delivered, survivor.Flits)
	}
	for i, r := range fab.Routers {
		var perPort uint64
		for p := 0; p < 2; p++ {
			perPort += r.PortStats(p).FlitsDropped
		}
		if perPort != r.Stats().FlitsDropped {
			t.Fatalf("router %d: per-port drops %d != total %d",
				i, perPort, r.Stats().FlitsDropped)
		}
	}
}
