package obs

import (
	"testing"
	"time"

	"mediaworm/internal/flit"
	"mediaworm/internal/sim"
)

// TestDisabledPathZeroAlloc is the subsystem's headline contract: every
// Tracer method on the nil (disabled) tracer must cost zero allocations.
func TestDisabledPathZeroAlloc(t *testing.T) {
	var trc *Tracer
	ev := Event{At: 100, Kind: EvLinkTraverse, Router: 0, Port: 1, VC: 2, Msg: 7}
	allocs := testing.AllocsPerRun(1000, func() {
		trc.Emit(ev)
		trc.Tick(100)
		trc.RegisterRouter(0, 8, 16, nil, nil)
		trc.ObserveLatency(flit.VBR, 100)
		if trc.Enabled() {
			t.Fatal("nil tracer reports enabled")
		}
	})
	if allocs != 0 {
		t.Fatalf("disabled path allocates: %v allocs/op", allocs)
	}
	if c := trc.Capture(); c != nil {
		t.Fatalf("nil tracer capture = %+v, want nil", c)
	}
}

// TestEnabledEmitZeroAlloc: the hot emit path must not allocate either —
// the ring is preallocated and Event is a value type.
func TestEnabledEmitZeroAlloc(t *testing.T) {
	trc := New(Options{Enabled: true, EventCap: 1024})
	trc.RegisterRouter(0, 8, 16, make([]VCCounters, 8*16), make([]PortCounters, 8))
	ev := Event{At: 100, Kind: EvLinkTraverse, Router: 0, Port: 1, VC: 2, Msg: 7}
	allocs := testing.AllocsPerRun(1000, func() {
		trc.Emit(ev)
		trc.Tick(100)
	})
	if allocs != 0 {
		t.Fatalf("enabled emit path allocates: %v allocs/op", allocs)
	}
}

func TestNewDisabledReturnsNil(t *testing.T) {
	if trc := New(Options{}); trc != nil {
		t.Fatalf("New(disabled) = %v, want nil", trc)
	}
}

func TestRingOverwritesOldest(t *testing.T) {
	trc := New(Options{Enabled: true, EventCap: 4})
	for i := 0; i < 10; i++ {
		trc.Emit(Event{At: sim.Time(i), Kind: EvSnapshot, Router: -1, Port: -1, VC: -1})
	}
	c := trc.Capture()
	if c.TotalEvents != 10 || c.DroppedEvents != 6 {
		t.Fatalf("totals = %d/%d dropped, want 10/6", c.TotalEvents, c.DroppedEvents)
	}
	if len(c.Events) != 4 {
		t.Fatalf("len(Events) = %d, want 4", len(c.Events))
	}
	for i, ev := range c.Events {
		if want := sim.Time(6 + i); ev.At != want {
			t.Fatalf("event %d at %d, want %d (oldest-first unroll)", i, ev.At, want)
		}
	}
}

func TestCapturePartialRing(t *testing.T) {
	trc := New(Options{Enabled: true, EventCap: 8})
	for i := 0; i < 3; i++ {
		trc.Emit(Event{At: sim.Time(i), Kind: EvSnapshot, Router: -1, Port: -1, VC: -1})
	}
	c := trc.Capture()
	if len(c.Events) != 3 || c.DroppedEvents != 0 {
		t.Fatalf("events=%d dropped=%d, want 3/0", len(c.Events), c.DroppedEvents)
	}
	for i, ev := range c.Events {
		if ev.At != sim.Time(i) {
			t.Fatalf("event %d at %d, want %d", i, ev.At, i)
		}
	}
}

// TestSnapshotCopiesBlocks: a snapshot holds copies of the registered
// counter blocks, laid out in registration order, and counting after the
// snapshot leaves it unchanged.
func TestSnapshotCopiesBlocks(t *testing.T) {
	trc := New(Options{Enabled: true, EventCap: 64})
	vc2, port2 := make([]VCCounters, 4*8), make([]PortCounters, 4)
	vc0, port0 := make([]VCCounters, 1*2), make([]PortCounters, 1)
	trc.RegisterRouter(2, 4, 8, vc2, port2)
	trc.RegisterRouter(0, 1, 2, vc0, port0)

	vc2[1*8+3] = VCCounters{Switched: 1, Transmitted: 2, Grants: 2, GrantWait: 100, Blocks: 1, VCTicks: 1}
	port2[0] = PortCounters{Injected: 1, Ejected: 1, Dropped: 1, Killed: 1, Retransmits: 1, Faults: 1, PoliceDrops: 1}
	vc0[1].Switched = 7
	port0[0].Ejected = 9
	trc.ObserveLatency(flit.VBR, 5000)
	trc.Snapshot(1000)

	vc2[1*8+3].Switched++
	port2[0].Injected++
	vc0[1].Switched++
	trc.ObserveLatency(flit.VBR, 7000)
	trc.Snapshot(2000)

	c := trc.Capture()
	if len(c.Snapshots) != 2 {
		t.Fatalf("snapshots = %d, want 2", len(c.Snapshots))
	}
	s := c.Snapshots[0]
	if len(s.PerVC) != 4*8+2 || len(s.PerPort) != 4+1 {
		t.Fatalf("snapshot holds %d VC and %d port blocks, want 34 and 5", len(s.PerVC), len(s.PerPort))
	}
	if s.PerVC[1*8+3] != (VCCounters{Switched: 1, Transmitted: 2, Grants: 2, GrantWait: 100, Blocks: 1, VCTicks: 1}) {
		t.Fatalf("router 2 vc block = %+v", s.PerVC[1*8+3])
	}
	if s.PerPort[0] != (PortCounters{Injected: 1, Ejected: 1, Dropped: 1, Killed: 1, Retransmits: 1, Faults: 1, PoliceDrops: 1}) {
		t.Fatalf("router 2 port block = %+v", s.PerPort[0])
	}
	// Router 0 registered second, so its blocks follow router 2's.
	if s.PerVC[4*8+1].Switched != 7 || s.PerPort[4].Ejected != 9 {
		t.Fatalf("router 0 blocks = %+v / %+v", s.PerVC[4*8:], s.PerPort[4])
	}
	if s.Latency[flit.VBR].N != 1 || s.Latency[flit.VBR].Sum != 5000 {
		t.Fatalf("VBR latency hist = %+v", s.Latency[flit.VBR])
	}
	late := c.Snapshots[1]
	if late.PerVC[1*8+3].Switched != 2 || late.PerPort[0].Injected != 2 ||
		late.PerVC[4*8+1].Switched != 8 || late.Latency[flit.VBR].N != 2 {
		t.Fatalf("second snapshot did not see the later counts: %+v %+v", late.PerVC[1*8+3], late.PerPort[0])
	}
}

func TestRegisterRouterIdempotent(t *testing.T) {
	trc := New(Options{Enabled: true, EventCap: 8})
	blocks := func(ports, vcs int) ([]VCCounters, []PortCounters) {
		return make([]VCCounters, ports*vcs), make([]PortCounters, ports)
	}
	vc, port := blocks(4, 4)
	trc.RegisterRouter(0, 4, 4, vc, port)
	trc.RegisterRouter(0, 4, 4, vc, port)
	vc, port = blocks(2, 2)
	trc.RegisterRouter(1, 2, 2, vc, port)
	c := trc.Capture()
	if len(c.Routers) != 2 {
		t.Fatalf("routers = %v, want 2 entries", c.Routers)
	}
	if c.Routers[0] != (RouterDim{ID: 0, Ports: 4, VCs: 4}) ||
		c.Routers[1] != (RouterDim{ID: 1, Ports: 2, VCs: 2}) {
		t.Fatalf("routers = %v", c.Routers)
	}
}

func TestTickSnapshotInterval(t *testing.T) {
	trc := New(Options{Enabled: true, EventCap: 64, MetricsInterval: 100 * time.Nanosecond})
	for now := sim.Time(0); now <= 350; now += 10 {
		trc.Tick(now)
	}
	trc.Snapshot(400) // the run's final snapshot
	c := trc.Capture()
	if len(c.Snapshots) != 4 {
		t.Fatalf("snapshots = %d, want 4 (at 100, 200, 300, 400)", len(c.Snapshots))
	}
	for i, want := range []sim.Time{100, 200, 300, 400} {
		if c.Snapshots[i].At != want {
			t.Fatalf("snapshot %d at %d, want %d", i, c.Snapshots[i].At, want)
		}
	}
}

func TestHist(t *testing.T) {
	var h Hist
	for _, v := range []sim.Time{1, 2, 3, 4, 100, 1000} {
		h.Observe(v)
	}
	if h.N != 6 || h.Min != 1 || h.Max != 1000 || h.Sum != 1110 {
		t.Fatalf("hist = %+v", h)
	}
	if got := h.Mean(); got != 185 {
		t.Fatalf("mean = %v, want 185", got)
	}
	// p50 falls in the bucket of 3 and 4 → upper bounds 3 or 7.
	if q := h.Quantile(0.5); q != 3 && q != 7 {
		t.Fatalf("p50 = %d, want bucket bound 3 or 7", q)
	}
	// p100 clamps to Max.
	if q := h.Quantile(1.0); q != 1000 {
		t.Fatalf("p100 = %d, want 1000", q)
	}
	// Empty hist.
	var e Hist
	if e.Mean() != 0 || e.Quantile(0.9) != 0 {
		t.Fatal("empty hist must report zeros")
	}
}

func TestKindCauseStrings(t *testing.T) {
	for k := 0; k < numKinds; k++ {
		if Kind(k).String() == "" {
			t.Fatalf("Kind(%d) has no name", k)
		}
	}
	for c := 0; c < numCauses; c++ {
		if Cause(c).String() == "" {
			t.Fatalf("Cause(%d) has no name", c)
		}
	}
	if Kind(200).String() != "Kind(200)" || Cause(200).String() != "Cause(200)" {
		t.Fatal("out-of-range kinds/causes must stringify, not panic")
	}
}

func TestTSArg(t *testing.T) {
	if TSArg(sim.Forever) != -1 {
		t.Fatal("TSArg(Forever) != -1")
	}
	if TSArg(12345) != 12345 {
		t.Fatal("TSArg(finite) must pass through")
	}
}
