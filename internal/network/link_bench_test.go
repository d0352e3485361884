package network

import (
	"testing"

	"mediaworm/internal/core"
	"mediaworm/internal/flit"
	"mediaworm/internal/sched"
	"mediaworm/internal/sim"
)

// linkStepper returns a two-router fabric carrying a saturated worm over
// one link, and one fabric tick of it. An NI on router 0's port 0 keeps
// 64-flit best-effort messages queued for the sink on router 1's port 0;
// router 0 sends them out of port 1, and router 1 takes them in on port 1,
// so every flit crosses the link, its credit returns over the input full
// mask, and the sink consumes it. Messages recycle through a pool four
// messages behind injection, long after their tails have drained, so
// steady state allocates nothing.
func linkStepper(tb testing.TB) (*Sink, func()) {
	cfg := core.Config{
		Ports: 2, VCs: 16, RTVCs: 12, BufferDepth: 20, StageDepth: 4,
		Policy: sched.VirtualClock, Period: 80 * sim.Nanosecond,
		Route: func(id int, _ *flit.Message, buf []int) []int { return append(buf, 1-id) },
	}
	eng := sim.NewEngine()
	fab := NewFabric(eng, cfg.Period, 2, cfg.VCs)
	cfg.Arena = core.NewArena(2, cfg)
	var rs [2]*core.Router
	for id := range rs {
		c := cfg
		c.ID = id
		r, err := core.New(c)
		if err != nil {
			tb.Fatal(err)
		}
		fab.AddRouter(r)
		rs[id] = r
	}
	fab.Link(rs[0], 1, rs[1], 1)
	fab.Link(rs[1], 1, rs[0], 1)
	ni, _ := fab.AttachEndpoint(rs[0], 0, 0)
	_, sink := fab.AttachEndpoint(rs[1], 0, 1)
	const vc = 12 // the first best-effort VC
	pool := flit.NewPool(8)
	var recent [4]*flit.Message
	var id uint64
	now := sim.Time(0)
	return sink, func() {
		if ni.vcs[vc].q.len() < 2 {
			slot := &recent[id%uint64(len(recent))]
			pool.Put(*slot)
			id++
			m := pool.Get()
			m.ID, m.StreamID, m.Class = id, -1, flit.BestEffort
			m.Dst, m.DstVC = 1, vc
			m.MsgsInFrame, m.Flits, m.Vtick = 1, 64, sim.Forever
			m.Injected = now
			ni.Inject(vc, m)
			*slot = m
		}
		now += cfg.Period
		eng.Run(now)
	}
}

// BenchmarkLinkTransfer measures one fabric tick of two routers joined by
// one link under a saturated worm: the NI's injection, both routers'
// Steps, the link transfer with its credit read from the downstream full
// mask, and the sink's ejection. It reports the flits the sink took per
// tick.
func BenchmarkLinkTransfer(b *testing.B) {
	sink, step := linkStepper(b)
	for i := 0; i < 2000; i++ { // warm-up: queue, pool and calendar growth
		step()
	}
	before := sink.FlitsReceived()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
	b.ReportMetric(float64(sink.FlitsReceived()-before)/float64(b.N), "flits/op")
}

// TestLinkTransferZeroAlloc is BenchmarkLinkTransfer's allocation proof:
// a saturated worm crossing a router-to-router link allocates nothing once
// the queues and the message pool have grown to their working set. It
// counts every allocation in a window of cycles, since
// testing.AllocsPerRun rounds its per-run average down, and checks that
// the window moved the worm: the sink took a flit on most of its cycles.
func TestLinkTransferZeroAlloc(t *testing.T) {
	const cycles = 1000
	sink, step := linkStepper(t)
	for i := 0; i < 2000; i++ {
		step()
	}
	var got uint64
	allocs := testing.AllocsPerRun(1, func() { // runs once unmeasured first, so got counts the measured window
		before := sink.FlitsReceived()
		for i := 0; i < cycles; i++ {
			step()
		}
		got = sink.FlitsReceived() - before
	})
	if allocs != 0 {
		t.Fatalf("link transfer allocates %.0f objects in %d cycles after warm-up, want 0", allocs, cycles)
	}
	t.Logf("%d flits crossed the link in %d cycles", got, cycles)
	if got < cycles*9/10 {
		t.Fatalf("%d flits crossed the link in %d cycles, want the link busy at least 90%% of them", got, cycles)
	}
}
