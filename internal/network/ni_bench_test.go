package network

import (
	"testing"

	"mediaworm/internal/core"
	"mediaworm/internal/flit"
	"mediaworm/internal/sched"
	"mediaworm/internal/sim"
)

// niStepper returns one cycle of an NI with 1 of its 16 VCs backlogged:
// VC 0 is topped up with 20-flit best-effort messages, and the NI's router
// forwards every flit back out to the endpoint's own sink, returning the
// credit. Messages recycle through a pool four messages behind injection,
// long after their tails have drained, so steady state allocates nothing.
func niStepper(tb testing.TB) func() {
	cfg := core.Config{
		Ports: 2, VCs: 16, RTVCs: 12, BufferDepth: 20, StageDepth: 4,
		Policy: sched.VirtualClock, Period: 80 * sim.Nanosecond,
		Route: func(_ int, _ *flit.Message, buf []int) []int { return append(buf, 0) },
	}
	fab := NewFabric(sim.NewEngine(), cfg.Period, 1, cfg.VCs)
	r, err := core.New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	fab.AddRouter(r)
	ni, _ := fab.AttachEndpoint(r, 0, 0)
	r.Connect(1, DeadEnd{}, true)
	pool := flit.NewPool(8)
	var recent [4]*flit.Message
	var id uint64
	now := sim.Time(0)
	return func() {
		if ni.vcs[0].q.len() < 2 {
			slot := &recent[id%uint64(len(recent))]
			pool.Put(*slot)
			id++
			m := pool.Get()
			m.ID, m.StreamID, m.Class = id, -1, flit.BestEffort
			m.MsgsInFrame, m.Flits, m.Vtick = 1, 20, sim.Forever
			m.Injected = now
			ni.Inject(0, m)
			*slot = m
		}
		r.Step(now)
		ni.step(now)
		now += cfg.Period
	}
}

// BenchmarkNIStep measures one cycle of an NI with 1 of its 16 VCs
// backlogged: NI.step plus the sparse router Step that returns its credit
// (core's BenchmarkRouterStepSparse prices that Step alone).
func BenchmarkNIStep(b *testing.B) {
	step := niStepper(b)
	for i := 0; i < 2000; i++ { // warm-up: queue and arena growth
		step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
}

// TestNIStepZeroAlloc is BenchmarkNIStep's allocation proof: stepping an
// NI over its backlog word, injecting and ejecting, allocates nothing once
// the injection queue has grown to its working set.
func TestNIStepZeroAlloc(t *testing.T) {
	step := niStepper(t)
	for i := 0; i < 2000; i++ {
		step()
	}
	if allocs := testing.AllocsPerRun(1000, step); allocs != 0 {
		t.Fatalf("NI step allocates %.3f objects/op after warm-up, want 0", allocs)
	}
}
