package network

import (
	"testing"

	"mediaworm/internal/core"
	"mediaworm/internal/flit"
	"mediaworm/internal/police"
	"mediaworm/internal/rng"
	"mediaworm/internal/sched"
	"mediaworm/internal/sim"
)

// niStepper returns an NI and one cycle of it with 1 of its 16 VCs
// backlogged: VC 0 is topped up with 20-flit messages, and the NI's router
// forwards every flit back out to the endpoint's own sink, returning the
// credit. Messages recycle through a pool four messages behind injection,
// long after their tails have drained, so steady state allocates nothing.
//
// Unpoliced, the messages are best effort and VC 0 is topped up every
// cycle. Policed, one VBR message is offered every 20 cycles, the link's
// rate, through a policer whose meter commits 80% of that rate, so it
// colours messages green, yellow and red, and whose dropper drops some of
// the yellow and red ones.
func niStepper(tb testing.TB, policed bool) (*NI, func()) {
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
	class, vtick, every := flit.BestEffort, sim.Forever, 1
	if policed {
		class, vtick, every = flit.VBR, 100*sim.Nanosecond, 20
		// A 20-flit message every 20 cycles of 80 ns is 12.5M flits/s.
		ni.SetPolicer(police.NewPolicer(
			police.MeterConfig{CIR: 10e6, CBS: 20, EBS: 40},
			police.DropperConfig{Profiles: [police.NumColors]police.DropProfile{
				police.Yellow: {MaxFlits: 40, MaxProb: 0.5},
				police.Red:    {MaxFlits: 1, MaxProb: 1},
			}},
			rng.New(1)))
	}
	pool := flit.NewPool(8)
	var recent [4]*flit.Message
	var id uint64
	cycle := 0
	now := sim.Time(0)
	return ni, func() {
		if cycle%every == 0 && ni.vcs[0].q.len() < 2 {
			slot := &recent[id%uint64(len(recent))]
			pool.Put(*slot)
			id++
			m := pool.Get()
			m.ID, m.StreamID, m.Class = id, -1, class
			m.MsgsInFrame, m.Flits, m.Vtick = 1, 20, vtick
			m.Injected = now
			ni.Inject(0, m)
			*slot = m
		}
		r.Step(now)
		ni.step(now)
		cycle++
		now += cfg.Period
	}
}

// niVariants names the two NIs niStepper builds.
var niVariants = []struct {
	name    string
	policed bool
}{{"unpoliced", false}, {"policed", true}}

// BenchmarkNIStep measures one cycle of an NI with 1 of its 16 VCs
// backlogged: NI.step plus the sparse router Step that returns its credit
// (core's BenchmarkRouterStepSparse prices that Step alone). The policed
// case adds the meter and dropper on every injection.
func BenchmarkNIStep(b *testing.B) {
	for _, nv := range niVariants {
		b.Run(nv.name, func(b *testing.B) {
			_, step := niStepper(b, nv.policed)
			for i := 0; i < 2000; i++ { // warm-up: queue and arena growth
				step()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				step()
			}
		})
	}
}

// TestNIStepZeroAlloc is BenchmarkNIStep's allocation proof: stepping an
// NI over its backlog word, injecting and ejecting, allocates nothing once
// the injection queue has grown to its working set, with or without
// policing. It counts every allocation in a window of cycles, since
// testing.AllocsPerRun rounds its per-run average down. It also checks
// that the policed case polices: its meter colours messages red and its
// dropper drops some.
func TestNIStepZeroAlloc(t *testing.T) {
	const cycles = 1000
	for _, nv := range niVariants {
		t.Run(nv.name, func(t *testing.T) {
			ni, step := niStepper(t, nv.policed)
			for i := 0; i < 2000; i++ {
				step()
			}
			allocs := testing.AllocsPerRun(1, func() {
				for i := 0; i < cycles; i++ {
					step()
				}
			})
			if allocs != 0 {
				t.Fatalf("NI step allocates %.0f objects in %d cycles after warm-up, want 0", allocs, cycles)
			}
			t.Logf("%d flits sent, %d messages coloured yellow and %d red, %d dropped",
				ni.Sent, ni.MeterExceed, ni.MeterViolate, ni.PoliceDrops())
			if nv.policed && (ni.PoliceDrops() == 0 || ni.MeterViolate == 0) {
				t.Fatalf("policed NI dropped %d messages and coloured %d red, want both above 0",
					ni.PoliceDrops(), ni.MeterViolate)
			}
		})
	}
}
