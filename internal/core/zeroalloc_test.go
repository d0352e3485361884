package core

import (
	"testing"

	"mediaworm/internal/flit"
	"mediaworm/internal/sched"
	"mediaworm/internal/sim"
)

// TestRouterChurnZeroAlloc is the allocation proof for stage 3 under
// contention: after one warm-up iteration, sustained request churn — four
// competing headers per round, two killed while waiting, survivors
// drained, messages recycled — performs zero heap allocations. This is the
// property BenchmarkRouterRequestChurn measures.
func TestRouterChurnZeroAlloc(t *testing.T) {
	cfg := testConfig(sched.VirtualClock)
	cfg.VCs = 4
	cfg.RTVCs = 4
	cfg.ExclusiveEndpointVCs = true
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for p := 0; p < cfg.Ports; p++ {
		r.Connect(p, devNull{}, true)
	}
	pool := flit.NewPool(8)
	now := sim.Time(0)
	var id uint64
	now = churnIteration(r, pool, now, &id) // warm-up: fills the message pool
	if !r.Quiesced() {
		t.Fatal("router did not drain after warm-up")
	}
	allocs := testing.AllocsPerRun(100, func() {
		now = churnIteration(r, pool, now, &id)
	})
	if allocs != 0 {
		t.Fatalf("request churn allocates %.1f objects/op after warm-up, want 0", allocs)
	}
	if !r.Quiesced() {
		t.Fatal("router did not drain")
	}
}

// streamStepper returns one cycle of a saturated wormhole stream: a flit
// of 64-flit messages into input port 0, VC 0 (credit permitting), bound
// for port 1, then a Step. Messages recycle through a pool, so steady
// state allocates nothing outside the router.
func streamStepper(r *Router) func() {
	pool := flit.NewPool(4)
	now := sim.Time(0)
	var id uint64
	var m, prev *flit.Message
	seq := 0
	return func() {
		if m == nil || seq == m.Flits {
			// Recycle with one message of lag: when message k starts, k−2
			// drained long ago (64 flits dwarf the pipeline and buffers),
			// while k−1 may still have flits in flight.
			pool.Put(prev)
			prev = m
			id++
			m = pool.Get()
			m.ID = id
			m.StreamID = int(id)
			m.Class = flit.VBR
			m.MsgsInFrame = 1
			m.Flits = 64
			m.Vtick = 100
			m.Dst = 1
			seq = 0
		}
		if r.inv[0].q.space() > 0 {
			r.Deliver(0, 0, flit.Flit{Msg: m, Seq: seq, Enq: now})
			seq++
		}
		r.Step(now)
		now += period
	}
}

// stepZeroAlloc builds a router from cfg with sinks on every port and
// fails unless the cycle stepper returns runs allocation-free after
// warm-up. It returns the router for further checks.
//
// It counts every allocation in a window of cycles, since
// testing.AllocsPerRun rounds its per-run average down: measured one cycle
// per run, a flit switched every other cycle that allocated would read 0.
func stepZeroAlloc(t *testing.T, cfg Config, stepper func(*Router) func()) *Router {
	t.Helper()
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for p := 0; p < cfg.Ports; p++ {
		r.Connect(p, devNull{}, true)
	}
	step := stepper(r)
	for i := 0; i < 200; i++ { // warm-up: first messages
		step()
	}
	const cycles = 1000
	allocs := testing.AllocsPerRun(1, func() {
		for i := 0; i < cycles; i++ {
			step()
		}
	})
	if allocs != 0 {
		t.Fatalf("Step allocates %.0f objects in %d cycles after warm-up, want 0", allocs, cycles)
	}
	return r
}

// TestRouterStepStreamZeroAlloc proves the streaming hot path (Deliver +
// Step under a saturated wormhole stream) stays allocation-free with the
// flat VC tables.
func TestRouterStepStreamZeroAlloc(t *testing.T) {
	stepZeroAlloc(t, testConfig(sched.VirtualClock), streamStepper)
}

// idleStepper returns one cycle of a quiesced router: a Step with nothing
// delivered.
func idleStepper(r *Router) func() {
	now := sim.Time(0)
	return func() {
		r.Step(now)
		now += period
	}
}

// TestRouterStepIdleZeroAlloc is BenchmarkRouterStepIdle's allocation
// proof: a Step on a router with nothing to do returns without
// allocating.
func TestRouterStepIdleZeroAlloc(t *testing.T) {
	stepZeroAlloc(t, testConfig(sched.VirtualClock), idleStepper)
}

// TestRouterStepSparseZeroAlloc is BenchmarkRouterStepSparse's allocation
// proof: the masked stages on the 8-port, 16-VC router allocate nothing.
func TestRouterStepSparseZeroAlloc(t *testing.T) {
	stepZeroAlloc(t, sparseConfig(), streamStepper)
}

// TestRouterStepWideZeroAlloc is BenchmarkRouterStepWide's allocation
// proof: the summary walks on the 64-port router allocate nothing.
func TestRouterStepWideZeroAlloc(t *testing.T) {
	stepZeroAlloc(t, wideConfig(), streamStepper)
}

// TestRouterStepBlockedZeroAlloc is BenchmarkRouterStepBlocked's
// allocation proof. It also checks that the benchmark measures what it
// says: the twelve holders granted and stalled, six headers still waiting
// at the transit port, and the port not flagged for a retry.
func TestRouterStepBlockedZeroAlloc(t *testing.T) {
	r := stepZeroAlloc(t, sparseConfig(), blockedStepper)
	if err := r.CheckOccupancy(); err != nil {
		t.Fatal(err)
	}
	if got := r.Stats().MessagesRouted; got != uint64(r.rtVCs) {
		t.Fatalf("%d headers granted, want %d holders", got, r.rtVCs)
	}
	if got, flagged := len(r.waiting(1)), r.retry&(1<<1) != 0; got != 6 || flagged {
		t.Fatalf("%d headers waiting at port 1 (retry flag %v), want 6 with the flag clear", got, flagged)
	}
}
