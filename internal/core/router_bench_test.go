package core

import (
	"testing"

	"mediaworm/internal/flit"
	"mediaworm/internal/obs"
	"mediaworm/internal/sched"
	"mediaworm/internal/sim"
)

// noneFull is the full mask of the test consumers with unlimited credit.
var noneFull uint64

// devNull accepts every flit with unlimited credit and drops it, so router
// benchmarks measure the pipeline, not a capture slice growing.
type devNull struct{}

func (devNull) Full() *uint64         { return &noneFull }
func (devNull) Accept(int, flit.Flit) {}

func benchRouter(b *testing.B, cfg Config) *Router {
	b.Helper()
	r, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	for p := 0; p < cfg.Ports; p++ {
		r.Connect(p, devNull{}, true)
	}
	return r
}

// BenchmarkRouterStepStream measures the per-cycle cost of a router carrying
// a saturated wormhole stream: one flit in (credit permitting) and one flit
// out per Step. Injection backs off when the input VC buffer is full, like
// a link honouring credits, so per-message header latency cannot overflow
// the ring over a long run.
func BenchmarkRouterStepStream(b *testing.B) {
	r := benchRouter(b, testConfig(sched.VirtualClock))
	t := sim.Time(0)
	var (
		m   *flit.Message
		seq int
		id  uint64
	)
	buf := &r.inv[0].q
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if m == nil || seq == m.Flits {
			id++
			m = msg(id, 1, 0, 64, 100)
			seq = 0
		}
		if buf.space() > 0 {
			r.Deliver(0, 0, flit.Flit{Msg: m, Seq: seq, Enq: t})
			seq++
		}
		r.Step(t)
		t += period
	}
}

// BenchmarkRouterStepIdle measures Step on a quiesced router — the cost the
// fabric pays per router on cycles where a neighbour still has work. An
// idle step is an early return once the occupancy masks read empty.
func BenchmarkRouterStepIdle(b *testing.B) {
	r := benchRouter(b, testConfig(sched.VirtualClock))
	t := sim.Time(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Step(t)
		t += period
	}
}

// sparseConfig is the paper's §5 switch shape — 8 ports × 16 VCs — with
// the test router's buffers and routing.
func sparseConfig() Config {
	cfg := testConfig(sched.VirtualClock)
	cfg.Ports, cfg.VCs, cfg.RTVCs = 8, 16, 12
	return cfg
}

// BenchmarkRouterStepSparse measures Step on the 8-port, 16-VC router
// carrying one saturated worm stream: one of 128 input VCs and one output
// VC occupied, the sparse case the occupancy masks make proportional to
// the occupied VCs rather than to ports × VCs.
func BenchmarkRouterStepSparse(b *testing.B) {
	r := benchRouter(b, sparseConfig())
	step := streamStepper(r)
	for i := 0; i < 200; i++ { // warm-up: first messages
		step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
}

// wideConfig is the sparse benchmark's router widened to 64 ports.
func wideConfig() Config {
	cfg := sparseConfig()
	cfg.Ports = 64
	return cfg
}

// BenchmarkRouterStepWide measures Step on a 64-port, 16-VC router
// carrying the same single worm stream as BenchmarkRouterStepSparse. The
// stages walk only the ports the port summaries mark, so its ns/op should
// stay close to the 8-port router's instead of growing with the port
// count.
func BenchmarkRouterStepWide(b *testing.B) {
	r := benchRouter(b, wideConfig())
	step := streamStepper(r)
	for i := 0; i < 200; i++ { // warm-up: first messages
		step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
}

// stuck is a downstream router input with no credit on any VC: worms sent
// to it stall with their output VCs held.
type stuck struct{}

// allFull is stuck's full mask: no VC has credit.
var allFull = ^uint64(0)

func (stuck) Full() *uint64         { return &allFull }
func (stuck) Accept(int, flit.Flit) { panic("core: flit accepted without credit") }

// blockedStepper makes port 1 of r a transit port with no downstream
// credit, parks a worm on each of its real-time output VCs from input
// port 0, and queues six more real-time headers for it from input port 2.
// It returns one cycle, a Step; once the holders have filled their staging
// buffers, each cycle finds the same stalled worms and waiting headers.
func blockedStepper(r *Router) func() {
	r.Connect(1, stuck{}, false)
	now := period
	var id uint64
	for _, src := range []struct{ port, msgs int }{{0, r.rtVCs}, {2, 6}} {
		for v := 0; v < src.msgs; v++ {
			id++
			deliver(r, src.port, v, msg(id, 1, 0, 8, 100), now)
		}
	}
	return func() {
		r.Step(now)
		now += period
	}
}

// BenchmarkRouterStepBlocked measures Step on the 8-port, 16-VC router
// while six headers wait for an output VC at a transit port whose twelve
// real-time VCs are all held by worms with no downstream credit: the
// blocked case the stage-3 retry flag and the phase masks skip, which
// BenchmarkRouterStepSparse never reaches.
func BenchmarkRouterStepBlocked(b *testing.B) {
	r := benchRouter(b, sparseConfig())
	step := blockedStepper(r)
	for i := 0; i < 200; i++ { // warm-up: grants, staging fills
		step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
}

// churnIteration drives one full request-churn cycle: four headers compete
// for one exclusive endpoint VC, two die while waiting, the survivors
// drain, and the messages recycle through the pool.
func churnIteration(r *Router, pool *flit.Pool, t sim.Time, id *uint64) sim.Time {
	var msgs [4]*flit.Message
	for v := 0; v < 4; v++ {
		*id++
		m := pool.Get()
		m.ID = *id
		m.StreamID = int(*id)
		m.Class = flit.VBR
		m.MsgsInFrame = 1
		m.Flits = 2
		m.Vtick = 100
		m.Dst = 1
		msgs[v] = m
		for s := 0; s < 2; s++ {
			r.Deliver(0, v, flit.Flit{Msg: m, Seq: s, Enq: t})
		}
	}
	r.kill(0, msgs[1], obs.CauseTimeout)
	r.kill(0, msgs[2], obs.CauseTimeout)
	for c := 0; c < 24; c++ {
		r.Step(t)
		t += period
	}
	for _, m := range msgs {
		pool.Put(m) // drained or reaped: no buffer references m anymore
	}
	return t
}

// BenchmarkRouterRequestChurn measures stage 3 under contention, with
// waiting headers retired mid-queue. Steady state must not allocate:
// waiting headers live in the input-VC table and messages recycle through
// the flit.Pool (TestRouterChurnZeroAlloc is the proof).
func BenchmarkRouterRequestChurn(b *testing.B) {
	cfg := testConfig(sched.VirtualClock)
	cfg.VCs = 4
	cfg.RTVCs = 4
	cfg.ExclusiveEndpointVCs = true
	r := benchRouter(b, cfg)
	pool := flit.NewPool(8)
	t := sim.Time(0)
	var id uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t = churnIteration(r, pool, t, &id)
		if !r.Quiesced() {
			b.Fatal("router did not drain between iterations")
		}
	}
}
