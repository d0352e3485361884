package core

import (
	"testing"

	"mediaworm/internal/flit"
	"mediaworm/internal/sched"
	"mediaworm/internal/sim"
)

const period = 80 * sim.Nanosecond

// capture records flits a consumer accepts. Its full mask starts clear,
// unlimited credit, and a test sets bits to withhold credit.
type capture struct {
	flits []flit.Flit
	full  uint64
}

func (c *capture) Full() *uint64              { return &c.full }
func (c *capture) Accept(vc int, f flit.Flit) { c.flits = append(c.flits, f) }

// hasCredit reports whether input port p, VC v of r can accept a flit: its
// bit of the port's full mask, InputFull, is clear.
func hasCredit(r *Router, p, v int) bool { return *r.InputFull(p)&(1<<uint(v)) == 0 }

// testConfig returns a 2-port, 2-VC router config routing on msg.Dst.
func testConfig(policy sched.Kind) Config {
	return Config{
		Ports:       2,
		VCs:         2,
		RTVCs:       1,
		BufferDepth: 20,
		StageDepth:  4,
		Policy:      policy,
		Period:      period,
		Route:       func(_ int, m *flit.Message, buf []int) []int { return append(buf, m.Dst) },
	}
}

// build creates a router with capture consumers on each output port.
func build(t *testing.T, cfg Config) (*Router, []*capture) {
	t.Helper()
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	caps := make([]*capture, cfg.Ports)
	for p := 0; p < cfg.Ports; p++ {
		caps[p] = &capture{}
		r.Connect(p, caps[p], true)
	}
	return r, caps
}

// msg builds an n-flit real-time message src→dst with the given Vtick.
func msg(id uint64, dst, dstVC, flits int, vtick sim.Time) *flit.Message {
	class := flit.VBR
	if vtick == sim.Forever {
		class = flit.BestEffort
	}
	return &flit.Message{
		ID: id, StreamID: int(id), Class: class, MsgsInFrame: 1,
		Flits: flits, Vtick: vtick, Dst: dst, DstVC: dstVC,
	}
}

// deliver injects all flits of m into (port, vc) at successive cycles
// starting at arrival time t0 (one flit per cycle, like a link), stepping
// the router along; it returns the time after the last delivery.
func deliver(r *Router, port, vc int, m *flit.Message, t0 sim.Time) sim.Time {
	t := t0
	for i := 0; i < m.Flits; i++ {
		r.Deliver(port, vc, flit.Flit{Msg: m, Seq: i, Enq: t})
		t += period
	}
	return t
}

// run steps the router n cycles starting at time start, auditing the
// occupancy masks after each one (a mismatch panics: run has no *T).
func run(r *Router, start sim.Time, n int) sim.Time {
	t := start
	for i := 0; i < n; i++ {
		r.Step(t)
		if err := r.CheckOccupancy(); err != nil {
			panic(err)
		}
		t += period
	}
	return t
}

func TestConfigValidation(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.Ports = 0 },
		func(c *Config) { c.Ports = MaxPorts + 1 },
		func(c *Config) { c.VCs = 0 },
		func(c *Config) { c.VCs = sched.MaxVCs + 1 },
		func(c *Config) { c.RTVCs = -1 },
		func(c *Config) { c.RTVCs = c.VCs + 1 },
		func(c *Config) { c.BufferDepth = 0 },
		func(c *Config) { c.StageDepth = 0 },
		func(c *Config) { c.Period = 0 },
		func(c *Config) { c.Route = nil },
	}
	for i, mutate := range bad {
		cfg := testConfig(sched.FIFO)
		mutate(&cfg)
		if _, err := New(cfg); err == nil {
			t.Fatalf("mutation %d accepted", i)
		}
	}
	if _, err := New(testConfig(sched.FIFO)); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
}

func TestSingleMessageTraversal(t *testing.T) {
	r, caps := build(t, testConfig(sched.VirtualClock))
	m := msg(1, 1, 0, 5, 100)
	// Flits arrive starting at t=period (cycle 1).
	deliver(r, 0, 0, m, period)
	run(r, 0, 40)

	got := caps[1].flits
	if len(got) != 5 {
		t.Fatalf("delivered %d flits, want 5", len(got))
	}
	for i, f := range got {
		if f.Msg != m || f.Seq != i {
			t.Fatalf("flit %d out of order: %+v", i, f)
		}
	}
	// Header pipeline latency: arrival at cycle 1, stage-1 visible cycle 2,
	// routing+allocation (overlapped stages 2–3) cycle 2, crossbar cycle 3,
	// transmit cycle 4, downstream arrival (Enq) cycle 5.
	if got[0].Enq != 5*period {
		t.Fatalf("header arrived at %v, want %v", got[0].Enq, 5*period)
	}
	// Subsequent flits stream one per cycle.
	for i := 1; i < 5; i++ {
		if got[i].Enq != got[i-1].Enq+period {
			t.Fatalf("flit %d not back-to-back: %v after %v", i, got[i].Enq, got[i-1].Enq)
		}
	}
	if caps[0].flits != nil {
		t.Fatal("flits leaked to the wrong output port")
	}
	if !r.Quiesced() {
		t.Fatal("router not quiesced after drain")
	}
	st := r.Stats()
	if st.FlitsSwitched != 5 || st.FlitsTransmitted != 5 || st.MessagesRouted != 1 {
		t.Fatalf("stats %+v", st)
	}
}

func TestSingleFlitMessage(t *testing.T) {
	r, caps := build(t, testConfig(sched.FIFO))
	m := msg(1, 0, 0, 1, 100)
	deliver(r, 1, 0, m, period)
	run(r, 0, 20)
	if len(caps[0].flits) != 1 {
		t.Fatalf("1-flit message delivered %d flits", len(caps[0].flits))
	}
	if !r.Quiesced() {
		t.Fatal("not quiesced")
	}
}

func TestCredits(t *testing.T) {
	cfg := testConfig(sched.FIFO)
	cfg.BufferDepth = 3
	r, _ := build(t, cfg)
	m := msg(1, 1, 0, 3, 100)
	if !hasCredit(r, 0, 0) {
		t.Fatal("fresh router should have credit")
	}
	deliver(r, 0, 0, m, period)
	if hasCredit(r, 0, 0) {
		t.Fatal("full buffer should have no credit")
	}
	if !hasCredit(r, 0, 1) || !hasCredit(r, 1, 0) {
		t.Fatal("other VCs/ports should be unaffected")
	}
	run(r, 0, 20)
	if !hasCredit(r, 0, 0) {
		t.Fatal("credit not restored after drain")
	}
}

func TestBufferOverflowPanics(t *testing.T) {
	cfg := testConfig(sched.FIFO)
	cfg.BufferDepth = 2
	r, _ := build(t, cfg)
	m := msg(1, 1, 0, 3, 100)
	defer func() {
		if recover() == nil {
			t.Fatal("credit violation did not panic")
		}
	}()
	deliver(r, 0, 0, m, period) // 3 flits into depth-2 buffer, never stepped
}

func TestOutputPortSharesBandwidth(t *testing.T) {
	// Two messages from different input ports to the same output port on
	// different output VCs: the crossbar output is matched per cycle, so
	// the physical channel carries exactly one flit per cycle and both
	// messages interleave rather than one blocking the other outright.
	r, caps := build(t, testConfig(sched.FIFO))
	a := msg(1, 1, 0, 4, 100)
	b := msg(2, 1, 1, 4, 100)
	deliver(r, 0, 0, a, period)
	deliver(r, 1, 0, b, period)
	run(r, 0, 40)
	got := caps[1].flits
	if len(got) != 8 {
		t.Fatalf("delivered %d flits, want 8", len(got))
	}
	// Link capacity: one flit per cycle, strictly increasing arrivals.
	for i := 1; i < len(got); i++ {
		if got[i].Enq < got[i-1].Enq+period {
			t.Fatalf("output link exceeded one flit per cycle at %d", i)
		}
	}
	// Per-message flit order must still be preserved.
	seqs := map[*flit.Message]int{}
	for _, f := range got {
		if f.Seq != seqs[f.Msg] {
			t.Fatalf("message flits reordered: %+v", f)
		}
		seqs[f.Msg]++
	}
	// Both messages must finish within one link-serialized window plus
	// pipeline depth: 8 flits + 6 cycles of pipeline.
	if last := got[7].Enq; last > 16*period {
		t.Fatalf("messages did not share the output port: last flit at %v", last)
	}
}

func TestSharedEndpointVCInterleaves(t *testing.T) {
	// Endpoint-port output VCs are shared (§4.2.1 multiplexes connections
	// onto a VC): two messages with the same DstVC proceed concurrently and
	// the sink reassembles them per message.
	cfg := testConfig(sched.FIFO)
	cfg.FullCrossbar = true
	r, caps := build(t, cfg)
	a := msg(1, 1, 0, 4, 100)
	b := msg(2, 1, 0, 4, 100)
	deliver(r, 0, 0, a, period)
	deliver(r, 1, 0, b, period)
	run(r, 0, 50)
	got := caps[1].flits
	if len(got) != 8 {
		t.Fatalf("delivered %d, want 8", len(got))
	}
	// Both messages' flits stay internally ordered.
	seqs := map[*flit.Message]int{}
	for _, f := range got {
		if f.Seq != seqs[f.Msg] {
			t.Fatalf("per-message flit order broken: %+v", f)
		}
		seqs[f.Msg]++
	}
	// Concurrency: the second message's header arrives before the first's
	// tail (they share the link cycle-by-cycle).
	if got[1].Msg == got[0].Msg && got[2].Msg == got[0].Msg && got[3].Msg == got[0].Msg {
		t.Fatal("messages fully serialized despite shared endpoint VC")
	}
}

func TestTransitOutputVCSerializes(t *testing.T) {
	// On a transit (router-to-router) port the downstream demultiplexes by
	// VC, so two messages needing the same class partition VC serialize at
	// message granularity when only one VC exists.
	cfg := testConfig(sched.FIFO)
	cfg.VCs = 2
	cfg.RTVCs = 1 // exactly one real-time VC on the transit link
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	vcc := &vcCapture{}
	r.Connect(0, &capture{}, true)
	r.Connect(1, vcc, false)
	seq := &captureSeq{}
	r.Connect(1, seq, false)
	a := msg(1, 1, 0, 4, 100)
	b := msg(2, 1, 0, 4, 100)
	deliver(r, 0, 0, a, period)
	deliver(r, 1, 0, b, period)
	run(r, 0, 60)
	if len(seq.flits) != 8 {
		t.Fatalf("delivered %d, want 8", len(seq.flits))
	}
	first := seq.flits[0].Msg
	for i := 1; i < 4; i++ {
		if seq.flits[i].Msg != first {
			t.Fatal("transit VC shared by two in-flight messages")
		}
	}
}

// captureSeq records flits in arrival order with unlimited credit.
type captureSeq struct{ flits []flit.Flit }

func (c *captureSeq) Full() *uint64             { return &noneFull }
func (c *captureSeq) Accept(_ int, f flit.Flit) { c.flits = append(c.flits, f) }

func TestFullCrossbarParallelTraversal(t *testing.T) {
	// Two messages from the same input port to different outputs: a full
	// crossbar forwards both each cycle (no input mux), so their delivery
	// windows overlap.
	cfg := testConfig(sched.FIFO)
	cfg.FullCrossbar = true
	cfg.RTVCs = 2
	r, caps := build(t, cfg)
	a := msg(1, 0, 0, 6, 100)
	b := msg(2, 1, 0, 6, 100)
	deliver(r, 0, 0, a, period)
	deliver(r, 0, 1, b, period)
	run(r, 0, 40)
	if len(caps[0].flits) != 6 || len(caps[1].flits) != 6 {
		t.Fatalf("delivered %d/%d, want 6/6", len(caps[0].flits), len(caps[1].flits))
	}
	// Overlap: b's header must arrive before a's tail.
	if caps[1].flits[0].Enq >= caps[0].flits[5].Enq {
		t.Fatal("full crossbar did not parallelize same-input traversal")
	}
}

func TestMultiplexedInputMuxSharesBandwidth(t *testing.T) {
	// Same scenario with a multiplexed crossbar: the input mux serves one
	// flit per cycle, so the two messages share the input port's crossbar
	// bandwidth and each drains at half rate once both are active.
	cfg := testConfig(sched.VirtualClock)
	cfg.RTVCs = 2
	r, caps := build(t, cfg)
	a := msg(1, 0, 0, 6, 100)
	b := msg(2, 1, 0, 6, 100)
	deliver(r, 0, 0, a, period)
	deliver(r, 0, 1, b, period)
	run(r, 0, 60)
	if len(caps[0].flits) != 6 || len(caps[1].flits) != 6 {
		t.Fatalf("delivered %d/%d, want 6/6", len(caps[0].flits), len(caps[1].flits))
	}
	// Tails: combined service is 12 flits through one input mux at 1
	// flit/cycle; last tail cannot beat cycle 12 + pipeline depth.
	lastTail := caps[0].flits[5].Enq
	if caps[1].flits[5].Enq > lastTail {
		lastTail = caps[1].flits[5].Enq
	}
	if lastTail < 14*period {
		t.Fatalf("input mux exceeded one flit/cycle: last tail at %v", lastTail)
	}
}

func TestVirtualClockPrioritizesRealTime(t *testing.T) {
	// A best-effort message and a (later-arriving) real-time message from
	// the same input port to different outputs: Virtual Clock must let the
	// real-time flits through first once both are eligible.
	cfg := testConfig(sched.VirtualClock)
	r, _ := build(t, cfg)
	be := msg(1, 0, 1, 10, sim.Forever) // best-effort on VC 1 (BE partition)
	rt := msg(2, 1, 0, 10, 100)         // real-time on VC 0
	deliver(r, 0, 1, be, period)
	deliver(r, 0, 0, rt, 2*period)
	run(r, 0, 60)
	st := r.Stats()
	if st.FlitsTransmitted != 20 {
		t.Fatalf("transmitted %d flits, want 20", st.FlitsTransmitted)
	}
	// Count best-effort flits switched before the real-time tail.
	// With Virtual Clock, once the RT message is active the mux serves RT
	// first every cycle, so BE finishes after RT.
	if !r.Quiesced() {
		t.Fatal("not quiesced")
	}
}

func TestVirtualClockVsFIFOOrdering(t *testing.T) {
	// Deliver a BE burst first, then an RT message, both to different
	// outputs so the input mux is the only contention point. Under FIFO the
	// BE flits (earlier arrivals) win; under Virtual Clock the RT flits win.
	tailOrder := func(policy sched.Kind) (rtTail, beTail sim.Time) {
		cfg := testConfig(policy)
		r, caps := build(t, cfg)
		be := msg(1, 0, 1, 8, sim.Forever)
		rt := msg(2, 1, 0, 8, 100)
		// Both fully buffered before the router starts stepping.
		deliver(r, 0, 1, be, period)
		deliver(r, 0, 0, rt, period)
		run(r, 0, 80)
		if len(caps[0].flits) != 8 || len(caps[1].flits) != 8 {
			t.Fatalf("%v: delivered %d/%d", policy, len(caps[0].flits), len(caps[1].flits))
		}
		return caps[1].flits[7].Enq, caps[0].flits[7].Enq
	}
	rtTailVC, beTailVC := tailOrder(sched.VirtualClock)
	if rtTailVC >= beTailVC {
		t.Fatalf("virtual clock: RT tail %v not before BE tail %v", rtTailVC, beTailVC)
	}
	rtTailFIFO, _ := tailOrder(sched.FIFO)
	if rtTailFIFO <= rtTailVC {
		t.Fatalf("FIFO should delay RT versus Virtual Clock: %v vs %v", rtTailFIFO, rtTailVC)
	}
}

func TestBestEffortUsesBEPartitionAtIntermediateHop(t *testing.T) {
	// Route to a non-endpoint port: VC allocation must come from the class
	// partition, not DstVC.
	cfg := testConfig(sched.FIFO)
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cap0 := &capture{}
	cap1 := &capture{}
	r.Connect(0, cap0, true)
	r.Connect(1, cap1, false) // port 1 is a router-router link
	be := msg(1, 1, 0, 3, sim.Forever)
	rt := msg(2, 1, 0, 3, 100)
	deliver(r, 0, 1, be, period)
	deliver(r, 0, 0, rt, period)
	run(r, 0, 40)
	// RT must leave on VC 0 (RT partition [0,1)), BE on VC 1 ([1,2)).
	// The capture has no VC record per flit... so check via Deliver calls:
	// instead use a consumer that records VCs.
	if len(cap1.flits) != 6 {
		t.Fatalf("delivered %d flits, want 6", len(cap1.flits))
	}
}

// vcCapture records which VC each flit was transmitted on.
type vcCapture struct {
	byVC map[int]int
}

func (c *vcCapture) Full() *uint64 { return &noneFull }
func (c *vcCapture) Accept(vc int, f flit.Flit) {
	if c.byVC == nil {
		c.byVC = map[int]int{}
	}
	c.byVC[vc]++
}

func TestClassPartitionOnTransitLink(t *testing.T) {
	cfg := testConfig(sched.FIFO)
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	vcc := &vcCapture{}
	r.Connect(0, &capture{}, true)
	r.Connect(1, vcc, false)
	be := msg(1, 1, 0, 3, sim.Forever)
	rt := msg(2, 1, 0, 3, 100)
	deliver(r, 0, 1, be, period)
	deliver(r, 0, 0, rt, period)
	run(r, 0, 40)
	if vcc.byVC[0] != 3 || vcc.byVC[1] != 3 {
		t.Fatalf("transit VC usage %v, want 3 flits on VC 0 (RT) and 3 on VC 1 (BE)", vcc.byVC)
	}
}

func TestDownstreamCreditBlocksTransmit(t *testing.T) {
	cfg := testConfig(sched.FIFO)
	r, _ := build(t, cfg)
	down := &capture{full: ^uint64(0)}
	r.Connect(1, down, true)
	m := msg(1, 1, 0, 3, 100)
	deliver(r, 0, 0, m, period)
	run(r, 0, 30)
	if got := r.Stats().FlitsTransmitted; got != 0 {
		t.Fatalf("transmitted %d flits without downstream credit", got)
	}
	down.full &^= 1 // credit on VC 0, the message's DstVC, only
	run(r, 30*period, 30)
	if got := r.Stats().FlitsTransmitted; got != 3 {
		t.Fatalf("transmitted %d after credit restored, want 3", got)
	}
}

func TestFatLinkLoadBalancing(t *testing.T) {
	// Route returns two candidate ports; with one port owned by a long
	// message, the next header must pick the other.
	cfg := testConfig(sched.FIFO)
	cfg.Ports = 3
	cfg.VCs = 2
	cfg.RTVCs = 2
	cfg.Route = func(_ int, m *flit.Message, buf []int) []int {
		if m.Dst == 99 {
			return append(buf, 1, 2) // fat pair
		}
		return append(buf, m.Dst)
	}
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c0, c1, c2 := &vcCapture{}, &vcCapture{}, &vcCapture{}
	r.Connect(0, c0, true)
	r.Connect(1, c1, false)
	r.Connect(2, c2, false)
	a := msg(1, 99, 0, 10, 100)
	b := msg(2, 99, 0, 10, 100)
	deliver(r, 0, 0, a, period)
	deliver(r, 1, 0, b, period) // different input port, same fat destination
	run(r, 0, 60)
	sum := func(c *vcCapture) int {
		t := 0
		for _, n := range c.byVC {
			t += n
		}
		return t
	}
	if sum(c1) != 10 || sum(c2) != 10 {
		t.Fatalf("fat links carried %d/%d flits, want 10/10 (load balanced)", sum(c1), sum(c2))
	}
}

func TestInterleavedMessagesWithinVCPanics(t *testing.T) {
	r, _ := build(t, testConfig(sched.FIFO))
	a := msg(1, 1, 0, 3, 100)
	b := msg(2, 1, 0, 3, 100)
	r.Deliver(0, 0, flit.Flit{Msg: a, Seq: 0, Enq: period})
	defer func() {
		if recover() == nil {
			t.Fatal("interleaving within a VC did not panic")
		}
	}()
	r.Deliver(0, 0, flit.Flit{Msg: b, Seq: 0, Enq: 2 * period})
}

func TestBackToBackMessagesOnOneVC(t *testing.T) {
	// A second message may follow the first on the same VC once the first's
	// tail has been delivered; the router must process both in order.
	r, caps := build(t, testConfig(sched.VirtualClock))
	a := msg(1, 1, 0, 3, 100)
	b := msg(2, 1, 0, 3, 100)
	tEnd := deliver(r, 0, 0, a, period)
	deliver(r, 0, 0, b, tEnd)
	run(r, 0, 60)
	got := caps[1].flits
	if len(got) != 6 {
		t.Fatalf("delivered %d flits, want 6", len(got))
	}
	for i := 0; i < 3; i++ {
		if got[i].Msg != a {
			t.Fatal("first message's flits not first")
		}
		if got[3+i].Msg != b {
			t.Fatal("second message's flits not after the first")
		}
	}
	if !r.Quiesced() {
		t.Fatal("not quiesced")
	}
}

func TestLongMessageLargerThanBuffer(t *testing.T) {
	// Wormhole: a message longer than any buffer streams through.
	cfg := testConfig(sched.VirtualClock)
	cfg.BufferDepth = 4
	r, caps := build(t, cfg)
	m := msg(1, 1, 0, 50, 100)
	// Feed flits only when credit allows, like a real upstream link.
	sent := 0
	for cycle := 1; cycle < 200 && sent < m.Flits; cycle++ {
		now := sim.Time(cycle) * period
		r.Step(now)
		if hasCredit(r, 0, 0) {
			r.Deliver(0, 0, flit.Flit{Msg: m, Seq: sent, Enq: now + period})
			sent++
		}
	}
	run(r, 200*period, 30)
	if len(caps[1].flits) != 50 {
		t.Fatalf("delivered %d flits, want 50", len(caps[1].flits))
	}
	if !r.Quiesced() {
		t.Fatal("not quiesced")
	}
}
