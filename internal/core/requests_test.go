package core

import (
	"slices"
	"testing"

	"mediaworm/internal/flit"
	"mediaworm/internal/obs"
	"mediaworm/internal/sched"
	"mediaworm/internal/sim"
)

// reqConfig returns a router where every output VC must be held exclusively,
// so concurrent headers to one endpoint VC wait in stage 3 for it.
func reqConfig() Config {
	cfg := testConfig(sched.VirtualClock)
	cfg.VCs = 4
	cfg.RTVCs = 4
	cfg.ExclusiveEndpointVCs = true
	return cfg
}

// waitingAt copies output port p's waiting headers, as flat input-VC
// indexes in FCFS order, out of the router's scratch.
func waitingAt(r *Router, p int) []int32 {
	return slices.Clone(r.waiting(p))
}

// headerOrder returns the IDs of the messages whose headers c received, in
// arrival order.
func headerOrder(c *capture) []uint64 {
	var ids []uint64
	for _, f := range c.flits {
		if f.IsHeader() {
			ids = append(ids, f.Msg.ID)
		}
	}
	return ids
}

// TestWaitingHeadersGrantedInRequestOrder pins stage 3's FCFS order: the
// headers waiting for a held output VC are granted in the order they
// requested it, not in input-VC index order. A header on input port 1
// requests the VC a cycle before one on input port 0, VC 1, whose flat
// index is lower.
func TestWaitingHeadersGrantedInRequestOrder(t *testing.T) {
	cfg := reqConfig()
	cfg.Ports = 3
	r, caps := build(t, cfg)
	deliver(r, 0, 0, msg(1, 2, 0, 6, 100), period) // holds the endpoint VC
	deliver(r, 1, 0, msg(2, 2, 0, 2, 100), period)
	deliver(r, 0, 1, msg(3, 2, 0, 2, 100), 2*period)
	step(t, r, 2*period) // the holder is granted, message 2 waits
	step(t, r, 3*period) // message 3 waits behind it
	if got, want := waitingAt(r, 2), []int32{int32(r.nvc), 1}; !slices.Equal(got, want) {
		t.Fatalf("waiting headers %v, want input VCs %v in request order", got, want)
	}
	run(r, 4*period, 40)
	if !r.Quiesced() {
		t.Fatal("router did not quiesce")
	}
	if got, want := headerOrder(caps[2]), []uint64{1, 2, 3}; !slices.Equal(got, want) {
		t.Fatalf("messages left in order %v, want %v", got, want)
	}
}

// TestReapedWaitingHeadersKeepFCFSOrder pins request retirement: killing
// messages whose headers wait for an output VC retires their requests by
// the phase change alone, the surviving waiter keeps its place, and the
// dead worms are reaped while the live ones are delivered.
func TestReapedWaitingHeadersKeepFCFSOrder(t *testing.T) {
	r, caps := build(t, reqConfig())
	msgs := make([]*flit.Message, 4)
	for v := 0; v < 4; v++ {
		msgs[v] = msg(uint64(v+1), 1, 0, 2, 100)
		deliver(r, 0, v, msgs[v], period)
	}
	// All four headers are visible: stage 2 submits four requests for
	// (port 1, VC 0); stage 3 grants the first and three wait.
	step(t, r, 3*period)
	if got := waitingAt(r, 1); !slices.Equal(got, []int32{1, 2, 3}) {
		t.Fatalf("waiting headers %v, want input VCs [1 2 3]", got)
	}

	r.kill(0, msgs[1], obs.CauseTimeout)
	r.kill(0, msgs[2], obs.CauseTimeout)
	step(t, r, 4*period)
	if got := waitingAt(r, 1); !slices.Equal(got, []int32{3}) {
		t.Fatalf("waiting headers after reaping two dead heads %v, want input VC [3]", got)
	}
	for v := 1; v <= 2; v++ {
		if in := &r.inv[v]; in.phase != vcIdle || in.headMsg != nil || !in.q.empty() {
			t.Fatalf("reaped input VC %d: phase %v, head %v, %d flits; want idle and empty",
				v, in.phase, in.headMsg, in.q.len())
		}
	}

	// Drain: the two live messages are delivered, the dead ones reaped.
	run(r, 5*period, 40)
	if !r.Quiesced() {
		t.Fatal("router did not quiesce after draining")
	}
	if got := r.Stats().FlitsDropped; got != 4 {
		t.Fatalf("FlitsDropped = %d, want 4 (two 2-flit dead messages)", got)
	}
	delivered := map[uint64]int{}
	for _, f := range caps[1].flits {
		delivered[f.Msg.ID]++
	}
	if delivered[1] != 2 || delivered[4] != 2 || len(delivered) != 2 {
		t.Fatalf("delivered flits per message = %v, want {1:2 4:2}", delivered)
	}
}

// TestRetiredRequestCoexistsWithResubmission covers the same-cycle hazard:
// a VC whose dead head is reaped resubmits a request for the next buffered
// header in the same stage-2 pass. The VC then waits once, for the new
// header, with a fresh sequence number and request instant.
func TestRetiredRequestCoexistsWithResubmission(t *testing.T) {
	r, caps := build(t, reqConfig())
	blocker := msg(1, 1, 0, 2, 100)
	dead := msg(2, 1, 0, 2, 100)
	next := msg(3, 1, 0, 2, 100)
	deliver(r, 0, 0, blocker, period)
	t1 := deliver(r, 0, 1, dead, period)
	deliver(r, 0, 1, next, t1) // queued behind dead on the same VC
	step(t, r, 4*period)       // blocker granted; dead's header waits
	if got := waitingAt(r, 1); !slices.Equal(got, []int32{1}) {
		t.Fatalf("waiting headers %v, want input VC [1]", got)
	}
	if in := &r.inv[1]; in.reqSeq != 1 || in.reqAt != 4*period {
		t.Fatalf("dead's request seq %d at %d, want seq 1 at %d", in.reqSeq, in.reqAt, 4*period)
	}

	r.kill(0, dead, obs.CauseTimeout)
	step(t, r, 5*period) // reap retires dead's request, next's header resubmits
	in := &r.inv[1]
	if got := waitingAt(r, 1); !slices.Equal(got, []int32{1}) || in.headMsg != next {
		t.Fatalf("waiting headers %v with head %v, want input VC [1] waiting for message 3", got, in.headMsg)
	}
	if in.reqSeq != 2 || in.reqAt != 5*period {
		t.Fatalf("resubmitted request seq %d at %d, want seq 2 at %d", in.reqSeq, in.reqAt, 5*period)
	}

	run(r, 6*period, 40)
	if !r.Quiesced() {
		t.Fatal("router did not quiesce")
	}
	delivered := map[uint64]int{}
	for _, f := range caps[1].flits {
		delivered[f.Msg.ID]++
	}
	if delivered[1] != 2 || delivered[3] != 2 || len(delivered) != 2 {
		t.Fatalf("delivered flits per message = %v, want {1:2 3:2}", delivered)
	}
}

// TestSetLinkUpReroutesWaitingHeaders pins link failure at a port with a
// waiting header: taking the link down returns the header to routing, so
// no header waits at the dead port, and the next cycles kill both worms
// for want of a route.
func TestSetLinkUpReroutesWaitingHeaders(t *testing.T) {
	r, _ := build(t, reqConfig())
	blocker := msg(1, 1, 0, 4, 100)
	waiter := msg(2, 1, 0, 2, 100)
	deliver(r, 0, 0, blocker, period)
	deliver(r, 0, 1, waiter, period)
	step(t, r, 3*period) // blocker granted on port 1, waiter waits
	if got := waitingAt(r, 1); !slices.Equal(got, []int32{1}) {
		t.Fatalf("waiting headers %v, want input VC [1]", got)
	}

	r.SetLinkUp(1, false)
	if err := r.CheckOccupancy(); err != nil {
		t.Fatalf("after SetLinkUp: %v", err)
	}
	if got := waitingAt(r, 1); len(got) != 0 {
		t.Fatalf("headers %v still wait at the dead port", got)
	}
	if in := &r.inv[1]; in.phase != vcIdle || in.headMsg != nil {
		t.Fatalf("waiter phase %v, head %v after link down, want vcIdle for rerouting", in.phase, in.headMsg)
	}

	// With the only route dead, the next cycles kill and reap both worms;
	// the router must come back to a clean quiescent state.
	run(r, 4*period, 40)
	if !r.Quiesced() {
		t.Fatal("router did not quiesce after link failure")
	}
	if !blocker.Dead || !waiter.Dead {
		t.Fatal("messages straddling or routed to the dead link not killed")
	}
}

// TestSetRTVCsRetriesWaitingHeaders pins the retry flag's partition
// trigger: a best-effort header refused because the one best-effort VC of
// a transit port is held is granted in the cycle after SetRTVCs widens the
// best-effort partition, although no output VC was released.
func TestSetRTVCsRetriesWaitingHeaders(t *testing.T) {
	cfg := testConfig(sched.VirtualClock)
	cfg.VCs, cfg.RTVCs = 4, 3
	r, _ := build(t, cfg)
	r.Connect(1, stuck{}, false) // the holder never drains
	deliver(r, 0, 0, msg(1, 1, 0, 8, sim.Forever), period)
	deliver(r, 0, 1, msg(2, 1, 0, 2, sim.Forever), period)
	now := run(r, 2*period, 10)
	if in := &r.inv[1]; in.phase != vcRequested {
		t.Fatalf("waiter phase %v, want vcRequested behind the held best-effort VC", in.phase)
	}
	r.SetRTVCs(2)
	if err := r.CheckOccupancy(); err != nil {
		t.Fatalf("after SetRTVCs: %v", err)
	}
	step(t, r, now)
	if in := &r.inv[1]; in.phase != vcActive || in.outVC != 2 {
		t.Fatalf("waiter phase %v on VC %d after repartition, want vcActive on VC 2", in.phase, in.outVC)
	}
}
