package core

import (
	"testing"

	"mediaworm/internal/flit"
	"mediaworm/internal/obs"
	"mediaworm/internal/sched"
	"mediaworm/internal/sim"
)

// reqConfig returns a router where every output VC must be held exclusively,
// so concurrent headers to one endpoint VC pile up in the stage-3 request
// queue — the surface the lazy-retirement arena discipline manages.
func reqConfig() Config {
	cfg := testConfig(sched.VirtualClock)
	cfg.VCs = 4
	cfg.RTVCs = 4
	cfg.ExclusiveEndpointVCs = true
	return cfg
}

// reqIdxs walks output port p's FCFS request list, returning the flat
// input-VC index of each node in queue order.
func reqIdxs(r *Router, p int) []int32 {
	var out []int32
	for n := r.outs[p].reqHead; n >= 0; n = r.reqNodes[n].next {
		out = append(out, r.reqNodes[n].in)
	}
	return out
}

// freeCount walks the request arena's free list.
func freeCount(r *Router) int {
	c := 0
	for n := r.reqFree; n >= 0; n = r.reqNodes[n].next {
		c++
	}
	return c
}

// TestRemoveRequestCompactsAndZeroes pins the stage-3 queue hygiene: killing
// messages with queued crossbar requests retires the entries in O(1), the
// next cycle's allocation pass frees them back to the arena preserving FCFS
// order among survivors, and freed nodes are cleared so dropped requests
// release their state (the same leak class the ring buffer's pop zeroing
// addresses).
func TestRemoveRequestCompactsAndZeroes(t *testing.T) {
	r, caps := build(t, reqConfig())
	msgs := make([]*flit.Message, 4)
	for v := 0; v < 4; v++ {
		msgs[v] = msg(uint64(v+1), 1, 0, 2, 100)
		deliver(r, 0, v, msgs[v], period)
	}
	// All four headers are visible: stage 2 submits four requests for
	// (port 1, VC 0); stage 3 grants the first and keeps three.
	step(t, r, 3*period)
	if got := reqIdxs(r, 1); len(got) != 3 {
		t.Fatalf("queued requests = %d, want 3", len(got))
	}
	nodes := len(r.reqNodes)

	r.kill(0, msgs[1], obs.CauseTimeout)
	r.kill(0, msgs[2], obs.CauseTimeout)
	step(t, r, 4*period)

	live := reqIdxs(r, 1)
	if len(live) != 1 {
		t.Fatalf("requests after reaping two dead heads = %d, want 1", len(live))
	}
	if live[0] != 3 { // port 0, VC 3 — the FCFS-next live header
		t.Fatalf("surviving request is input VC %d, want 3", live[0])
	}
	if r.outs[1].stale != 0 {
		t.Fatalf("stale counter = %d after compaction, want 0", r.outs[1].stale)
	}
	// Freed nodes are cleared and recirculate through the free list; the
	// arena itself must not have grown.
	if len(r.reqNodes) != nodes {
		t.Fatalf("request arena grew %d → %d during retirement", nodes, len(r.reqNodes))
	}
	for n := r.reqFree; n >= 0; n = r.reqNodes[n].next {
		if r.reqNodes[n].in != -1 || r.reqNodes[n].at != 0 || r.reqNodes[n].seq != 0 {
			t.Fatalf("freed request node %d still holds %+v", n, r.reqNodes[n])
		}
	}
	if freeCount(r) == 0 {
		t.Fatal("no freed nodes on the arena free list")
	}

	// Drain: the two live messages are delivered, the dead ones reaped.
	final := run(r, 5*period, 40)
	_ = final
	if !r.Quiesced() {
		t.Fatal("router did not quiesce after draining")
	}
	if got := r.stats.FlitsDropped; got != 4 {
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
// header in the same stage-2 pass, so the retired node and the new live
// node briefly share the queue. The seq match must grant only the live one.
func TestRetiredRequestCoexistsWithResubmission(t *testing.T) {
	r, caps := build(t, reqConfig())
	blocker := msg(1, 1, 0, 2, 100)
	dead := msg(2, 1, 0, 2, 100)
	next := msg(3, 1, 0, 2, 100)
	deliver(r, 0, 0, blocker, period)
	t1 := deliver(r, 0, 1, dead, period)
	deliver(r, 0, 1, next, t1) // queued behind dead on the same VC
	step(t, r, 4*period)       // blocker granted; dead's request queued
	if got := reqIdxs(r, 1); len(got) != 1 {
		t.Fatalf("queued requests = %d, want 1", len(got))
	}

	r.kill(0, dead, obs.CauseTimeout)
	step(t, r, 5*period) // reap retires dead's entry, next's header resubmits
	live := reqIdxs(r, 1)
	if len(live) != 1 || live[0] != 1 || r.inv[1].headMsg != next {
		t.Fatalf("live request not preserved across retirement: idxs=%v head=%v", live, r.inv[1].headMsg)
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

// TestSetLinkUpZeroesClearedRequests pins the interaction between lazy
// retirement and link failure: taking a link down resets the live waiters
// for rerouting and frees the cleared queue's nodes so no request slot
// keeps its state past the clear.
func TestSetLinkUpZeroesClearedRequests(t *testing.T) {
	r, _ := build(t, reqConfig())
	blocker := msg(1, 1, 0, 4, 100)
	waiter := msg(2, 1, 0, 2, 100)
	deliver(r, 0, 0, blocker, period)
	deliver(r, 0, 1, waiter, period)
	step(t, r, 3*period) // blocker granted on port 1, waiter queued
	if got := reqIdxs(r, 1); len(got) != 1 {
		t.Fatalf("queued requests = %d, want 1", len(got))
	}

	freeBefore := freeCount(r)
	r.SetLinkUp(1, false)
	if err := r.CheckOccupancy(); err != nil {
		t.Fatalf("after SetLinkUp: %v", err)
	}
	if got := reqIdxs(r, 1); len(got) != 0 {
		t.Fatalf("request queue not cleared on link down: %d", len(got))
	}
	if r.outs[1].reqLen != 0 || r.outs[1].stale != 0 {
		t.Fatalf("reqLen/stale = %d/%d after clear, want 0/0", r.outs[1].reqLen, r.outs[1].stale)
	}
	if freeCount(r) != freeBefore+1 {
		t.Fatalf("cleared request node not returned to the free list")
	}
	if ph := r.inv[1].phase; ph != vcIdle {
		t.Fatalf("waiter phase = %v after link down, want vcIdle for rerouting", ph)
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
