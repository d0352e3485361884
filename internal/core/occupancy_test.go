package core

import (
	"bytes"
	"fmt"
	"testing"

	"mediaworm/internal/flit"
	"mediaworm/internal/obs"
	"mediaworm/internal/sched"
	"mediaworm/internal/sim"
	"mediaworm/internal/snapshot"
)

// step advances r one cycle and audits its occupancy masks against the VC
// tables, so a stage that forgets to keep a bit in step fails at the cycle
// it happens.
func step(t *testing.T, r *Router, now sim.Time) {
	t.Helper()
	r.Step(now)
	if err := r.CheckOccupancy(); err != nil {
		t.Fatalf("t=%d: %v", now, err)
	}
}

// TestOccupancyThroughSetLinkUpMidWorm takes an output link down while a
// worm straddles it — flits staged on the link, the output VC held, more
// flits buffered at the input — and audits the masks from the failure
// until the dead worm has unravelled.
func TestOccupancyThroughSetLinkUpMidWorm(t *testing.T) {
	cfg := testConfig(sched.VirtualClock)
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r.Connect(0, &capture{}, true)
	out := &capture{}
	r.Connect(1, out, false) // transit port: the worm holds its output VC
	worm := msg(1, 1, 0, 30, 100)
	now := period
	for seq := 0; seq < 12; seq++ {
		r.Deliver(0, 0, flit.Flit{Msg: worm, Seq: seq, Enq: now})
		step(t, r, now)
		now += period
	}
	if len(out.flits) == 0 || r.outv[r.nvc].stage.empty() || r.outv[r.nvc].busy != worm {
		t.Fatalf("worm not straddling the link: %d sent, staged %d, holder %v",
			len(out.flits), r.outv[r.nvc].stage.len(), r.outv[r.nvc].busy)
	}
	r.SetLinkUp(1, false)
	if err := r.CheckOccupancy(); err != nil {
		t.Fatalf("after SetLinkUp: %v", err)
	}
	if !worm.Dead || !r.ownKilled {
		t.Fatalf("link failure left worm dead=%v, kill flag %v", worm.Dead, r.ownKilled)
	}
	for i := 0; i < 10; i++ {
		step(t, r, now)
		now += period
	}
	if !r.Quiesced() || !r.idle() {
		t.Fatalf("router not quiesced after the dead worm unravelled")
	}
	if got := uint64(len(out.flits)) + r.Stats().FlitsDropped; got != 12 {
		t.Fatalf("sent %d + dropped %d != 12 delivered flits", len(out.flits), r.Stats().FlitsDropped)
	}
}

// TestOccupancyRebuiltOnRestore checkpoints a busy router — several worms
// requesting, granted and staged — at every cycle until it drains, and
// restores each checkpoint into a fresh router: the derived masks must
// come back equal to the originals and pass the audit, and the two routers
// must still agree, masks and counters, after stepping one more cycle.
// Checkpoints taken just after a tail released an output VC catch a
// restore that leaves the waiting headers' retry flag down; a grant in the
// next cycle catches one that loses a waiting header's request instant.
// The original runs untraced and traced, each restored into an untraced
// router built from the same config: tracing observes the router, so a
// traced router's arbiters must encode like an untraced one's and both
// must step alike.
func TestOccupancyRebuiltOnRestore(t *testing.T) {
	for _, name := range []string{"untraced", "traced"} {
		t.Run(name, func(t *testing.T) {
			cfg := reqConfig()
			cfg.Ports = 3
			acfg := cfg
			if name == "traced" {
				acfg.Tracer = obs.New(obs.Options{Enabled: true})
			}
			a, _ := build(t, acfg)
			for v := 0; v < 4; v++ {
				deliver(a, v%2, v, msg(uint64(v+1), 2, 0, 6, 100), period)
			}
			now := period
			for cycle := 0; !a.Quiesced(); cycle++ {
				if cycle > 100 {
					t.Fatal("router did not drain")
				}
				b := restored(t, a, cfg)
				if err := b.CheckOccupancy(); err != nil {
					t.Fatalf("cycle %d, after RestoreState: %v", cycle, err)
				}
				if err := sameMasks(a, b); err != nil {
					t.Fatalf("cycle %d, after RestoreState: %v", cycle, err)
				}
				step(t, a, now)
				step(t, b, now)
				if err := sameMasks(a, b); err != nil {
					t.Fatalf("cycle %d, one step after RestoreState: %v", cycle, err)
				}
				if a.Stats() != b.Stats() {
					t.Fatalf("cycle %d, one step after RestoreState: counters %+v, want %+v", cycle, b.Stats(), a.Stats())
				}
				now += period
			}
		})
	}
}

// restored checkpoints a and restores the checkpoint into a fresh router
// built from cfg.
func restored(t *testing.T, a *Router, cfg Config) *Router {
	t.Helper()
	tbl := flit.NewMsgTable()
	a.CollectMessages(tbl)
	w := snapshot.NewWriter()
	if err := tbl.Encode(w); err != nil {
		t.Fatal(err)
	}
	if err := a.EncodeState(w, tbl); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := w.Flush(&buf); err != nil {
		t.Fatal(err)
	}
	rd, err := snapshot.NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	rtbl, err := flit.DecodeMsgTable(rd)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := build(t, cfg)
	if err := b.RestoreState(rd, rtbl); err != nil {
		t.Fatal(err)
	}
	return b
}

// sameMasks reports the first occupancy, stage-full, phase, input-full,
// fresh-head or target mask word, or port summary, where b differs from a.
func sameMasks(a, b *Router) error {
	for i := range a.inMask {
		if a.inMask[i] != b.inMask[i] || a.outMask[i] != b.outMask[i] || a.fullMask[i] != b.fullMask[i] ||
			a.actMask[i] != b.actMask[i] || a.reqMask[i] != b.reqMask[i] ||
			a.inFull[i] != b.inFull[i] || a.fresh[i] != b.fresh[i] {
			return fmt.Errorf("mask word %d: in %#x out %#x full %#x act %#x req %#x in-full %#x fresh %#x, want %#x %#x %#x %#x %#x %#x %#x",
				i, b.inMask[i], b.outMask[i], b.fullMask[i], b.actMask[i], b.reqMask[i], b.inFull[i], b.fresh[i],
				a.inMask[i], a.outMask[i], a.fullMask[i], a.actMask[i], a.reqMask[i], a.inFull[i], a.fresh[i])
		}
	}
	for i := range a.tgt {
		if a.tgt[i] != b.tgt[i] {
			return fmt.Errorf("target word %d: %#x, want %#x", i, b.tgt[i], a.tgt[i])
		}
	}
	if a.inPorts != b.inPorts || a.outPorts != b.outPorts {
		return fmt.Errorf("port summaries in %#x out %#x, want %#x %#x", b.inPorts, b.outPorts, a.inPorts, a.outPorts)
	}
	return nil
}

// TestWideRouterSummaries runs worms on ports 0, 31, 32 and 63 of a
// router with the most ports and VCs a router may have, each bound for the
// port mirrored across the router, on VCs 0, 63, 32 and 31, so the port
// summaries and the VC masks carry bits at both ends and across the middle
// of their word. The run is audited each cycle, and a checkpoint taken
// mid-run restores into a router whose masks and summaries match and which
// then delivers the rest of every worm exactly as the original does.
func TestWideRouterSummaries(t *testing.T) {
	cfg := testConfig(sched.VirtualClock)
	cfg.Ports, cfg.VCs, cfg.BufferDepth = MaxPorts, sched.MaxVCs, 12
	a, caps := build(t, cfg)
	ports, vcs := []int{0, 31, 32, 63}, []int{0, 63, 32, 31}
	for i, p := range ports {
		deliver(a, p, vcs[i], msg(uint64(i+1), ports[len(ports)-1-i], vcs[i], 12, 100), period)
	}
	const want uint64 = 1 | 1<<31 | 1<<32 | 1<<63
	if a.inPorts != want {
		t.Fatalf("input summary %#x, want %#x", a.inPorts, want)
	}
	now := run(a, period, 6)
	if a.outPorts != want {
		t.Fatalf("output summary %#x mid-run, want %#x", a.outPorts, want)
	}
	sent := make([]int, cfg.Ports)
	for p, c := range caps {
		sent[p] = len(c.flits)
	}
	b := restored(t, a, cfg)
	if err := sameMasks(a, b); err != nil {
		t.Fatalf("after RestoreState: %v", err)
	}
	run(a, now, 30)
	run(b, now, 30)
	if !a.Quiesced() || !b.Quiesced() {
		t.Fatalf("routers not drained: original %v, restored %v", a.Quiesced(), b.Quiesced())
	}
	for i, p := range ports {
		dst := ports[len(ports)-1-i]
		got, want := b.outs[dst].consumer.(*capture).flits, caps[dst].flits
		if len(want) != 12 || len(got) != 12-sent[dst] {
			t.Fatalf("port %d → %d: original sent %d flits, restored %d after %d, want 12 in all",
				p, dst, len(want), len(got), sent[dst])
		}
		for k, f := range got {
			if w := want[sent[dst]+k]; f.Msg.ID != w.Msg.ID || f.Seq != w.Seq || f.Enq != w.Enq {
				t.Fatalf("port %d → %d: restored flit %d is msg %d seq %d at %v, want msg %d seq %d at %v",
					p, dst, k, f.Msg.ID, f.Seq, f.Enq, w.Msg.ID, w.Seq, w.Enq)
			}
		}
	}
}

// TestKillRaisesTheSharedFlag pins the kill flag's wiring: a router built
// alone raises its own flag, and once pointed at a shared flag — as a
// fabric's AddRouter does — its kills raise that one instead.
func TestKillRaisesTheSharedFlag(t *testing.T) {
	r, _ := build(t, testConfig(sched.VirtualClock))
	r.kill(0, msg(1, 1, 0, 2, 100), obs.CauseTimeout)
	if !r.ownKilled {
		t.Fatal("standalone router's kill left its own flag down")
	}
	var shared bool
	s, _ := build(t, testConfig(sched.VirtualClock))
	s.ShareKillFlag(&shared)
	s.kill(0, msg(2, 1, 0, 2, 100), obs.CauseTimeout)
	if !shared || s.ownKilled {
		t.Fatalf("kill raised shared=%v own=%v, want the shared flag only", shared, s.ownKilled)
	}
}

// TestCreditAndFreshMasksThroughStall drives one worm into a stalled
// output port until the worm backs up into a full input buffer, keeps the
// port blocked by downstream credit once the stall lifts, then grants the
// credit and drains the worm, auditing the masks after every cycle. The
// stall keeps a flit forwarded into the port's empty staging buffer from
// leaving, so a fresh-head bit that a stalled port fails to clear outlives
// its Step. The input buffer fills while its VC is granted, when only
// Deliver can set the full bit, and empties through forward's pops, when
// only forward can clear it.
func TestCreditAndFreshMasksThroughStall(t *testing.T) {
	cfg := testConfig(sched.VirtualClock)
	cfg.BufferDepth = 3
	r, caps := build(t, cfg)
	down := caps[1]
	worm := msg(1, 1, 0, 12, 100)
	sent := 0
	now := period
	cycle := func() {
		t.Helper()
		if sent < worm.Flits && hasCredit(r, 0, 0) {
			r.Deliver(0, 0, flit.Flit{Msg: worm, Seq: sent, Enq: now})
			sent++
		}
		step(t, r, now)
		now += period
	}
	r.SetPortStalled(1, true)
	for i := 0; i < 20; i++ {
		cycle()
	}
	if want := cfg.BufferDepth + cfg.StageDepth; sent != want || hasCredit(r, 0, 0) {
		t.Fatalf("stalled port took %d flits (credit %v), want %d and none left",
			sent, hasCredit(r, 0, 0), want)
	}
	down.full = ^uint64(0)
	r.SetPortStalled(1, false)
	stalls := r.PortStats(1).StallCycles
	for i := 0; i < 5; i++ {
		cycle()
	}
	if n := r.PortStats(1).StallCycles - stalls; len(down.flits) != 0 || n != 5 {
		t.Fatalf("port without credit sent %d flits and stalled %d of 5 cycles, want 0 and 5",
			len(down.flits), n)
	}
	down.full = 0
	for i := 0; i < 40; i++ {
		cycle()
	}
	if len(down.flits) != worm.Flits || !r.Quiesced() {
		t.Fatalf("delivered %d of %d flits, quiesced %v", len(down.flits), worm.Flits, r.Quiesced())
	}
	for i, f := range down.flits {
		if f.Seq != i {
			t.Fatalf("flit %d delivered with sequence number %d", i, f.Seq)
		}
	}
}
