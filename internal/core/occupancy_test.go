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
func TestOccupancyRebuiltOnRestore(t *testing.T) {
	cfg := reqConfig()
	cfg.Ports = 3
	a, _ := build(t, cfg)
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
}

// restored checkpoints a and restores the checkpoint into a fresh router
// built from cfg.
func restored(t *testing.T, a *Router, cfg Config) *Router {
	t.Helper()
	b, err := restore(t, cfg, checkpoint(t, a))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// checkpoint returns a snapshot of a's messages and state.
func checkpoint(t *testing.T, a *Router) []byte {
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
	return buf.Bytes()
}

// restore builds a router from cfg and restores the snapshot data into it.
func restore(t *testing.T, cfg Config, data []byte) (*Router, error) {
	t.Helper()
	rd, err := snapshot.NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	rtbl, err := flit.DecodeMsgTable(rd)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := build(t, cfg)
	return b, b.RestoreState(rd, rtbl)
}

// sameMasks reports the first occupancy or phase mask word where b differs
// from a.
func sameMasks(a, b *Router) error {
	for i := range a.inMask {
		if a.inMask[i] != b.inMask[i] || a.outMask[i] != b.outMask[i] ||
			a.actMask[i] != b.actMask[i] || a.reqMask[i] != b.reqMask[i] {
			return fmt.Errorf("mask word %d: in %#x out %#x act %#x req %#x, want %#x %#x %#x %#x",
				i, b.inMask[i], b.outMask[i], b.actMask[i], b.reqMask[i],
				a.inMask[i], a.outMask[i], a.actMask[i], a.reqMask[i])
		}
	}
	return nil
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
