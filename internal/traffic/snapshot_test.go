package traffic

import (
	"bytes"
	"errors"
	"testing"

	"mediaworm/internal/flit"
	"mediaworm/internal/rng"
	"mediaworm/internal/sim"
	"mediaworm/internal/snapshot"
)

// TestTraceSizerCheckpoint checkpoints a stream driven by a TraceSizer
// partway through its trace, with frames still being injected, and
// restores it into a freshly built, disarmed stream: the restored stream
// must size its next frames as the original does, through the trace's
// wrap. A restore into a stream whose trace ends at or before the
// checkpointed position must fail with the sizer-phase invariant.
func TestTraceSizerCheckpoint(t *testing.T) {
	sizes := []float64{1000, 2000, 3000, 4000, 5000, 6000, 7000}
	const interval = 200 * sim.Microsecond
	start := func(trace []float64) (*sim.Engine, *Stream) {
		t.Helper()
		eng, net := testNet(t, 2, 4, 4)
		tr, err := NewTraceSizer(trace, 0)
		if err != nil {
			t.Fatal(err)
		}
		var ids uint64
		s, err := StartStream(eng, net.NIs[0], StreamConfig{
			ID: 1, Class: flit.VBR, Src: 0, Dst: 1, InVC: 0, DstVC: 0,
			FrameBytes: 1000, Interval: interval,
			MsgFlits: 20, FlitBits: 32, Stop: 30 * interval,
			Sizer: tr,
		}, rng.New(1), &ids)
		if err != nil {
			t.Fatal(err)
		}
		return eng, s
	}
	eng, s := start(sizes)
	eng.Run(2*interval + interval/2) // frames 0–2 emitted, frame 2 mid-injection
	orig := s.cfg.Sizer.(*TraceSizer)
	if orig.pos != 3 || len(s.pending) == 0 {
		t.Fatalf("checkpoint at trace position %d with %d pending messages, want 3 and some",
			orig.pos, len(s.pending))
	}
	ckpt := checkpointStream(t, s)

	_, fresh := start(sizes)
	fresh.Disarm()
	if err := restoreStream(ckpt, fresh); err != nil {
		t.Fatal(err)
	}
	got := fresh.cfg.Sizer.(*TraceSizer)
	for i := 0; i <= len(sizes); i++ {
		if g, w := got.NextFrameBytes(), orig.NextFrameBytes(); g != w {
			t.Fatalf("frame %d after restore sized %v bytes, want %v", s.frame+i, g, w)
		}
	}

	_, short := start(sizes[:3])
	short.Disarm()
	var inv *snapshot.InvariantError
	if err := restoreStream(ckpt, short); !errors.As(err, &inv) || inv.Invariant != "sizer-phase" {
		t.Fatalf("restoring trace position 3 into a 3-frame trace: %v, want the sizer-phase invariant", err)
	}
}

// checkpointStream encodes s, with the message table its pending
// injections refer to.
func checkpointStream(t *testing.T, s *Stream) []byte {
	t.Helper()
	tbl := flit.NewMsgTable()
	s.CollectMessages(tbl)
	w := snapshot.NewWriter()
	if err := tbl.Encode(w); err != nil {
		t.Fatal(err)
	}
	if err := s.EncodeState(w, tbl); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := w.Flush(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// restoreStream restores a checkpointStream checkpoint into s.
func restoreStream(ckpt []byte, s *Stream) error {
	rd, err := snapshot.NewReader(bytes.NewReader(ckpt))
	if err != nil {
		return err
	}
	tbl, err := flit.DecodeMsgTable(rd)
	if err != nil {
		return err
	}
	return s.RestoreState(rd, tbl)
}
