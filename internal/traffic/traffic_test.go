package traffic

import (
	"math"
	"testing"
	"testing/quick"

	"mediaworm/internal/core"
	"mediaworm/internal/flit"
	"mediaworm/internal/rng"
	"mediaworm/internal/sched"
	"mediaworm/internal/sim"
	"mediaworm/internal/topology"
)

const period = 80 * sim.Nanosecond

// paperNet builds one of the paper's fabrics by name through the one
// fabric constructor, topology.Build.
func paperNet(eng *sim.Engine, name string, cfg core.Config) (*topology.Net, error) {
	spec, err := topology.ParseSpec(name)
	if err != nil {
		return nil, err
	}
	return topology.Build(eng, spec, cfg)
}

func testNet(t *testing.T, ports, vcs, rtVCs int) (*sim.Engine, *topology.Net) {
	t.Helper()
	eng := sim.NewEngine()
	net, err := paperNet(eng, "single-switch", core.Config{
		Ports: ports, VCs: vcs, RTVCs: rtVCs,
		BufferDepth: 20, StageDepth: 4,
		Policy: sched.VirtualClock, Period: period,
	})
	if err != nil {
		t.Fatal(err)
	}
	return eng, net
}

func TestStreamConfigHelpers(t *testing.T) {
	c := StreamConfig{FrameBytes: 16666, Interval: 33 * sim.Millisecond, MsgFlits: 20, FlitBits: 32}
	if got := c.PayloadFlitsPerMsg(); got != 19 {
		t.Fatalf("payload flits %d, want 19 (one header)", got)
	}
	bps := c.NominalBitsPerSec()
	if math.Abs(bps-4.04e6) > 0.01e6 {
		t.Fatalf("nominal rate %.0f, want ≈4.04 Mb/s", bps)
	}
	c.MsgFlits = 1
	if c.PayloadFlitsPerMsg() != 1 {
		t.Fatal("degenerate 1-flit message must carry 1 payload flit")
	}
}

func TestStreamEmitsFramesAtInterval(t *testing.T) {
	eng, net := testNet(t, 2, 4, 4)
	var ids uint64
	var msgs []*flit.Message
	// Capture injections by wrapping the sink's message callback.
	net.Sinks[1].OnMessage = func(m *flit.Message, at sim.Time) { msgs = append(msgs, m) }
	st, err := StartStream(eng, net.NIs[0], StreamConfig{
		ID: 3, Class: flit.CBR, Src: 0, Dst: 1, InVC: 1, DstVC: 2,
		FrameBytes: 1000, Interval: 500 * sim.Microsecond,
		MsgFlits: 20, FlitBits: 32,
		Start: 100 * sim.Microsecond, Stop: 3 * sim.Millisecond,
	}, rng.New(1), &ids)
	if err != nil {
		t.Fatal(err)
	}
	eng.Run(5 * sim.Millisecond)
	eng.Drain()
	// Frames at 100µs + k·500µs for k < 6 within [0, 3ms).
	if st.FramesInjected != 6 {
		t.Fatalf("injected %d frames, want 6", st.FramesInjected)
	}
	// CBR frame: 1000 B = 250 payload flits = ceil(250/19) = 14 messages.
	wantMsgs := 14 * 6
	if len(msgs) != wantMsgs {
		t.Fatalf("delivered %d messages, want %d", len(msgs), wantMsgs)
	}
	for _, m := range msgs {
		if m.Class != flit.CBR || m.StreamID != 3 || m.DstVC != 2 {
			t.Fatalf("bad message metadata: %+v", m)
		}
		if m.MsgsInFrame != 14 {
			t.Fatalf("MsgsInFrame %d, want 14", m.MsgsInFrame)
		}
		if m.Vtick <= 0 || m.Vtick == sim.Forever {
			t.Fatalf("real-time message without finite Vtick: %+v", m)
		}
	}
}

func TestStreamMessageSegmentation(t *testing.T) {
	// 1000 B = 250 flits payload: 13 messages of 19 payload (+header = 20
	// wire flits) and a final message with 3 payload (+header = 4 flits).
	eng, net := testNet(t, 2, 4, 4)
	var ids uint64
	var sizes []int
	net.Sinks[1].OnMessage = func(m *flit.Message, at sim.Time) { sizes = append(sizes, m.Flits) }
	if _, err := StartStream(eng, net.NIs[0], StreamConfig{
		ID: 1, Class: flit.CBR, Src: 0, Dst: 1, InVC: 0, DstVC: 0,
		FrameBytes: 1000, Interval: 1 * sim.Millisecond,
		MsgFlits: 20, FlitBits: 32,
		Start: 0, Stop: 500 * sim.Microsecond, // exactly one frame
	}, rng.New(1), &ids); err != nil {
		t.Fatal(err)
	}
	eng.Drain()
	if len(sizes) != 14 {
		t.Fatalf("messages %d, want 14", len(sizes))
	}
	for i := 0; i < 13; i++ {
		if sizes[i] != 20 {
			t.Fatalf("message %d has %d flits, want 20", i, sizes[i])
		}
	}
	if sizes[13] != 4 {
		t.Fatalf("last message has %d flits, want 4 (3 payload + header)", sizes[13])
	}
}

func TestVBRFrameSizesVary(t *testing.T) {
	eng, net := testNet(t, 2, 4, 4)
	var ids uint64
	counts := map[int]int{} // frame -> messages
	net.Sinks[1].OnMessage = func(m *flit.Message, at sim.Time) { counts[m.FrameSeq]++ }
	if _, err := StartStream(eng, net.NIs[0], StreamConfig{
		ID: 1, Class: flit.VBR, Src: 0, Dst: 1, InVC: 0, DstVC: 0,
		FrameBytes: 2000, FrameBytesSD: 600, Interval: 500 * sim.Microsecond,
		MsgFlits: 20, FlitBits: 32,
		Start: 0, Stop: 10 * sim.Millisecond,
	}, rng.New(7), &ids); err != nil {
		t.Fatal(err)
	}
	eng.Run(12 * sim.Millisecond)
	eng.Drain()
	distinct := map[int]bool{}
	for _, n := range counts {
		distinct[n] = true
	}
	if len(distinct) < 3 {
		t.Fatalf("VBR frame sizes barely vary: message counts %v", counts)
	}
}

func TestStartStreamValidation(t *testing.T) {
	eng, net := testNet(t, 2, 4, 4)
	var ids uint64
	bad := []StreamConfig{
		{Class: flit.VBR, MsgFlits: 0, FlitBits: 32, Interval: 1, FrameBytes: 100},
		{Class: flit.VBR, MsgFlits: 20, FlitBits: 0, Interval: 1, FrameBytes: 100},
		{Class: flit.VBR, MsgFlits: 20, FlitBits: 32, Interval: 0, FrameBytes: 100},
		{Class: flit.BestEffort, MsgFlits: 20, FlitBits: 32, Interval: 1, FrameBytes: 100},
	}
	for i, cfg := range bad {
		if _, err := StartStream(eng, net.NIs[0], cfg, rng.New(1), &ids); err == nil {
			t.Fatalf("bad stream config %d accepted", i)
		}
	}
}

func TestBestEffortSource(t *testing.T) {
	eng, net := testNet(t, 4, 4, 2)
	var ids uint64
	var got []*flit.Message
	for _, s := range net.Sinks {
		s.OnMessage = func(m *flit.Message, at sim.Time) { got = append(got, m) }
	}
	be, err := StartBestEffort(eng, net.NIs[1], BestEffortConfig{
		Node: 1, Nodes: 4, Interval: 10 * sim.Microsecond, MsgFlits: 20,
		VCLo: 2, VCHi: 4, Start: 0, Stop: 1 * sim.Millisecond,
	}, rng.New(5), &ids)
	if err != nil {
		t.Fatal(err)
	}
	eng.Run(2 * sim.Millisecond)
	eng.Drain()
	if be.Injected != 100 {
		t.Fatalf("injected %d, want 100", be.Injected)
	}
	if len(got) != 100 {
		t.Fatalf("delivered %d, want 100", len(got))
	}
	dsts := map[int]bool{}
	for _, m := range got {
		if m.Class != flit.BestEffort || m.Vtick != sim.Forever {
			t.Fatalf("bad best-effort message: %+v", m)
		}
		if m.Dst == 1 {
			t.Fatal("best-effort message sent to self")
		}
		if m.DstVC < 2 || m.DstVC >= 4 {
			t.Fatalf("DstVC %d outside best-effort partition [2,4)", m.DstVC)
		}
		dsts[m.Dst] = true
	}
	if len(dsts) != 3 {
		t.Fatalf("destinations not uniform over other nodes: %v", dsts)
	}
}

func TestStartBestEffortValidation(t *testing.T) {
	eng, net := testNet(t, 2, 4, 2)
	var ids uint64
	bad := []BestEffortConfig{
		{Node: 0, Nodes: 2, Interval: 0, MsgFlits: 20, VCLo: 2, VCHi: 4},
		{Node: 0, Nodes: 2, Interval: 1, MsgFlits: 0, VCLo: 2, VCHi: 4},
		{Node: 0, Nodes: 2, Interval: 1, MsgFlits: 20, VCLo: 2, VCHi: 2},
		{Node: 0, Nodes: 1, Interval: 1, MsgFlits: 20, VCLo: 2, VCHi: 4},
	}
	for i, cfg := range bad {
		if _, err := StartBestEffort(eng, net.NIs[0], cfg, rng.New(1), &ids); err == nil {
			t.Fatalf("bad best-effort config %d accepted", i)
		}
	}
}

func TestMixConfigAccounting(t *testing.T) {
	m := MixConfig{
		Load: 0.8, RTShare: 0.75,
		LinkBitsPerSec: 400e6, FlitBits: 32, MsgFlits: 20,
		FrameBytes: 16666, Interval: 33 * sim.Millisecond,
	}
	// RT load 0.6 of 400 Mb/s over ≈4.04 Mb/s streams → 59 streams.
	if got := m.StreamsPerNode(); got != 59 {
		t.Fatalf("StreamsPerNode = %d, want 59", got)
	}
	// BE load 0.2: 80 Mb/s over 640-bit messages → 125k msgs/s → 8 µs.
	if got := m.BestEffortInterval(); got != 8*sim.Microsecond {
		t.Fatalf("BestEffortInterval = %v, want 8µs", got)
	}
	m.RTShare = 1
	if m.BestEffortInterval() != 0 {
		t.Fatal("pure real-time mix should have no best-effort interval")
	}
}

func TestPartitionVCs(t *testing.T) {
	cases := []struct {
		vcs   int
		share float64
		want  int
	}{
		{16, 0.8, 13},
		{16, 0.5, 8},
		{16, 0.2, 3},
		{16, 1.0, 16},
		{16, 0.0, 0},
		{16, 0.01, 1},  // real-time load present: at least one RT VC
		{16, 0.99, 15}, // best-effort load present: at least one BE VC
		{2, 0.5, 1},
	}
	for _, c := range cases {
		if got := PartitionVCs(c.vcs, c.share); got != c.want {
			t.Fatalf("PartitionVCs(%d, %v) = %d, want %d", c.vcs, c.share, got, c.want)
		}
	}
}

// Property: the partition always leaves at least one VC for each class that
// carries load, and never exceeds the total.
func TestPropertyPartitionVCs(t *testing.T) {
	f := func(vcsRaw uint8, shareRaw uint8) bool {
		vcs := int(vcsRaw%63) + 2
		share := float64(shareRaw) / 255
		rt := PartitionVCs(vcs, share)
		if rt < 0 || rt > vcs {
			return false
		}
		if share > 0 && rt == 0 {
			return false
		}
		if share < 1 && rt == vcs {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestApplyBuildsBalancedWorkload(t *testing.T) {
	eng, net := testNet(t, 8, 16, 13)
	w, err := Apply(eng, net, MixConfig{
		Load: 0.8, RTShare: 0.8, Class: flit.VBR,
		LinkBitsPerSec: 400e6, FlitBits: 32, MsgFlits: 20,
		FrameBytes: 16666, FrameBytesSD: 3333, Interval: 33 * sim.Millisecond,
		VCs: 16, RTVCs: 13,
		Stop: 1 * sim.Millisecond, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	// 0.64 RT load → 63 streams per node × 8 nodes.
	if len(w.Streams) != 63*8 {
		t.Fatalf("streams %d, want %d", len(w.Streams), 63*8)
	}
	if len(w.BESources) != 8 {
		t.Fatalf("best-effort sources %d, want 8", len(w.BESources))
	}
	// Input VCs balanced: stream i of a node uses VC i mod 13.
	perVC := map[int]int{}
	for i, s := range w.Streams {
		if s.cfg.Src != i/63 {
			t.Fatalf("stream %d has src %d", i, s.cfg.Src)
		}
		if s.cfg.InVC != (i%63)%13 {
			t.Fatalf("stream %d InVC %d not balanced", i, s.cfg.InVC)
		}
		if s.cfg.DstVC < 0 || s.cfg.DstVC >= 13 {
			t.Fatalf("stream DstVC %d outside RT partition", s.cfg.DstVC)
		}
		if s.cfg.Dst == s.cfg.Src {
			t.Fatal("self-addressed stream")
		}
		perVC[s.cfg.InVC]++
	}
}

func TestApplyValidation(t *testing.T) {
	eng, net := testNet(t, 8, 16, 8)
	base := MixConfig{
		Load: 0.8, RTShare: 0.5, Class: flit.VBR,
		LinkBitsPerSec: 400e6, FlitBits: 32, MsgFlits: 20,
		FrameBytes: 16666, Interval: 33 * sim.Millisecond,
		VCs: 16, RTVCs: 8, Stop: 1, Seed: 1,
	}
	bad := base
	bad.RTVCs = 17
	if _, err := Apply(eng, net, bad); err == nil {
		t.Fatal("RTVCs > VCs accepted")
	}
	bad = base
	bad.RTVCs = 0
	if _, err := Apply(eng, net, bad); err == nil {
		t.Fatal("real-time load with zero RT VCs accepted")
	}
	bad = base
	bad.RTVCs = 16
	if _, err := Apply(eng, net, bad); err == nil {
		t.Fatal("best-effort load with zero BE VCs accepted")
	}
}

func TestApplyPhases(t *testing.T) {
	eng, net := testNet(t, 8, 16, 8)
	interval := 200 * sim.Microsecond
	phase := func(share float64, rtVCs int, from, to sim.Time) MixConfig {
		return MixConfig{
			Load: 0.5, RTShare: share, Class: flit.VBR,
			LinkBitsPerSec: 400e6, FlitBits: 32, MsgFlits: 20,
			FrameBytes: 1000, Interval: interval,
			VCs: 16, RTVCs: rtVCs, Start: from, Stop: to, Seed: 3,
		}
	}
	half := 2 * sim.Millisecond
	w, err := ApplyPhases(eng, net, []MixConfig{
		phase(0.5, 8, 0, half),
		phase(1.0, 8, half, 2*half),
	})
	if err != nil {
		t.Fatal(err)
	}
	// Streams are ≈40 Mb/s each (1000 B per 200 µs). Phase 1: 0.25 RT
	// load → round(2.5) = 3 streams/node; phase 2: 0.5 → 5.
	if len(w.Streams) != (3+5)*8 {
		t.Fatalf("streams %d, want %d", len(w.Streams), (3+5)*8)
	}
	// Stream IDs unique across phases.
	seen := map[int]bool{}
	for _, s := range w.Streams {
		if seen[s.cfg.ID] {
			t.Fatalf("duplicate stream id %d", s.cfg.ID)
		}
		seen[s.cfg.ID] = true
	}
	// Phase 2 streams start within the second window.
	late := 0
	for _, s := range w.Streams {
		if s.cfg.Start >= half {
			late++
		}
	}
	if late != 5*8 {
		t.Fatalf("phase-2 streams %d, want %d", late, 5*8)
	}
	eng.Run(2*half + 2*sim.Millisecond)
	eng.Drain()
	if err := net.Fabric.CheckDrained(); err != nil {
		t.Fatal(err)
	}
}

func TestApplyPhasesValidation(t *testing.T) {
	eng, net := testNet(t, 2, 4, 2)
	if _, err := ApplyPhases(eng, net, nil); err == nil {
		t.Fatal("no phases accepted")
	}
	bad := MixConfig{
		Load: 0.5, RTShare: 1, Class: flit.VBR,
		LinkBitsPerSec: 400e6, FlitBits: 32, MsgFlits: 20,
		FrameBytes: 1000, Interval: sim.Millisecond,
		VCs: 4, RTVCs: 2, Start: 100, Stop: 100, Seed: 1,
	}
	if _, err := ApplyPhases(eng, net, []MixConfig{bad}); err == nil {
		t.Fatal("empty window accepted")
	}
}

// fixedPartition implements Partition for tests.
type fixedPartition struct{ rt, vcs int }

func (p fixedPartition) RTVCs() int { return p.rt }
func (p fixedPartition) VCs() int   { return p.vcs }

func TestBestEffortFollowsPartition(t *testing.T) {
	eng, net := testNet(t, 4, 8, 4)
	var ids uint64
	var got []*flit.Message
	for _, s := range net.Sinks {
		s.OnMessage = func(m *flit.Message, at sim.Time) { got = append(got, m) }
	}
	if _, err := StartBestEffort(eng, net.NIs[0], BestEffortConfig{
		Node: 0, Nodes: 4, Interval: 10 * sim.Microsecond, MsgFlits: 4,
		Partition: fixedPartition{rt: 6, vcs: 8},
		Start:     0, Stop: 500 * sim.Microsecond,
	}, rng.New(8), &ids); err != nil {
		t.Fatal(err)
	}
	eng.Drain()
	if len(got) == 0 {
		t.Fatal("nothing delivered")
	}
	for _, m := range got {
		if m.DstVC < 6 || m.DstVC >= 8 {
			t.Fatalf("DstVC %d outside live partition [6,8)", m.DstVC)
		}
	}
}

func TestGoPMixProducesStructuredSizes(t *testing.T) {
	eng, net := testNet(t, 8, 8, 8)
	w, err := Apply(eng, net, MixConfig{
		Load: 0.3, RTShare: 1, Class: flit.VBR,
		LinkBitsPerSec: 400e6, FlitBits: 32, MsgFlits: 20,
		FrameBytes: 2000, FrameBytesSD: 400, Interval: 200 * sim.Microsecond,
		VCs: 8, RTVCs: 8, Stop: sim.Millisecond, Seed: 4, GoP: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range w.Streams {
		if _, ok := s.cfg.Sizer.(*GoPSizer); !ok {
			t.Fatalf("stream %d sizer %T, want *GoPSizer", s.cfg.ID, s.cfg.Sizer)
		}
	}
	eng.Run(3 * sim.Millisecond)
	eng.Drain()
	if err := net.Fabric.CheckDrained(); err != nil {
		t.Fatal(err)
	}
}

func TestStreamRevokeAndResume(t *testing.T) {
	eng, net := testNet(t, 2, 4, 4)
	var ids uint64
	const interval = 500 * sim.Microsecond
	var emitted []int
	st, err := StartStream(eng, net.NIs[0], StreamConfig{
		ID: 7, Class: flit.CBR, Src: 0, Dst: 1, InVC: 1, DstVC: 2,
		FrameBytes: 1000, Interval: interval,
		MsgFlits: 20, FlitBits: 32,
		Start: 0, Stop: 10 * sim.Millisecond,
	}, rng.New(1), &ids)
	if err != nil {
		t.Fatal(err)
	}
	st.OnEmit = func(stream, frame int) { emitted = append(emitted, frame) }

	// Revoke after ~3 frames; the emit chain parks at the next boundary.
	eng.At(sim.Time(3)*interval+interval/2, func() { st.Revoke() })
	eng.Run(6 * interval)
	parkedAt := len(emitted)
	if parkedAt == 0 {
		t.Fatal("no frames emitted before revocation")
	}
	if !st.Revoked() {
		t.Fatal("stream not marked revoked")
	}

	// While revoked, nothing is emitted.
	eng.Run(8 * interval)
	if len(emitted) != parkedAt {
		t.Fatalf("revoked stream emitted %d extra frames", len(emitted)-parkedAt)
	}

	// Resume restarts emission one interval later and frames keep flowing.
	resumeAt := eng.Now()
	st.Resume()
	if st.Revoked() {
		t.Fatal("stream still revoked after Resume")
	}
	eng.Run(resumeAt + 4*interval)
	if len(emitted) <= parkedAt {
		t.Fatal("resumed stream emitted nothing")
	}

	// Resume on a non-parked stream must not double the emit chain: frame
	// counts stay consecutive (each frame observed exactly once).
	st.Resume()
	eng.Drain()
	for i, f := range emitted {
		if f != i {
			t.Fatalf("frame sequence broken at %d: %v", i, emitted[:i+1])
		}
	}
	if got := st.FramesInjected; got != len(emitted) {
		t.Fatalf("FramesInjected %d != %d observed emissions", got, len(emitted))
	}
}
