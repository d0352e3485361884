package network_test

import (
	"math"
	"testing"

	"mediaworm/internal/core"
	"mediaworm/internal/flit"
	"mediaworm/internal/rng"
	"mediaworm/internal/sched"
	"mediaworm/internal/sim"
	"mediaworm/internal/stats"
	"mediaworm/internal/topology"
	"mediaworm/internal/traffic"
)

// Scaled-down workload for fast tests: 10x smaller frames and intervals keep
// the per-stream rate at ~4 Mbps while fitting many frames into a short run.
const (
	tFrameBytes = 1666.0
	tInterval   = 3300 * sim.Microsecond
	tPeriod     = 80 * sim.Nanosecond // 32-bit flits at 400 Mbps
)

func baseCfg(policy sched.Kind, vcs, rtVCs int) core.Config {
	return core.Config{
		Ports:       8,
		VCs:         vcs,
		RTVCs:       rtVCs,
		BufferDepth: 20,
		StageDepth:  4,
		Policy:      policy,
		Period:      tPeriod,
	}
}

// paperNet builds one of the paper's fabrics by name through the one
// fabric constructor, topology.Build.
func paperNet(eng *sim.Engine, name string, cfg core.Config) (*topology.Net, error) {
	spec, err := topology.ParseSpec(name)
	if err != nil {
		return nil, err
	}
	return topology.Build(eng, spec, cfg)
}

type measured struct {
	intervals *stats.IntervalTracker
	be        *stats.BestEffort
}

// runMix builds a single-switch (or fat-mesh) net, applies the mix, runs to
// stop plus drain, and returns the measurements.
func runMix(t *testing.T, fatMesh bool, policy sched.Kind, load, rtShare float64, vcs int, stop sim.Time) (*topology.Net, measured) {
	t.Helper()
	eng := sim.NewEngine()
	cfg := baseCfg(policy, vcs, traffic.PartitionVCs(vcs, rtShare))
	var net *topology.Net
	var err error
	if fatMesh {
		net, err = paperNet(eng, "fat-mesh-2x2", cfg)
	} else {
		net, err = paperNet(eng, "single-switch", cfg)
	}
	if err != nil {
		t.Fatal(err)
	}
	warmup := stop / 4
	m := measured{
		intervals: stats.NewIntervalTracker(warmup),
		be:        stats.NewBestEffort(warmup),
	}
	for _, s := range net.Sinks {
		s.OnFrame = func(stream, frame int, at sim.Time) { m.intervals.Observe(stream, at) }
		s.OnMessage = func(msg *flit.Message, at sim.Time) {
			if msg.Class == flit.BestEffort {
				m.be.Delivered(msg.Injected, at)
			}
		}
	}
	mix := traffic.MixConfig{
		Load:           load,
		RTShare:        rtShare,
		Class:          flit.VBR,
		LinkBitsPerSec: 400e6,
		FlitBits:       32,
		MsgFlits:       20,
		FrameBytes:     tFrameBytes,
		FrameBytesSD:   tFrameBytes / 5,
		Interval:       tInterval,
		VCs:            vcs,
		RTVCs:          cfg.RTVCs,
		Stop:           stop,
		Seed:           12345,
	}
	w, err := traffic.Apply(eng, net, mix)
	if err != nil {
		t.Fatal(err)
	}
	for _, be := range w.BESources {
		be.OnInject = func(msg *flit.Message) { m.be.Injected(msg.Injected) }
	}
	eng.Run(stop + 50*sim.Millisecond)
	eng.Drain()
	return net, m
}

func TestSingleSwitchLowLoadJitterFree(t *testing.T) {
	net, m := runMix(t, false, sched.VirtualClock, 0.5, 1.0, 16, 40*tInterval)
	if m.intervals.Intervals().Count() < 100 {
		t.Fatalf("too few interval samples: %d", m.intervals.Intervals().Count())
	}
	d := m.intervals.MeanMs()
	sd := m.intervals.StdDevMs()
	wantD := tInterval.Milliseconds()
	if math.Abs(d-wantD) > 0.05*wantD {
		t.Fatalf("d = %.3f ms, want ~%.3f", d, wantD)
	}
	if sd > 0.05*wantD {
		t.Fatalf("σd = %.3f ms at 50%% load, want ~0 (jitter-free)", sd)
	}
	if err := net.Fabric.CheckDrained(); err != nil {
		t.Fatalf("conservation violated: %v", err)
	}
}

func TestSingleSwitchMixedTrafficDelivers(t *testing.T) {
	net, m := runMix(t, false, sched.VirtualClock, 0.6, 0.5, 16, 30*tInterval)
	inj, del := m.be.Counts()
	if inj == 0 {
		t.Fatal("no best-effort traffic generated")
	}
	if del == 0 {
		t.Fatal("no best-effort traffic delivered")
	}
	if stats.Saturated(m.be.Counts()) {
		t.Fatalf("best-effort saturated at 30%% BE load (injected %d delivered %d)", inj, del)
	}
	lat := m.be.MeanLatencyUs()
	if lat <= 0 || lat > 100 {
		t.Fatalf("best-effort latency %.2f µs implausible at low load", lat)
	}
	if sd := m.intervals.StdDevMs(); sd > 0.05*tInterval.Milliseconds() {
		t.Fatalf("σd = %.3f ms with best-effort present, want ~0", sd)
	}
	if err := net.Fabric.CheckDrained(); err != nil {
		t.Fatal(err)
	}
}

func TestVirtualClockBeatsFIFOUnderOverload(t *testing.T) {
	// At very high load with a dominant real-time share, FIFO should show
	// clearly more jitter than Virtual Clock (the Fig. 3 effect).
	_, mVC := runMix(t, false, sched.VirtualClock, 0.92, 0.8, 16, 30*tInterval)
	_, mFIFO := runMix(t, false, sched.FIFO, 0.92, 0.8, 16, 30*tInterval)
	sdVC := mVC.intervals.StdDevMs()
	sdFIFO := mFIFO.intervals.StdDevMs()
	if !(sdFIFO > sdVC) {
		t.Fatalf("σd FIFO %.4f ms ≤ σd VirtualClock %.4f ms; expected FIFO worse", sdFIFO, sdVC)
	}
}

func TestDeterminism(t *testing.T) {
	_, a := runMix(t, false, sched.VirtualClock, 0.7, 0.8, 16, 20*tInterval)
	_, b := runMix(t, false, sched.VirtualClock, 0.7, 0.8, 16, 20*tInterval)
	if a.intervals.MeanMs() != b.intervals.MeanMs() ||
		a.intervals.StdDevMs() != b.intervals.StdDevMs() ||
		a.be.MeanLatencyUs() != b.be.MeanLatencyUs() {
		t.Fatalf("identical runs diverged: %v/%v vs %v/%v",
			a.intervals.MeanMs(), a.intervals.StdDevMs(),
			b.intervals.MeanMs(), b.intervals.StdDevMs())
	}
}

func TestFatMeshDelivers(t *testing.T) {
	net, m := runMix(t, true, sched.VirtualClock, 0.5, 0.6, 16, 25*tInterval)
	if m.intervals.Intervals().Count() < 100 {
		t.Fatalf("too few fat-mesh samples: %d", m.intervals.Intervals().Count())
	}
	wantD := tInterval.Milliseconds()
	if d := m.intervals.MeanMs(); math.Abs(d-wantD) > 0.1*wantD {
		t.Fatalf("fat-mesh d = %.3f ms, want ~%.3f", d, wantD)
	}
	if sd := m.intervals.StdDevMs(); sd > 0.1*wantD {
		t.Fatalf("fat-mesh σd = %.3f ms at moderate load", sd)
	}
	if err := net.Fabric.CheckDrained(); err != nil {
		t.Fatal(err)
	}
	// Cross-switch traffic must actually traverse the fat links.
	transit := uint64(0)
	for _, r := range net.Routers {
		transit += r.Stats().FlitsSwitched
	}
	sunk := uint64(0)
	for _, s := range net.Sinks {
		sunk += s.FlitsReceived()
	}
	if transit <= sunk {
		t.Fatalf("switched %d ≤ sunk %d: no multi-hop traffic?", transit, sunk)
	}
}

func TestSinkFrameReassembly(t *testing.T) {
	// Direct sink test: frames complete only when all messages arrive.
	eng := sim.NewEngine()
	cfg := baseCfg(sched.FIFO, 4, 4)
	cfg.Ports = 2
	net, err := paperNet(eng, "single-switch", cfg)
	if err != nil {
		t.Fatal(err)
	}
	var frames []int
	net.Sinks[1].OnFrame = func(stream, frame int, at sim.Time) { frames = append(frames, frame) }
	var ids uint64
	st, err := traffic.StartStream(eng, net.NIs[0], traffic.StreamConfig{
		ID: 7, Class: flit.CBR, Src: 0, Dst: 1, InVC: 0, DstVC: 0,
		FrameBytes: 400, Interval: 100 * sim.Microsecond,
		MsgFlits: 20, FlitBits: 32,
		Start: 0, Stop: 1 * sim.Millisecond,
	}, rng.New(1), &ids)
	if err != nil {
		t.Fatal(err)
	}
	eng.Run(2 * sim.Millisecond)
	eng.Drain()
	if st.FramesInjected != 10 {
		t.Fatalf("injected %d frames, want 10", st.FramesInjected)
	}
	if len(frames) != 10 {
		t.Fatalf("delivered %d frames, want 10", len(frames))
	}
	for i, f := range frames {
		if f != i {
			t.Fatalf("frames out of order: %v", frames)
		}
	}
	if net.Sinks[1].PendingFrames() != 0 {
		t.Fatal("partial frames left behind")
	}
	if err := net.Fabric.CheckDrained(); err != nil {
		t.Fatal(err)
	}
}

func TestWorkConservation(t *testing.T) {
	// Every injected flit must be sunk exactly once.
	eng := sim.NewEngine()
	net, err := paperNet(eng, "single-switch", baseCfg(sched.VirtualClock, 8, 8))
	if err != nil {
		t.Fatal(err)
	}
	var ids uint64
	for n := 0; n < 8; n++ {
		if _, err := traffic.StartStream(eng, net.NIs[n], traffic.StreamConfig{
			ID: n, Class: flit.VBR, Src: n, Dst: (n + 3) % 8, InVC: n % 8, DstVC: n % 8,
			FrameBytes: 800, FrameBytesSD: 100, Interval: 200 * sim.Microsecond,
			MsgFlits: 20, FlitBits: 32, Start: sim.Time(n) * sim.Microsecond,
			Stop: 2 * sim.Millisecond,
		}, rng.New(uint64(n)), &ids); err != nil {
			t.Fatal(err)
		}
	}
	eng.Run(5 * sim.Millisecond)
	eng.Drain()
	if err := net.Fabric.CheckDrained(); err != nil {
		t.Fatal(err)
	}
	totalSunk := uint64(0)
	for _, s := range net.Sinks {
		totalSunk += s.FlitsReceived()
	}
	if totalSunk == 0 {
		t.Fatal("nothing delivered")
	}
	if got := net.Routers[0].Stats().FlitsTransmitted; got != totalSunk {
		t.Fatalf("transmitted %d ≠ sunk %d", got, totalSunk)
	}
}

func TestNIBacklogAndEmpty(t *testing.T) {
	eng := sim.NewEngine()
	net, err := paperNet(eng, "single-switch", baseCfg(sched.FIFO, 4, 4))
	if err != nil {
		t.Fatal(err)
	}
	ni := net.NIs[0]
	if !ni.Empty() || ni.Backlog() != 0 {
		t.Fatal("fresh NI not empty")
	}
	m := &flit.Message{ID: 1, Class: flit.VBR, MsgsInFrame: 1, Flits: 5, Vtick: 100, Dst: 1, Injected: 0}
	ni.Inject(0, m)
	if ni.Empty() || ni.Backlog() != 1 {
		t.Fatal("injection not visible in backlog")
	}
	eng.Drain()
	if !ni.Empty() {
		t.Fatal("NI did not drain")
	}
}

func TestInjectZeroFlitMessagePanics(t *testing.T) {
	eng := sim.NewEngine()
	net, err := paperNet(eng, "single-switch", baseCfg(sched.FIFO, 4, 4))
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	net.NIs[0].Inject(0, &flit.Message{})
}
