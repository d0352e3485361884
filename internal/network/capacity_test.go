package network_test

import (
	"testing"

	"mediaworm/internal/flit"
	"mediaworm/internal/sched"
	"mediaworm/internal/sim"
	"mediaworm/internal/traffic"
)

// capacityRun drives a single-switch mix for a fixed window and returns the
// aggregate NI sent/stall fractions and mean grant wait in cycles.
func capacityRun(t *testing.T, load, rtShare float64, spanIntervals int) (sent, stalled, grantWait float64, backlog int) {
	t.Helper()
	eng := sim.NewEngine()
	vcs := 16
	rt := traffic.PartitionVCs(vcs, rtShare)
	cfg := baseCfg(sched.VirtualClock, vcs, rt)
	net, err := paperNet(eng, "single-switch", cfg)
	if err != nil {
		t.Fatal(err)
	}
	stop := sim.Time(spanIntervals) * tInterval
	mix := traffic.MixConfig{
		Load: load, RTShare: rtShare, Class: flit.VBR,
		LinkBitsPerSec: 400e6, FlitBits: 32, MsgFlits: 20,
		FrameBytes: tFrameBytes, FrameBytesSD: tFrameBytes / 5,
		Interval: tInterval, VCs: vcs, RTVCs: rt,
		Stop: stop, Seed: 12345,
	}
	if _, err := traffic.Apply(eng, net, mix); err != nil {
		t.Fatal(err)
	}
	eng.Run(stop)
	var sentN, stallN uint64
	for _, ni := range net.NIs {
		sentN += ni.Sent
		stallN += ni.Stalls
		backlog += ni.Backlog()
	}
	cycles := float64(uint64(stop/tPeriod) * 8)
	s := net.Routers[0].Stats()
	gw := 0.0
	if s.GrantWaitCount > 0 {
		gw = float64(s.GrantWait) / float64(s.GrantWaitCount) / float64(tPeriod)
	}
	return float64(sentN) / cycles, float64(stallN) / cycles, gw, backlog
}

// These are capacity regression anchors: the switch-allocation and
// VC-sharing design (DESIGN.md §3) must keep the fabric serving ≥0.93 of
// link bandwidth under the paper's hardest stable operating points. They
// guard against reintroducing the serialization collapses found during
// development (message-granularity crossbar holds, exclusive endpoint VCs,
// greedy-only matching).

func TestCapacityPureBestEffort(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	sent, _, _, backlog := capacityRun(t, 0.95, 0, 8)
	if sent < 0.93 {
		t.Fatalf("pure best-effort throughput %.3f at 0.95 offered, want ≥0.93", sent)
	}
	// The backlog must stay bounded (hundreds of messages means stable).
	if backlog > 2000 {
		t.Fatalf("backlog %d messages at 0.95 load: unstable", backlog)
	}
}

func TestCapacityMixedTraffic(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	sent, _, _, _ := capacityRun(t, 0.90, 0.5, 12)
	// Offered ≈ 0.92 wire (5% real-time header overhead on half the load);
	// the window includes the start-up ramp, so the average runs a little
	// below steady state. The pre-fix serialization collapses measured
	// ≈0.62 here.
	if sent < 0.86 {
		t.Fatalf("50:50 mixed throughput %.3f at 0.90 offered, want ≥0.86", sent)
	}
}

func TestGrantWaitStaysSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	_, _, gw, _ := capacityRun(t, 0.90, 0.5, 6)
	// Shared endpoint VCs make allocation near-immediate; a regression to
	// per-message VC holds pushes this to ~80 cycles.
	if gw > 5 {
		t.Fatalf("mean VC-allocation wait %.1f cycles, want ≤5", gw)
	}
}
