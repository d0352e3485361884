package mediaworm

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"
)

var updateCounters = flag.Bool("update", false, "rewrite testdata/router_counters.txt")

// counterConfigs are the runs TestRouterCountersGolden pins: the three
// benchmark fabrics at short windows, and a faulted fat-mesh with link
// churn, flit corruption, retransmission and deadlock recovery, so the
// kill and reap paths move the counters too.
func counterConfigs() []struct {
	name string
	cfg  Config
} {
	window := func(cfg Config, warmup, measure time.Duration) Config {
		cfg.Warmup, cfg.Measure = warmup, measure
		return cfg
	}
	switch8 := DefaultConfig().Scale(0.05)
	switch8.Load, switch8.RTShare = 0.8, 0.8
	fatmesh := DefaultConfig().Scale(0.05)
	fatmesh.Topology = FatMesh2x2
	fatmesh.Policy = WF2Q
	fatmesh.Policing.Enabled = true
	fatmesh.Load, fatmesh.RTShare = 0.9, 0.8
	torus := DefaultConfig().Scale(0.02)
	torus.Topology = "torus8x8"
	torus.Load, torus.RTShare = 0.15, 0.8
	faulted := DefaultConfig().Scale(0.05)
	faulted.Topology = FatMesh2x2
	faulted.Load, faulted.RTShare = 0.6, 0.8
	faulted = window(faulted, faulted.FrameInterval/2, faulted.FrameInterval)
	faulted.Faults = FaultsConfig{
		LinkMTBF:           faulted.Measure / 2,
		LinkMTTR:           faulted.Measure / 20,
		FlitCorruptionProb: 0.0005,
		Retransmit:         true,
		WatchdogRecover:    true,
	}
	return []struct {
		name string
		cfg  Config
	}{
		{"switch8", window(switch8, switch8.FrameInterval, 2*switch8.FrameInterval)},
		{"fatmesh_policed", window(fatmesh, fatmesh.FrameInterval/2, fatmesh.FrameInterval/2)},
		{"torus8x8_sparse", window(torus, torus.FrameInterval/8, torus.FrameInterval/8)},
		{"fatmesh_faulted", faulted},
	}
}

// TestRouterCountersGolden pins the counters a Result does not carry: every
// router's Stats (the Blocked* sampling among them) and per-port
// PortStats, and every NI's stall, send, drop and per-class injection
// counts. They otherwise reach only the snapshot bytes, so a change to how
// the router pipeline or the NI visits its virtual channels that skipped a
// blocked VC would pass every Result golden. Each config also runs traced,
// and must count the same: the router takes a different path through its
// VCs when tracing, so blocking spans open in VC order. Regenerate with
// -update.
func TestRouterCountersGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs eight simulations")
	}
	var b strings.Builder
	for _, tc := range counterConfigs() {
		untraced := counterText(t, tc.name, tc.cfg)
		traced := tc.cfg
		traced.Trace.Enabled = true
		if err := firstDiff(counterText(t, tc.name, traced), untraced); err != nil {
			t.Fatalf("%s: traced run counts differently: %v", tc.name, err)
		}
		b.WriteString(untraced)
	}
	const golden = "testdata/router_counters.txt"
	if *updateCounters {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if err := firstDiff(b.String(), string(want)); err != nil {
		t.Fatal(err)
	}
}

// counterText runs cfg to completion and prints its router and NI counters,
// headed by name.
func counterText(t *testing.T, name string, cfg Config) string {
	t.Helper()
	s, err := NewSim(cfg)
	if err != nil {
		t.Fatalf("%s: NewSim: %v", name, err)
	}
	if _, err := s.Finish(); err != nil {
		t.Fatalf("%s: Finish: %v", name, err)
	}
	var b strings.Builder
	net := s.Net()
	fmt.Fprintf(&b, "== %s\n", name)
	for i, r := range net.Routers {
		fmt.Fprintf(&b, "router %d %+v\n", i, r.Stats())
		for p := 0; p < r.Config().Ports; p++ {
			fmt.Fprintf(&b, "router %d port %d %+v\n", i, p, r.PortStats(p))
		}
	}
	for i, ni := range net.NIs {
		fmt.Fprintf(&b, "ni %d stalls=%d sent=%d dropped=%d rt=%d be=%d\n",
			i, ni.Stalls, ni.Sent, ni.Dropped, ni.RTFlits, ni.BEFlits)
	}
	return b.String()
}

// firstDiff reports the first line where got and want differ, or nil.
func firstDiff(got, want string) error {
	if got == want {
		return nil
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			return fmt.Errorf("counters diverge at line %d:\n got: %s\nwant: %s", i+1, gl[i], wl[i])
		}
	}
	return fmt.Errorf("counters have %d lines, want %d", len(gl), len(wl))
}
