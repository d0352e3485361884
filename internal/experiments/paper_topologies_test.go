package experiments_test

import (
	"bytes"
	"encoding/csv"
	"os"
	"path/filepath"
	"strconv"
	"testing"
	"time"

	"mediaworm"
)

// paperTopologyCells is the paper-fabric smoke grid: one fault-free cell on
// each of the paper's three fabrics, plus the fat-mesh under stochastic link
// churn with the full resilience stack, which drives the fault-aware
// rerouting path.
func paperTopologyCells() []struct {
	name string
	cfg  mediaworm.Config
} {
	base := func(topo mediaworm.Topology, load float64) mediaworm.Config {
		cfg := mediaworm.DefaultConfig().Scale(0.05)
		cfg.Warmup = cfg.FrameInterval
		cfg.Measure = 2 * cfg.FrameInterval
		cfg.Topology = topo
		cfg.Load = load
		cfg.RTShare = 0.8
		return cfg
	}
	faulted := base(mediaworm.FatMesh2x2, 0.6)
	faulted.Faults = mediaworm.FaultsConfig{
		LinkMTBF:        faulted.Measure / 2,
		LinkMTTR:        faulted.Measure / 20,
		Retransmit:      true,
		WatchdogRecover: true,
	}
	return []struct {
		name string
		cfg  mediaworm.Config
	}{
		{"single-switch", base(mediaworm.SingleSwitch, 0.8)},
		{"fat-mesh-2x2", base(mediaworm.FatMesh2x2, 0.6)},
		{"tetrahedral", base(mediaworm.Tetrahedral, 0.6)},
		{"fat-mesh-2x2+faults", faulted},
	}
}

// TestPaperTopologiesSmokeGolden pins the paper's fabrics end to end: the
// single switch, the 2×2 fat-mesh, the tetrahedral cluster, and a faulted
// fat-mesh cell that must see link failures. Any change to how these
// fabrics are wired, routed or rerouted around dead links shows up as a
// byte diff. Regenerate deliberately with -update.
func TestPaperTopologiesSmokeGolden(t *testing.T) {
	var got bytes.Buffer
	w := csv.NewWriter(&got)
	header := []string{"cell", "d_ms", "sd_ms", "frame_intervals", "streams",
		"be_latency_us", "be_delivered", "flits_delivered",
		"link_downs", "flits_dropped", "messages_killed", "retransmissions", "frames_delivered"}
	if err := w.Write(header); err != nil {
		t.Fatal(err)
	}
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', 10, 64) }
	u := func(v uint64) string { return strconv.FormatUint(v, 10) }
	for _, c := range paperTopologyCells() {
		res, err := mediaworm.Run(c.cfg)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		rs := res.Resilience
		if c.cfg.Faults.LinkMTBF > 0 && rs.LinkDowns == 0 {
			t.Fatalf("%s: no link failed; the cell does not exercise rerouting", c.name)
		}
		norm := float64(33*time.Millisecond) / float64(c.cfg.FrameInterval)
		if err := w.Write([]string{c.name,
			f(res.MeanDeliveryIntervalMs * norm), f(res.StdDevDeliveryIntervalMs * norm),
			u(res.FrameIntervals), strconv.Itoa(res.Streams),
			f(res.BestEffort.MeanLatencyUs), u(res.BestEffort.Delivered), u(res.FlitsDelivered),
			u(rs.LinkDowns), u(rs.FlitsDropped), u(rs.MessagesKilled), u(rs.Retransmissions),
			u(rs.FramesDelivered),
		}); err != nil {
			t.Fatal(err)
		}
	}
	w.Flush()
	if err := w.Error(); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "paper_topologies_smoke.csv")
	if *updateGolden {
		if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden (regenerate with -update): %v", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("paper-topology smoke CSV drifted from golden; rerun with -update if intended\ngot:\n%s\nwant:\n%s",
			got.Bytes(), want)
	}
}
