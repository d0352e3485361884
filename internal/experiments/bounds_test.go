package experiments

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"mediaworm"
	"mediaworm/internal/calculus"
	"mediaworm/internal/sched"
	"mediaworm/internal/traffic"
)

// TestBoundsSmokeSoundness is the in-tree soundness gate: on the reduced
// grid the analytic bound must dominate every observed worst-case latency,
// certifiable cells must actually certify streams, and saturating cells must
// be declined rather than given an optimistic finite bound.
func TestBoundsSmokeSoundness(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	rep, err := BoundsSmoke(fastOpt())
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.Violations(); got != 0 {
		t.Fatalf("%d observed worst-case latencies above their analytic bound", got)
	}
	certified, compared := 0, 0
	for _, c := range rep.Cells {
		certified += c.Certified
		compared += c.Compared
		if c.Certified > c.Streams || c.Compared > c.Certified {
			t.Fatalf("cell %+v has inconsistent counts", c)
		}
		if c.Compared > 0 && c.MedianSlack < 1 {
			t.Fatalf("cell load %.2f mix %.2f median slack %.2f < 1 with zero violations",
				c.Load, c.RTShare, c.MedianSlack)
		}
	}
	if certified == 0 || compared == 0 {
		t.Fatal("no cell certified any stream — the experiment compares nothing")
	}
	// The saturating pure-RT corner must be declined: certifying a fabric
	// whose aggregate exceeds service capacity would be unsound.
	for _, c := range rep.Cells {
		if c.Fabric == "single-switch" && c.Load == 0.90 && c.RTShare == 1.0 && c.Certified != 0 {
			t.Fatalf("saturating cell certified %d streams", c.Certified)
		}
	}
}

func TestBoundsReportPrint(t *testing.T) {
	rep := &BoundsReport{
		Cells: []BoundsPoint{
			{Fabric: "single-switch", Load: 0.6, RTShare: 0.5, Streams: 10, Certified: 10,
				Compared: 10, WorstBoundMs: 3.2, WorstObservedMs: 0.5, MedianSlack: 6.4,
				MaxBacklogKbits: 60},
			{Fabric: "fat-mesh", Load: 0.9, RTShare: 0.8, Streams: 12,
				MaxBacklogKbits: math.Inf(1)},
		},
		Notes: "test grid",
	}
	var buf bytes.Buffer
	rep.Fprint(&buf)
	out := buf.String()
	for _, want := range []string{"single-switch", "fat-mesh", "inf", "6.4", "total violations: 0"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report output missing %q:\n%s", want, out)
		}
	}
}

func TestCalculusParamsMapsConfig(t *testing.T) {
	cfg := baseConfig(fastOpt())
	p, err := CalculusParams(cfg, 0.8, 0.5, 8)
	if err != nil {
		t.Fatal(err)
	}
	if p.Spec.String() != "full1c8" || p.Spec.Endpoints() != cfg.Ports {
		t.Fatalf("single-switch mapping: %+v", p.Spec)
	}
	if p.RTVCs != 8 || math.Abs(p.BestEffortLoad-0.4) > 1e-12 {
		t.Fatalf("partition mapping: RTVCs %d BE %v", p.RTVCs, p.BestEffortLoad)
	}
	if p.IntervalSec != cfg.FrameInterval.Seconds() {
		t.Fatalf("interval %v != %v", p.IntervalSec, cfg.FrameInterval.Seconds())
	}
	fatCfg := cfg
	fatCfg.Topology = mediaworm.FatMesh2x2
	fat, err := CalculusParams(fatCfg, 0.8, 0.5, 8)
	if err != nil {
		t.Fatal(err)
	}
	if fat.Spec.String() != "mesh2x2l2" || fat.Spec.Endpoints() != 16 {
		t.Fatalf("fat-mesh mapping: %+v", fat.Spec)
	}
	fatCfg.Lanes = 3
	if wide, err := CalculusParams(fatCfg, 0.8, 0.5, 8); err != nil || wide.Spec.Lanes != 3 {
		t.Fatalf("lane override: %+v, %v", wide.Spec, err)
	}
	if p.RTWeight != 0 || p.BEWeight != 0 || p.Quantum != 0 {
		t.Fatalf("unweighted config priced with weights %d:%d quantum %d", p.RTWeight, p.BEWeight, p.Quantum)
	}
	weighted := cfg
	weighted.Policy = mediaworm.WRR
	weighted.Sched = mediaworm.SchedConfig{RTWeight: 3, BEWeight: 1, Quantum: 2}
	wp, err := CalculusParams(weighted, 0.8, 0.5, 8)
	if err != nil {
		t.Fatal(err)
	}
	if wp.Policy != sched.WRR || wp.RTWeight != 3 || wp.BEWeight != 1 || wp.Quantum != 2 {
		t.Fatalf("weighted mapping: %v %d:%d quantum %d", wp.Policy, wp.RTWeight, wp.BEWeight, wp.Quantum)
	}
	// The weights reach the bound: 3:1 buys the real-time VCs a larger share
	// than 1:1, so the same cell is priced tighter.
	bound := func(sc mediaworm.SchedConfig) float64 {
		c := weighted
		c.Sched = sc
		p, err := CalculusParams(c, 0.4, 0.4, traffic.PartitionVCs(c.VCs, 0.4))
		if err != nil {
			t.Fatal(err)
		}
		b, _, err := calculus.BalancedDelayBoundSec(p, 0.4, 0.4)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	if bw, bu := bound(weighted.Sched), bound(mediaworm.SchedConfig{}); !(bw < bu) {
		t.Fatalf("WRR 3:1 bound %v not below the 1:1 bound %v", bw, bu)
	}
	bad := cfg
	bad.Policy = "bogus"
	if _, err := CalculusParams(bad, 0.8, 0.5, 8); err == nil {
		t.Fatal("bogus policy accepted")
	}
}

// TestCalculusPricesTheConfiguredFabric guards against pricing a fabric as
// some other one, such as every topology but the fat-mesh as the single
// switch: the tetrahedral cluster and a generated mesh get bounds of their
// own, and fabrics the model cannot price soundly are refused before any
// cell runs.
func TestCalculusPricesTheConfiguredFabric(t *testing.T) {
	bound := func(topo mediaworm.Topology) (float64, error) {
		cfg := baseConfig(fastOpt())
		cfg.Topology = topo
		p, err := CalculusParams(cfg, 0.4, 0.4, traffic.PartitionVCs(cfg.VCs, 0.4))
		if err != nil {
			return 0, err
		}
		b, _, err := calculus.BalancedDelayBoundSec(p, 0.4, 0.4)
		return b, err
	}
	single, err := bound(mediaworm.SingleSwitch)
	if err != nil {
		t.Fatal(err)
	}
	for _, topo := range []mediaworm.Topology{mediaworm.Tetrahedral, "mesh3x3c1"} {
		b, err := bound(topo)
		if err != nil {
			t.Fatalf("%s: %v", topo, err)
		}
		if b == single || math.IsInf(b, 1) {
			t.Fatalf("%s priced at %v, the single switch at %v", topo, b, single)
		}
	}
	for _, topo := range []mediaworm.Topology{"torus4x4c1", "clos4x2"} {
		if _, err := bound(topo); err == nil {
			t.Fatalf("%s priced, but the model cannot price it soundly", topo)
		}
		cells := []boundsCell{{topology: mediaworm.SingleSwitch, load: 0.6, mix: 0.5}, {topology: topo, load: 0.6, mix: 0.5}}
		if _, err := boundsSweep(fastOpt(), cells, ""); err == nil || !strings.Contains(err.Error(), string(topo)) {
			t.Fatalf("bounds sweep over %s: error %v, want a refusal naming it", topo, err)
		}
	}
}

// TestBoundsSoundBeyondThePaperFabrics is the soundness cell for each spec
// family the model prices beyond the paper's single switch and fat-mesh: a
// fully connected cluster (the tetrahedral) and a multi-hop generated mesh.
// Every observed worst-case latency must stay within its analytic bound.
func TestBoundsSoundBeyondThePaperFabrics(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	rep, err := boundsSweep(fastOpt(), []boundsCell{
		{topology: mediaworm.Tetrahedral, load: 0.60, mix: 0.4},
		{topology: "mesh3x3c1", load: 0.40, mix: 0.4},
	}, "")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range rep.Cells {
		t.Logf("%+v", c)
		if c.Compared == 0 {
			t.Fatalf("%s cell compared nothing: %+v", c.Fabric, c)
		}
		if c.Violations != 0 {
			t.Fatalf("%s: %d observed worst-case latencies above their bound (%+v)", c.Fabric, c.Violations, c)
		}
	}
}
