package experiments

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"

	"mediaworm"
	"mediaworm/internal/calculus"
	"mediaworm/internal/sched"
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
	cfg.Load, cfg.RTShare = 0.8, 0.5
	p, err := CalculusParams(cfg)
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
	fat, err := CalculusParams(fatCfg)
	if err != nil {
		t.Fatal(err)
	}
	if fat.Spec.String() != "mesh2x2l2" || fat.Spec.Endpoints() != 16 {
		t.Fatalf("fat-mesh mapping: %+v", fat.Spec)
	}
	fatCfg.Lanes, fatCfg.Ports = 3, 10
	if wide, err := CalculusParams(fatCfg); err != nil || wide.Spec.Lanes != 3 {
		t.Fatalf("lane override: %+v, %v", wide.Spec, err)
	}
	if p.RTWeight != 0 || p.BEWeight != 0 || p.Quantum != 0 {
		t.Fatalf("unweighted config priced with weights %d:%d quantum %d", p.RTWeight, p.BEWeight, p.Quantum)
	}
	weighted := cfg
	weighted.Policy = mediaworm.WRR
	weighted.Sched = mediaworm.SchedConfig{RTWeight: 3, BEWeight: 1, Quantum: 2}
	wp, err := CalculusParams(weighted)
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
		c.Load, c.RTShare = 0.4, 0.4
		p, err := CalculusParams(c)
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
	if _, err := CalculusParams(bad); err == nil {
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
		cfg := gridConfig(fastOpt(), topo, 0.4, 0.4)
		p, err := CalculusParams(cfg)
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
		cells := []mediaworm.Config{gridConfig(fastOpt(), mediaworm.SingleSwitch, 0.6, 0.5), gridConfig(fastOpt(), topo, 0.6, 0.5)}
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
	rep, err := boundsSweep(fastOpt(), []mediaworm.Config{
		gridConfig(fastOpt(), mediaworm.Tetrahedral, 0.60, 0.4),
		gridConfig(fastOpt(), "mesh3x3c1", 0.40, 0.4),
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

// TestBoundsSoundUnderEveryDiscipline checks the bound against the
// scheduler it prices: one certifiable single-switch cell under each
// discipline besides Virtual Clock at weights 3:1 and DRR quantum 2, plus
// WRR at 6:2, the weights whose picks DRR 3:1 at quantum 2 grants. The
// bounds sweep simulates each cell's configured policy and weights, so an
// unsound service curve or pace term for any of them shows as a violation.
func TestBoundsSoundUnderEveryDiscipline(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	cell := func(p mediaworm.Policy, sc mediaworm.SchedConfig) mediaworm.Config {
		cfg := gridConfig(fastOpt(), mediaworm.SingleSwitch, 0.6, 0.5)
		cfg.Policy, cfg.Sched = p, sc
		return cfg
	}
	weighted := mediaworm.SchedConfig{RTWeight: 3, BEWeight: 1, Quantum: 2}
	var cells []mediaworm.Config
	for _, p := range []mediaworm.Policy{mediaworm.FIFO, mediaworm.RoundRobin,
		mediaworm.WRR, mediaworm.DRR, mediaworm.WF2Q, mediaworm.SPWRR} {
		cells = append(cells, cell(p, weighted))
	}
	cells = append(cells, cell(mediaworm.WRR, mediaworm.SchedConfig{RTWeight: 6, BEWeight: 2}))
	rep, err := boundsSweep(fastOpt(), cells, "")
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range rep.Cells {
		name := fmt.Sprintf("%s %d:%d q%d", cells[i].Policy,
			cells[i].Sched.RTWeight, cells[i].Sched.BEWeight, cells[i].Sched.Quantum)
		t.Logf("%s: certified %d/%d, bound %.3f ms, observed %.3f ms",
			name, c.Certified, c.Streams, c.WorstBoundMs, c.WorstObservedMs)
		if c.Compared == 0 {
			t.Fatalf("%s compared nothing: %+v", name, c)
		}
		if c.Violations != 0 {
			t.Fatalf("%s: %d observed worst-case latencies above their bound (%+v)", name, c.Violations, c)
		}
	}
}
