package mediaworm

import (
	"math"
	"testing"
	"time"

	"mediaworm/internal/core"
	"mediaworm/internal/sched"
)

// fastCfg returns a heavily scaled config for quick API tests.
func fastCfg() Config {
	cfg := DefaultConfig().Scale(0.1)
	cfg.Measure = 10 * cfg.FrameInterval
	cfg.Warmup = 3 * cfg.FrameInterval
	return cfg
}

func TestDefaultConfigValid(t *testing.T) {
	cfg := DefaultConfig()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if cfg.CyclePeriod() != 80*time.Nanosecond {
		t.Fatalf("cycle period %v, want 80ns (32 bits at 400 Mb/s)", cfg.CyclePeriod())
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	mutations := []func(*Config){
		func(c *Config) { c.Topology = "ring" },
		func(c *Config) { c.Ports = 1 },
		func(c *Config) { c.Topology = FatMesh2x2; c.Ports = 4 },
		func(c *Config) { c.VCs = 0 },
		func(c *Config) { c.Policy = "lifo" },
		func(c *Config) { c.BufferDepth = 0 },
		func(c *Config) { c.LinkBandwidthBps = 0 },
		func(c *Config) { c.FlitBits = 4 },
		func(c *Config) { c.LinkBandwidthBps = 40e9 }, // 0.8ns cycles truncate to 0
		func(c *Config) { c.Load = 0 },
		func(c *Config) { c.Load = 2 },
		func(c *Config) { c.RTShare = 1.5 },
		func(c *Config) { c.Class = "abr" },
		func(c *Config) { c.MsgFlits = 0 },
		func(c *Config) { c.FrameBytes = -1 },
		func(c *Config) { c.FrameInterval = 0 },
		func(c *Config) { c.Measure = 0 },
		func(c *Config) { c.Topology = "mesh300x300" }, // 90,000 routers: far above MaxArenaBytes
	}
	for i, mutate := range mutations {
		cfg := DefaultConfig()
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Fatalf("mutation %d accepted", i)
		}
		if _, err := Run(cfg); err == nil {
			t.Fatalf("Run accepted invalid config %d", i)
		}
	}
}

// TestNewSimRefusesRoutersAboveTheLimits pins a router's two limits,
// core.MaxPorts ports and sched.MaxVCs VCs, as errors from the fabric
// build, not panics: a single switch at each limit builds, and one more
// port, a Clos whose spine needs one more port, and one more VC are refused
// with the router-limit message, headed by the topology the Config names
// rather than the generator spec it resolves to. The limits are the
// wormhole router's, not the Config's: the PCS switch keeps its own port
// and VC ranges, so RunPCS still runs, and establishes connections, one
// above both limits.
func TestNewSimRefusesRoutersAboveTheLimits(t *testing.T) {
	for _, c := range []struct {
		ports, vcs int
		topology   Topology
		err        string // "" = NewSim builds
	}{
		{ports: core.MaxPorts},
		{vcs: sched.MaxVCs},
		{ports: core.MaxPorts + 1,
			err: "mediaworm: single-switch: topology: full1c65 needs 65-port routers, but a router supports at most 64"},
		{topology: "clos65x1",
			err: "mediaworm: clos65x1: topology: clos65x1 needs 65-port routers, but a router supports at most 64"},
		{vcs: sched.MaxVCs + 1,
			err: "mediaworm: single-switch: topology: 65 VCs per physical channel, but a router supports at most 64"},
	} {
		cfg := DefaultConfig()
		if c.ports != 0 {
			cfg.Ports = c.ports
		}
		if c.vcs != 0 {
			cfg.VCs = c.vcs
		}
		if c.topology != "" {
			cfg.Topology = c.topology
		}
		var got string
		if _, err := NewSim(cfg); err != nil {
			got = err.Error()
		}
		if got != c.err {
			t.Fatalf("NewSim with %d ports, %d VCs on %s: error %q, want %q", cfg.Ports, cfg.VCs, cfg.Topology, got, c.err)
		}
	}
	pcs := pcsBasicsCfg()
	pcs.Ports, pcs.VCs = core.MaxPorts+1, sched.MaxVCs+1
	if res, err := RunPCS(pcs); err != nil || res.Established == 0 {
		t.Fatalf("RunPCS with %d ports, %d VCs: %+v, %v", pcs.Ports, pcs.VCs, res, err)
	}
}

func TestScale(t *testing.T) {
	cfg := DefaultConfig()
	s := cfg.Scale(0.1)
	if s.FrameBytes != cfg.FrameBytes*0.1 || s.FrameInterval != cfg.FrameInterval/10 {
		t.Fatalf("scale broken: %+v", s)
	}
	// Out-of-range factors are identity.
	if cfg.Scale(0) != cfg || cfg.Scale(2) != cfg {
		t.Fatal("invalid scale factor should be identity")
	}
}

func TestRunJitterFreeAtModerateLoad(t *testing.T) {
	cfg := fastCfg()
	cfg.Load = 0.6
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantD := cfg.FrameInterval.Seconds() * 1000
	if math.Abs(res.MeanDeliveryIntervalMs-wantD) > 0.1*wantD {
		t.Fatalf("d = %.3f ms, want ~%.3f", res.MeanDeliveryIntervalMs, wantD)
	}
	if res.StdDevDeliveryIntervalMs > 0.05*wantD {
		t.Fatalf("σd = %.4f ms at 0.6 load", res.StdDevDeliveryIntervalMs)
	}
	if res.Streams == 0 || res.FrameIntervals == 0 || res.FlitsDelivered == 0 {
		t.Fatalf("empty result: %+v", res)
	}
	if res.BestEffort.Injected != 0 {
		t.Fatal("pure real-time run reported best-effort traffic")
	}
}

func TestRunMixedTraffic(t *testing.T) {
	cfg := fastCfg()
	cfg.Load = 0.6
	cfg.RTShare = 0.5
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.BestEffort.Injected == 0 || res.BestEffort.Delivered == 0 {
		t.Fatalf("no best-effort traffic: %+v", res.BestEffort)
	}
	if res.BestEffort.Saturated {
		t.Fatal("saturated at 0.3 best-effort load")
	}
	if res.BestEffort.MeanLatencyUs <= 0 {
		t.Fatal("non-positive latency")
	}
}

func TestRunDeterminism(t *testing.T) {
	cfg := fastCfg()
	cfg.RTShare = 0.8
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("identical configs diverged:\n%+v\n%+v", a, b)
	}
}

func TestRunCBRMatchesVBRShape(t *testing.T) {
	cfg := fastCfg()
	cfg.Class = CBR
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// CBR frames are constant-size: the frame-size spacing variance
	// disappears and jitter should be essentially zero at 0.8 load.
	if res.StdDevDeliveryIntervalMs > 0.02*res.MeanDeliveryIntervalMs {
		t.Fatalf("CBR σd = %.4f ms, want ≈0", res.StdDevDeliveryIntervalMs)
	}
}

func TestRunFatMesh(t *testing.T) {
	cfg := fastCfg()
	cfg.Topology = FatMesh2x2
	cfg.Load = 0.5
	cfg.RTShare = 0.6
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.FrameIntervals == 0 {
		t.Fatal("no frames delivered over the fat mesh")
	}
}

// TestLanesOverrideAppliesToEverySpec checks that Lanes widens the paper's
// fat-mesh like any generated spec: the override applies after the alias
// expands, and the fat-mesh's Ports must follow the wider plan.
func TestLanesOverrideAppliesToEverySpec(t *testing.T) {
	cfg := fastCfg()
	cfg.Topology = FatMesh2x2
	cfg.Lanes = 3
	if err := cfg.Validate(); err == nil {
		t.Fatal("3-lane fat mesh accepted with 8-port routers")
	}
	cfg.Ports = 10
	spec, err := cfg.TopologySpec()
	if err != nil {
		t.Fatal(err)
	}
	if got := spec.String(); got != "mesh2x2l3" {
		t.Fatalf("3-lane fat mesh resolves to %s", got)
	}
	s, err := NewSim(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(s.net.TransitLinks()); got != 12 {
		t.Fatalf("3-lane fat mesh has %d transit links, want 12", got)
	}
	for i, r := range s.net.Routers {
		if got := r.Config().Ports; got != 10 {
			t.Fatalf("router %d has %d ports, want 10", i, got)
		}
	}
	res, err := s.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if res.FrameIntervals == 0 {
		t.Fatal("no frames delivered over the 3-lane fat mesh")
	}
}

func TestRunFullCrossbar(t *testing.T) {
	cfg := fastCfg()
	cfg.VCs = 4
	cfg.FullCrossbar = true
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.FrameIntervals == 0 {
		t.Fatal("no frames delivered through the full crossbar")
	}
}

// pcsBasicsCfg is the paper's PCS switch (Fig. 8: 24 VCs at 100 Mb/s) at
// load 0.7, at fastCfg's scale.
func pcsBasicsCfg() Config {
	cfg := fastCfg()
	cfg.VCs = 24
	cfg.LinkBandwidthBps = 100e6
	cfg.Load = 0.7
	return cfg
}

func TestRunPCSBasics(t *testing.T) {
	cfg := pcsBasicsCfg()
	res, err := RunPCS(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Established == 0 || res.FrameIntervals == 0 {
		t.Fatalf("PCS run empty: %+v", res)
	}
	wantD := cfg.FrameInterval.Seconds() * 1000
	if math.Abs(res.MeanDeliveryIntervalMs-wantD) > 0.1*wantD {
		t.Fatalf("PCS d = %.3f, want ~%.3f", res.MeanDeliveryIntervalMs, wantD)
	}
	if res.StdDevDeliveryIntervalMs > 0.05*wantD {
		t.Fatalf("PCS σd = %.4f at 0.7 load", res.StdDevDeliveryIntervalMs)
	}
}

// TestRunPCSRefusesUnsupportedConfig checks that RunPCS refuses each
// workload the PCS model cannot generate rather than silently running the
// single-switch VBR workload in its place.
func TestRunPCSRefusesUnsupportedConfig(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mutate func(*Config)
	}{
		{"topology", func(c *Config) { c.Topology = Tetrahedral }},
		{"best-effort share", func(c *Config) { c.RTShare = 0.8 }},
		{"class", func(c *Config) { c.Class = CBR }},
		{"VBR model", func(c *Config) { c.VBRModel = VBRGoP }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := fastCfg()
			tc.mutate(&cfg)
			if err := cfg.Validate(); err != nil {
				t.Fatalf("the wormhole router accepts the config, PCS must refuse it itself: %v", err)
			}
			if _, err := RunPCS(cfg); err == nil {
				t.Fatal("RunPCS accepted a workload PCS cannot generate")
			}
		})
	}
}

func TestPCSAdmissionTable(t *testing.T) {
	res := PCSAdmission(8, 24, 25, 0.7, 1)
	if res.Attempts != res.Established+res.Dropped {
		t.Fatalf("accounting: %+v", res)
	}
	if res.Established < 120 || res.Established > 140 {
		t.Fatalf("established %d at 0.7 load, want ≈140", res.Established)
	}
}

func TestPlayoutMetric(t *testing.T) {
	// Jitter-free operation: essentially no deadline misses with a 2-frame
	// buffer.
	cfg := fastCfg()
	cfg.Load = 0.6
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Playout.JudgedFrames == 0 {
		t.Fatal("playout metric did not run")
	}
	if res.Playout.MissRate > 0.001 {
		t.Fatalf("miss rate %.4f at 0.6 load with a 2-frame buffer", res.Playout.MissRate)
	}
	// Overloaded FIFO router: real misses appear.
	cfg.Policy = FIFO
	cfg.Load = 0.96
	cfg.RTShare = 0.8
	over, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if over.Playout.MissRate <= res.Playout.MissRate {
		t.Fatalf("overloaded FIFO miss rate %.4f not above %.4f",
			over.Playout.MissRate, res.Playout.MissRate)
	}
	// Disabled when the buffer is 0.
	cfg.PlayoutBufferFrames = 0
	off, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if off.Playout.JudgedFrames != 0 {
		t.Fatal("playout metric ran while disabled")
	}
}

func TestRunTetrahedralTopology(t *testing.T) {
	cfg := fastCfg()
	cfg.Topology = Tetrahedral
	cfg.Load = 0.5
	cfg.RTShare = 0.7
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.FrameIntervals == 0 || res.BestEffort.Delivered == 0 {
		t.Fatalf("tetrahedral run empty: %+v", res)
	}
}

func TestRunGoPModel(t *testing.T) {
	cfg := fastCfg()
	cfg.VBRModel = VBRGoP
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.FrameIntervals == 0 {
		t.Fatal("GoP run empty")
	}
	// GoP's structured bursts raise σd above the normal model's floor.
	cfg.VBRModel = VBRNormal
	normal, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.StdDevDeliveryIntervalMs <= normal.StdDevDeliveryIntervalMs {
		t.Fatalf("GoP σd %.4f not above normal %.4f",
			res.StdDevDeliveryIntervalMs, normal.StdDevDeliveryIntervalMs)
	}
}

// TestValidatePolicyNames pins the policy-name resolver: every discipline's
// canonical spelling is a policy name, and sched.ParseKind's aliases are
// not, with the same error texts for Policy and SourcePolicy as ever.
func TestValidatePolicyNames(t *testing.T) {
	for _, k := range sched.Kinds() {
		cfg := DefaultConfig()
		cfg.Policy, cfg.SourcePolicy = Policy(k.String()), Policy(k.String())
		if err := cfg.Validate(); err != nil {
			t.Fatalf("%v: %v", k, err)
		}
		if got, ok := schedKind(cfg.Policy); !ok || got != k {
			t.Fatalf("schedKind(%q) = %v, %v", cfg.Policy, got, ok)
		}
	}
	for _, alias := range []Policy{"rr", "vc", "virtualclock", "FIFO", "wf2q+", "wfq", "sp-wrr", "spwrr", " fifo", ""} {
		cfg := DefaultConfig()
		cfg.Policy = alias
		if err := cfg.Validate(); err == nil || err.Error() != `mediaworm: unknown policy "`+string(alias)+`"` {
			t.Fatalf("Policy %q: %v", alias, err)
		}
		if alias == "" {
			continue // an empty SourcePolicy means "follow Policy"
		}
		cfg = DefaultConfig()
		cfg.SourcePolicy = alias
		if err := cfg.Validate(); err == nil || err.Error() != `mediaworm: unknown source policy "`+string(alias)+`"` {
			t.Fatalf("SourcePolicy %q: %v", alias, err)
		}
	}
}

func TestRunSourcePolicyOverride(t *testing.T) {
	cfg := fastCfg()
	cfg.SourcePolicy = FIFO
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	cfg.SourcePolicy = "bogus"
	if _, err := Run(cfg); err == nil {
		t.Fatal("bogus source policy accepted")
	}
}

func TestRunAblationKnobs(t *testing.T) {
	cfg := fastCfg()
	cfg.AllocatorIterations = 1
	cfg.ExclusiveEndpointVCs = true
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	cfg.AllocatorIterations = 3
	if _, err := Run(cfg); err == nil {
		t.Fatal("AllocatorIterations 3 accepted")
	}
}
