// Package mediaworm reproduces "Investigating QoS Support for Traffic Mixes
// with the MediaWorm Router" (Yum, Vaidya, Das, Sivasubramaniam — HPCA 2000)
// as a flit-level, cycle-accurate wormhole-router simulation library.
//
// The MediaWorm router is a conventional five-stage pipelined wormhole
// router with one modification: the bandwidth multiplexers schedule flits
// with the Virtual Clock rate-based algorithm instead of FIFO, giving soft
// QoS guarantees to VBR/CBR video streams mixed with best-effort traffic.
//
// Quick start:
//
//	cfg := mediaworm.DefaultConfig()
//	cfg.Load, cfg.RTShare = 0.8, 0.8 // 80% link load, 80:20 VBR:best-effort
//	res, err := mediaworm.Run(cfg)
//	// res.MeanDeliveryIntervalMs ≈ 33, res.StdDevDeliveryIntervalMs ≈ 0
//
// The full experiment harness that regenerates every figure and table of the
// paper lives in internal/experiments and is driven by cmd/paperfigs.
package mediaworm

import (
	"fmt"
	"math"

	"mediaworm/internal/core"
	"mediaworm/internal/flit"
	"mediaworm/internal/pcs"
	"mediaworm/internal/police"
	"mediaworm/internal/rng"
	"mediaworm/internal/sched"
	"mediaworm/internal/sim"
	"mediaworm/internal/stats"
)

// schedParams maps the VC partition onto the per-VC weights and priority
// tiers the weighted disciplines consume: real-time VCs [0, rtVCs) carry
// RTWeight at tier 0, best-effort VCs carry BEWeight at tier 1.
func schedParams(cfg Config, rtVCs int) sched.Params {
	rtw, bew := cfg.Sched.RTWeight, cfg.Sched.BEWeight
	if rtw <= 0 {
		rtw = 1
	}
	if bew <= 0 {
		bew = 1
	}
	p := sched.Params{
		VCs: cfg.VCs, Quantum: cfg.Sched.Quantum,
		Weights: make([]int, cfg.VCs), Tiers: make([]int, cfg.VCs),
	}
	for v := 0; v < cfg.VCs; v++ {
		if v < rtVCs {
			p.Weights[v] = rtw
		} else {
			p.Weights[v] = bew
			p.Tiers[v] = 1
		}
	}
	return p
}

// RouterConfig maps the configuration onto the router every fabric node
// runs, with real-time VCs [0, rtVCs). NewSim builds its fabric from it;
// experiments that drive a fabric directly, or price one analytically, read
// the same mapping. It expects a configuration Validate accepts.
func (c *Config) RouterConfig(rtVCs int) core.Config {
	kind, _ := schedKind(c.Policy) // Validate accepted the name
	return core.Config{
		Ports:                c.Ports,
		VCs:                  c.VCs,
		RTVCs:                rtVCs,
		BufferDepth:          c.BufferDepth,
		StageDepth:           c.StageDepth,
		FullCrossbar:         c.FullCrossbar,
		Policy:               kind,
		Sched:                schedParams(*c, rtVCs),
		Period:               sim.Time(c.CyclePeriod().Nanoseconds()),
		AllocatorIterations:  c.AllocatorIterations,
		ExclusiveEndpointVCs: c.ExclusiveEndpointVCs,
	}
}

// policingParams resolves the policing defaults against the workload. The
// committed rate is CIRFactor × the source's nominal real-time injection
// rate, and the WRED thresholds scale with the message size: red (violating)
// traffic starts dropping at a two-message average backlog, yellow at four,
// and green only under severe congestion — the drop-precedence ordering the
// conformance battery checks.
func policingParams(cfg Config) (police.MeterConfig, police.DropperConfig) {
	pc := cfg.Policing
	factor := pc.CIRFactor
	if factor == 0 {
		factor = 1.2
	}
	// Default burst depths scale with the frame, the workload's natural
	// burst unit: one nominal frame's wire flits (header overhead included)
	// of committed burst, half a frame of excess.
	hdr := 1.0
	if cfg.MsgFlits > 1 {
		hdr = float64(cfg.MsgFlits) / float64(cfg.MsgFlits-1)
	}
	frameFlits := int(math.Ceil(cfg.FrameBytes * 8 / float64(cfg.FlitBits) * hdr))
	cbs, ebs := pc.CBSFlits, pc.EBSFlits
	if cbs == 0 {
		cbs = max(frameFlits, 2*cfg.MsgFlits)
	}
	if ebs == 0 {
		ebs = max(frameFlits/2, cfg.MsgFlits)
	}
	mc := police.MeterConfig{
		CIR: factor * cfg.Load * cfg.RTShare * cfg.LinkBandwidthBps / float64(cfg.FlitBits),
		CBS: cbs,
		EBS: ebs,
	}
	// WRED thresholds in frame units: red (violating) traffic starts
	// dropping at one frame of average backlog, yellow at two, green only
	// past four — per-class drop precedence by construction.
	f := max(frameFlits, 2*cfg.MsgFlits)
	dc := police.DropperConfig{
		Profiles: [police.NumColors]police.DropProfile{
			police.Green:  {MinFlits: 4 * f, MaxFlits: 8 * f, MaxProb: 0.02},
			police.Yellow: {MinFlits: 2 * f, MaxFlits: 6 * f, MaxProb: 0.5},
			police.Red:    {MinFlits: f, MaxFlits: 4 * f, MaxProb: 1.0},
		},
		WeightExp: pc.DropExp,
	}
	return mc, dc
}

func flitClass(c TrafficClass) (flit.Class, error) {
	switch c {
	case VBR:
		return flit.VBR, nil
	case CBR:
		return flit.CBR, nil
	}
	return 0, fmt.Errorf("mediaworm: unknown class %q", c)
}

// Run executes one wormhole (MediaWorm or FIFO-baseline) simulation and
// returns its measurements. Identical configs produce identical results.
// Run is NewSim followed by Finish; use the Sim API directly for stepwise
// execution and checkpoint/restore.
func Run(cfg Config) (Result, error) {
	s, err := NewSim(cfg)
	if err != nil {
		return Result{}, err
	}
	return s.Finish()
}

// pcsPipeLatency is the PCS switch's pipeline depth in cycles.
const pcsPipeLatency = 5

// RunPCS runs the pipelined-circuit-switching router of §3.5 (Fig. 8) on
// the configuration's switch and streams: it provisions connections to the
// target load and measures frame delivery jitter over the established
// circuits. It reads Ports, VCs, LinkBandwidthBps and FlitBits for the
// switch; Load, MsgFlits (the flits per injected group: PCS sends no
// per-message header), FrameBytes, FrameBytesSD and FrameInterval for the
// streams; and Warmup, Measure and Seed. The wormhole-router fields do not
// apply to the PCS switch. RunPCS refuses a configuration whose workload PCS
// cannot generate: a topology other than SingleSwitch, best-effort traffic
// (RTShare below 1), and any real-time class other than normal-draw VBR.
func RunPCS(cfg Config) (PCSResult, error) {
	if err := cfg.Validate(); err != nil {
		return PCSResult{}, err
	}
	switch {
	case cfg.Topology != SingleSwitch:
		return PCSResult{}, fmt.Errorf("mediaworm: PCS runs on %s only, not %s", SingleSwitch, cfg.Topology)
	case cfg.RTShare != 1:
		return PCSResult{}, fmt.Errorf("mediaworm: PCS carries no best-effort traffic (RTShare = %v)", cfg.RTShare)
	case cfg.Class != VBR:
		return PCSResult{}, fmt.Errorf("mediaworm: PCS streams are VBR, not %s", cfg.Class)
	case cfg.VBRModel != "" && cfg.VBRModel != VBRNormal:
		return PCSResult{}, fmt.Errorf("mediaworm: PCS draws VBR frames from the %s model, not %s", VBRNormal, cfg.VBRModel)
	}
	eng := sim.NewEngine()
	sw, err := pcs.NewSwitch(eng, pcs.Config{
		Ports: cfg.Ports, VCs: cfg.VCs,
		Period:      sim.Time(cfg.CyclePeriod().Nanoseconds()),
		PipeLatency: pcsPipeLatency,
	})
	if err != nil {
		return PCSResult{}, err
	}
	interval := sim.Time(cfg.FrameInterval.Nanoseconds())
	nominalFlits := cfg.FrameBytes * 8 / float64(cfg.FlitBits)
	vtick := sim.Time(float64(interval) / nominalFlits)
	connsPerLink := cfg.LinkBandwidthBps / (cfg.FrameBytes * 8 / cfg.FrameInterval.Seconds())
	rnd := rng.NewStream(cfg.Seed, "pcs-provision")
	conns := sw.ProvisionLoad(cfg.Load, connsPerLink, vtick, rnd)

	warmup := sim.Time(cfg.Warmup.Nanoseconds())
	stop := warmup + sim.Time(cfg.Measure.Nanoseconds())
	intervals := stats.NewIntervalTracker(warmup)
	sw.OnFrame = func(id int, at sim.Time) { intervals.Observe(id, at) }
	src := rng.NewStream(cfg.Seed, "pcs-traffic")
	for i, c := range conns {
		v := &pcs.VBRSource{
			FrameBytes: cfg.FrameBytes, FrameBytesSD: cfg.FrameBytesSD,
			Interval: interval, GroupFlits: cfg.MsgFlits,
			FlitBits: cfg.FlitBits, Stop: stop,
		}
		v.SetRand(src.Split(uint64(i)))
		pcs.StartVBR(sw, c, v, sim.Time(src.Uint64n(uint64(interval))))
	}
	eng.Run(stop)
	eng.Drain()
	return PCSResult{
		MeanDeliveryIntervalMs:   intervals.MeanMs(),
		StdDevDeliveryIntervalMs: intervals.StdDevMs(),
		FrameIntervals:           intervals.Intervals().Count(),
		Attempts:                 sw.Attempts,
		Established:              sw.Established,
		Dropped:                  sw.Dropped,
	}, nil
}

// PCSAdmission reproduces Table 3: blind (random-VC) connection setup into
// an idle switch until the established connections carry targetLoad, with
// an attempt budget of capFactor × target connections.
func PCSAdmission(ports, vcs int, connsPerLink, targetLoad float64, seed uint64) PCSResult {
	rnd := rng.NewStream(seed, "pcs-admission")
	r := pcs.SimulateAdmission(ports, vcs, connsPerLink, targetLoad, pcs.RandomVC, 6, rnd)
	return PCSResult{Attempts: r.Attempts, Established: r.Established, Dropped: r.Dropped}
}
