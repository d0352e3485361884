package mediaworm

import (
	"fmt"
	"time"

	"mediaworm/internal/core"
	"mediaworm/internal/sched"
	"mediaworm/internal/topology"
)

// MaxArenaBytes caps the router state (core.ArenaBytes) Validate lets a
// fabric allocate: a 64×64 torus at the default depths needs ~500 MB.
const MaxArenaBytes = 1 << 30

// Policy selects the scheduling discipline at the router's bandwidth
// multiplexers.
type Policy string

const (
	// FIFO is the conventional wormhole router's arrival-order scheduler —
	// the paper's baseline.
	FIFO Policy = "fifo"
	// RoundRobin cycles over virtual channels.
	RoundRobin Policy = "round-robin"
	// VirtualClock is the rate-based scheduler that makes the router a
	// MediaWorm router.
	VirtualClock Policy = "virtual-clock"
	// WRR is weighted round-robin: each VC gets weight flits per rotation.
	WRR Policy = "wrr"
	// DRR is deficit round-robin (Shreedhar–Varghese): quantum·weight flits
	// of credit per rotation, unspent credit forfeited on an empty queue.
	DRR Policy = "drr"
	// WF2Q is WF²Q+ — worst-case fair weighted fair queueing with virtual
	// eligibility, the tightest packet approximation of fluid GPS.
	WF2Q Policy = "wf2q"
	// SPWRR is hierarchical strict-priority across tiers with weighted
	// round-robin inside each tier; real-time VCs occupy the top tier.
	SPWRR Policy = "sp+wrr"
)

// schedKind resolves a policy name to its scheduling discipline. Policy
// names are exactly the spellings sched.Kind.String returns; ParseKind's
// aliases such as "rr", "vc" and "FIFO" are not policy names.
func schedKind(p Policy) (sched.Kind, bool) {
	k, err := sched.ParseKind(string(p))
	return k, err == nil && k.String() == string(p)
}

// TrafficClass selects the real-time traffic type.
type TrafficClass string

const (
	// VBR is variable-bit-rate MPEG-2-like video (frame size drawn from a
	// normal distribution).
	VBR TrafficClass = "vbr"
	// CBR is constant-bit-rate video (fixed frame size).
	CBR TrafficClass = "cbr"
)

// Topology selects the network shape: one of the paper's fabrics below or a
// generator spec like "full4", "mesh4x4", "torus8x8", "clos8x4x8" —
// optionally suffixed with "c<n>" (endpoints per router) and "l<n>" (lanes
// per channel) — parsed by internal/topology.ParseSpec, which expands the
// paper's names into specs too, so every fabric comes from one generator.
// Meshes and tori route dimension-order; tori add dateline VC classes for
// deadlock freedom, which requires at least 2 VCs in every class partition.
type Topology string

const (
	// SingleSwitch is one n-port router with one endpoint per port
	// (the paper's §5.1–§5.6 configuration); spec "full1".
	SingleSwitch Topology = "single-switch"
	// FatMesh2x2 is the paper's 4-switch fat mesh: 8-port routers, four
	// endpoints each, two parallel physical links between adjacent
	// switches (§3.4, §5.7); spec "mesh2x2l2".
	FatMesh2x2 Topology = "fat-mesh-2x2"
	// Tetrahedral is Horst's fully connected 4-switch TNet cluster, which
	// §3.4 lists alongside fat topologies: 16 endpoints, one hop between
	// any pair of switches; spec "full4c4" on 8-port routers, the eighth
	// port unused.
	Tetrahedral Topology = "tetrahedral"
)

// Config describes one MediaWorm simulation run: router architecture,
// workload mix, and measurement window. DefaultConfig returns the paper's
// Table 1 parameters.
type Config struct {
	// Topology of the fabric.
	Topology Topology
	// Lanes overrides the topology's parallel physical links per channel,
	// the paper's fabrics included (0 keeps the spec's own lane count: 2
	// for FatMesh2x2, 1 otherwise).
	Lanes int
	// Ports per router (8 in the paper). Fully connected fabrics
	// (SingleSwitch, Tetrahedral, "full<n>") take their routers' port count
	// from it and fill or terminate the ports their plan leaves over; meshes,
	// tori and Clos size their routers from the spec and ignore it, except
	// that FatMesh2x2, the paper's fabric of Ports-port routers, requires it
	// to match its plan (8 at two lanes).
	Ports int
	// VCs per physical channel and the scheduling policy at the router's
	// multiplexers.
	VCs    int
	Policy Policy
	// FullCrossbar selects the (n·m × n·m) crossbar instead of the
	// multiplexed (n × n) one (§3.2, Fig. 6).
	FullCrossbar bool
	// BufferDepth is the per-VC input buffer in flits; StageDepth the
	// output staging buffer.
	BufferDepth, StageDepth int

	// LinkBandwidthBps is the physical channel bandwidth (400 Mb/s in most
	// experiments, 100 Mb/s in the PCS comparison). FlitBits is the flit
	// size (32).
	LinkBandwidthBps float64
	FlitBits         int

	// Load is the offered input-link load as a fraction of link bandwidth.
	// RTShare is x/(x+y), the real-time fraction of that load; virtual
	// channels are partitioned in the same proportion (§4.2.3).
	Load    float64
	RTShare float64
	// Class is the real-time traffic type.
	Class TrafficClass
	// MsgFlits is the wormhole message size in flits, header included (20).
	MsgFlits int
	// FrameBytes/FrameBytesSD/FrameInterval shape the video streams
	// (16666 B ± 3333 B every 33 ms ≈ 4 Mb/s MPEG-2).
	FrameBytes, FrameBytesSD float64
	FrameInterval            time.Duration

	// Warmup is discarded; Measure is the post-warmup measurement window.
	Warmup, Measure time.Duration
	// Seed drives all randomness; identical configs produce identical
	// results.
	Seed uint64

	// Ablation knobs (see DESIGN.md §3). Zero values select the paper
	// model: two allocator iterations, shared endpoint VCs, source NIs
	// following the router policy.

	// AllocatorIterations is the switch-allocation depth (0 → 2).
	AllocatorIterations int
	// ExclusiveEndpointVCs reverts endpoint output VCs to per-message
	// exclusive ownership.
	ExclusiveEndpointVCs bool
	// SourcePolicy overrides the injection-link scheduler ("" follows
	// Policy).
	SourcePolicy Policy
	// Faults arms the fault-injection and resilience layer. The zero value
	// disables it — a perfectly reliable fabric, the paper's assumption.
	Faults FaultsConfig
	// VBRModel selects the VBR frame-size process: VBRNormal (the paper's
	// independent normal draws; "" means this) or VBRGoP (MPEG
	// Group-of-Pictures I/P/B structure with per-stream random phase).
	VBRModel VBRModel
	// PlayoutBufferFrames sizes the modeled video client's jitter buffer
	// for the deadline-miss metric (Result.Playout). 0 disables it.
	PlayoutBufferFrames int
	// Sched parameterizes the weighted disciplines (WRR/DRR/WF²Q+/SP+WRR).
	// The zero value gives every VC weight 1. Ignored by FIFO, RoundRobin
	// and VirtualClock.
	Sched SchedConfig
	// Policing arms the srTCM meter + WRED early-dropper chain at every
	// source NI's injection point. The zero value disables it — real-time
	// messages inject unconditionally, the paper's model.
	Policing PolicingConfig
	// Trace arms the observability subsystem (internal/obs). The zero value
	// disables it: the run pays one nil-check per instrumentation site and
	// allocates nothing.
	Trace TraceConfig
}

// SchedConfig carries the weighted disciplines' parameters. Weights apply
// per VC across the real-time/best-effort partition (real-time VCs are
// [0, RTVCs)); under SP+WRR the partition doubles as the priority tiers.
type SchedConfig struct {
	// RTWeight and BEWeight are the per-VC weights of the real-time and
	// best-effort partitions (0 → 1 each).
	RTWeight, BEWeight int
	// Quantum is DRR's base credit in flits per weight unit (0 → 1).
	Quantum int
}

func (s *SchedConfig) validate() error {
	if s.RTWeight < 0 || s.BEWeight < 0 || s.Quantum < 0 {
		return fmt.Errorf("mediaworm: negative scheduler parameters %+v", *s)
	}
	return nil
}

// PolicingConfig configures the per-NI srTCM token-bucket meter and the
// color-aware WRED dropper in front of the injection queues. Only real-time
// messages are metered; best-effort traffic is regulated by backpressure
// alone. A dropped message keeps its frame from ever completing reassembly,
// which Result.Policing reports as the delivered-frame ratio.
type PolicingConfig struct {
	// Enabled arms the meter + dropper chain.
	Enabled bool
	// CIRFactor scales each source's committed rate relative to its nominal
	// real-time injection rate Load·RTShare·LinkBandwidth (0 → 1.2, leaving
	// headroom for VBR frame-size variance before traffic colors yellow).
	CIRFactor float64
	// CBSFlits and EBSFlits are the committed and excess burst depths in
	// flits (0 → one nominal frame's wire flits and half a frame
	// respectively — the workload's natural burst unit).
	CBSFlits, EBSFlits int
	// DropExp is the WRED backlog-EWMA weight exponent: avg moves by
	// (backlog − avg)/2^DropExp per metered arrival (0 → 4).
	DropExp int
}

func (p *PolicingConfig) validate() error {
	switch {
	case p.CIRFactor < 0:
		return fmt.Errorf("mediaworm: Policing.CIRFactor = %v", p.CIRFactor)
	case p.CBSFlits < 0 || p.EBSFlits < 0:
		return fmt.Errorf("mediaworm: negative policing burst sizes %d/%d", p.CBSFlits, p.EBSFlits)
	case p.DropExp < 0:
		return fmt.Errorf("mediaworm: Policing.DropExp = %d", p.DropExp)
	}
	return nil
}

// TraceConfig configures flit-lifecycle tracing and metrics collection.
type TraceConfig struct {
	// Enabled turns tracing on. Result.Trace then carries the capture.
	Enabled bool
	// EventCap bounds the trace ring buffer in events (0 → 65536). When a
	// run emits more, the oldest events are overwritten and counted as
	// dropped rather than growing memory without bound.
	EventCap int
	// MetricsInterval is the simulated time between metrics snapshots.
	// 0 takes only the final end-of-run snapshot.
	MetricsInterval time.Duration
}

func (t *TraceConfig) validate() error {
	switch {
	case t.EventCap < 0:
		return fmt.Errorf("mediaworm: Trace.EventCap = %d", t.EventCap)
	case t.MetricsInterval < 0:
		return fmt.Errorf("mediaworm: Trace.MetricsInterval = %v", t.MetricsInterval)
	}
	return nil
}

// FaultsConfig describes the faults injected into a run and the resilience
// mechanisms armed against them. All fault schedules derive from Config.Seed,
// so a faulted run is exactly as reproducible as a healthy one.
type FaultsConfig struct {
	// LinkMTBF and LinkMTTR drive stochastic up/down churn on every
	// switch-to-switch link: exponential up-times with mean LinkMTBF,
	// exponential outages with mean LinkMTTR. Both must be positive to
	// enable churn. Single-switch topologies have no transit links.
	LinkMTBF, LinkMTTR time.Duration
	// FlitCorruptionProb corrupts each transmitted flit independently with
	// this probability; a corrupted flit kills its whole message (wormhole
	// has no flit-level recovery).
	FlitCorruptionProb float64
	// Retransmit enables NI-level end-to-end message retransmission with
	// capped exponential backoff.
	Retransmit bool
	// RetransmitTimeout is the first-attempt delivery deadline
	// (0 → two frame intervals).
	RetransmitTimeout time.Duration
	// MaxRetransmits bounds total delivery attempts per message (0 → 4).
	MaxRetransmits int
	// WatchdogCycles arms the progress watchdog: after this many cycles
	// with flits in flight but no flit motion, the run reports a deadlock
	// with its blocked-VC wait-for cycle instead of hanging. 0 picks a
	// default (50000 cycles) whenever any fault is enabled; negative
	// disables the watchdog.
	WatchdogCycles int
	// WatchdogRecover additionally breaks each detected deadlock by killing
	// the youngest message in the cycle. Pair with Retransmit so the victim
	// is resent rather than lost.
	WatchdogRecover bool
}

// enabled reports whether any fault or resilience mechanism is armed.
func (f *FaultsConfig) enabled() bool {
	return f.LinkMTBF > 0 || f.FlitCorruptionProb > 0 || f.Retransmit ||
		f.WatchdogCycles != 0
}

func (f *FaultsConfig) validate() error {
	switch {
	case (f.LinkMTBF > 0) != (f.LinkMTTR > 0):
		return fmt.Errorf("mediaworm: LinkMTBF and LinkMTTR must be set together")
	case f.LinkMTBF < 0 || f.LinkMTTR < 0:
		return fmt.Errorf("mediaworm: negative link churn times")
	case f.FlitCorruptionProb < 0 || f.FlitCorruptionProb > 1:
		return fmt.Errorf("mediaworm: FlitCorruptionProb = %v", f.FlitCorruptionProb)
	case f.RetransmitTimeout < 0:
		return fmt.Errorf("mediaworm: RetransmitTimeout = %v", f.RetransmitTimeout)
	case f.MaxRetransmits < 0:
		return fmt.Errorf("mediaworm: MaxRetransmits = %d", f.MaxRetransmits)
	}
	return nil
}

// VBRModel names a VBR frame-size process.
type VBRModel string

const (
	// VBRNormal draws each frame size independently from
	// Normal(FrameBytes, FrameBytesSD) — §4.2.1 of the paper.
	VBRNormal VBRModel = "normal"
	// VBRGoP uses an MPEG Group-of-Pictures pattern (IBBPBBPBBPBB, 5:3:1
	// I:P:B size ratios) scaled to FrameBytes, a structured-burstiness
	// extension of the paper's workload.
	VBRGoP VBRModel = "gop"
)

// DefaultConfig returns the paper's Table 1 single-switch configuration at
// the given load and mix: 8×8 switch, 32-bit flits, 20-flit messages,
// 400 Mb/s links, 16 VCs, Virtual Clock scheduling, VBR traffic.
func DefaultConfig() Config {
	return Config{
		Topology:            SingleSwitch,
		Ports:               8,
		VCs:                 16,
		Policy:              VirtualClock,
		BufferDepth:         20,
		StageDepth:          4,
		LinkBandwidthBps:    400e6,
		FlitBits:            32,
		Load:                0.8,
		RTShare:             1.0,
		Class:               VBR,
		MsgFlits:            20,
		FrameBytes:          16666,
		FrameBytesSD:        3333,
		FrameInterval:       33 * time.Millisecond,
		Warmup:              66 * time.Millisecond,
		Measure:             330 * time.Millisecond,
		Seed:                1,
		PlayoutBufferFrames: 2,
	}
}

// Scale shrinks the video time base by factor (frames and intervals both
// divided by f), preserving per-stream bandwidth and, to first order, the
// shape of every result while cutting simulated cycles by the same factor.
// Reported intervals scale with 1/f; the experiment harness normalizes them
// back to the paper's 33 ms time base. Warmup and Measure shrink too.
func (c Config) Scale(f float64) Config {
	if f <= 0 || f > 1 {
		return c
	}
	c.FrameBytes *= f
	c.FrameBytesSD *= f
	c.FrameInterval = time.Duration(float64(c.FrameInterval) * f)
	c.Warmup = time.Duration(float64(c.Warmup) * f)
	c.Measure = time.Duration(float64(c.Measure) * f)
	return c
}

// TopologySpec resolves the Topology name into the generator spec the run
// builds: the paper's names expand to their specs, the Lanes override
// applies to every spec, and a fully connected fabric's endpoint count is
// resolved against Ports.
func (c *Config) TopologySpec() (topology.Spec, error) {
	spec, err := topology.ParseSpec(string(c.Topology))
	if err != nil {
		return spec, fmt.Errorf("mediaworm: %w", err)
	}
	if c.Lanes > 0 {
		spec.Lanes = c.Lanes
	}
	spec = spec.ForRadix(c.Ports)
	if err := spec.Validate(); err != nil {
		return spec, fmt.Errorf("mediaworm: %w", err)
	}
	return spec, nil
}

// Validate reports the first problem with the configuration.
func (c *Config) Validate() error {
	spec, err := c.TopologySpec()
	if err != nil {
		return err
	}
	layout, err := spec.Layout(c.Ports)
	if err != nil {
		return fmt.Errorf("mediaworm: %w", err)
	}
	_, policyOK := schedKind(c.Policy)
	_, sourceOK := schedKind(c.SourcePolicy)
	switch {
	case c.Lanes < 0:
		return fmt.Errorf("mediaworm: Lanes = %d", c.Lanes)
	case c.Ports < 2:
		return fmt.Errorf("mediaworm: Ports = %d", c.Ports)
	case c.Topology == FatMesh2x2 && c.Ports != spec.Radix():
		return fmt.Errorf("mediaworm: %s at %d lanes needs Ports = %d", c.Topology, spec.Lanes, spec.Radix())
	case c.VCs < 1:
		return fmt.Errorf("mediaworm: VCs = %d", c.VCs)
	case !policyOK:
		return fmt.Errorf("mediaworm: unknown policy %q", c.Policy)
	case c.BufferDepth < 1 || c.StageDepth < 1:
		return fmt.Errorf("mediaworm: buffer depths %d/%d", c.BufferDepth, c.StageDepth)
	case c.LinkBandwidthBps <= 0:
		return fmt.Errorf("mediaworm: link bandwidth %v", c.LinkBandwidthBps)
	case c.FlitBits < 8:
		return fmt.Errorf("mediaworm: FlitBits = %d", c.FlitBits)
	case c.CyclePeriod() < time.Nanosecond:
		return fmt.Errorf("mediaworm: cycle period %v (%d-bit flits at %v b/s) is below the 1ns time step",
			c.CyclePeriod(), c.FlitBits, c.LinkBandwidthBps)
	case c.Load <= 0 || c.Load > 1.5:
		return fmt.Errorf("mediaworm: Load = %v", c.Load)
	case c.RTShare < 0 || c.RTShare > 1:
		return fmt.Errorf("mediaworm: RTShare = %v", c.RTShare)
	case c.Class != VBR && c.Class != CBR:
		return fmt.Errorf("mediaworm: unknown class %q", c.Class)
	case c.MsgFlits < 1:
		return fmt.Errorf("mediaworm: MsgFlits = %d", c.MsgFlits)
	case c.FrameBytes <= 0 || c.FrameBytesSD < 0:
		return fmt.Errorf("mediaworm: frame size %v ± %v", c.FrameBytes, c.FrameBytesSD)
	case c.FrameInterval <= 0:
		return fmt.Errorf("mediaworm: FrameInterval = %v", c.FrameInterval)
	case c.Warmup < 0 || c.Measure <= 0:
		return fmt.Errorf("mediaworm: window %v/%v", c.Warmup, c.Measure)
	case c.AllocatorIterations < 0 || c.AllocatorIterations > 2:
		return fmt.Errorf("mediaworm: AllocatorIterations = %d", c.AllocatorIterations)
	case c.SourcePolicy != "" && !sourceOK:
		return fmt.Errorf("mediaworm: unknown source policy %q", c.SourcePolicy)
	case c.VBRModel != "" && c.VBRModel != VBRNormal && c.VBRModel != VBRGoP:
		return fmt.Errorf("mediaworm: unknown VBR model %q", c.VBRModel)
	case c.PlayoutBufferFrames < 0:
		return fmt.Errorf("mediaworm: PlayoutBufferFrames = %d", c.PlayoutBufferFrames)
	}
	shape := core.Config{Ports: c.Ports, VCs: c.VCs, BufferDepth: c.BufferDepth, StageDepth: c.StageDepth}
	if b := layout.ArenaBytes(shape); b > MaxArenaBytes {
		return fmt.Errorf("mediaworm: %s needs an estimated %.0f MB of router state, above the %d MB limit",
			c.Topology, b/(1<<20), MaxArenaBytes>>20)
	}
	if err := c.Sched.validate(); err != nil {
		return err
	}
	if err := c.Policing.validate(); err != nil {
		return err
	}
	if err := c.Trace.validate(); err != nil {
		return err
	}
	return c.Faults.validate()
}

// CyclePeriod returns the flit cycle time implied by the link bandwidth.
func (c *Config) CyclePeriod() time.Duration {
	return time.Duration(float64(c.FlitBits) / c.LinkBandwidthBps * 1e9)
}
