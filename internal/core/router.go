// Package core implements the MediaWorm router — the paper's primary
// contribution: a five-stage pipelined wormhole router (the PROUD model of
// Fig. 1) whose bandwidth multiplexers run a configurable scheduling
// discipline, in particular the Virtual Clock rate-based scheduler that
// distinguishes MediaWorm from a conventional FIFO-scheduled router.
//
// The router is cycle-accurate at flit granularity. One cycle is the time to
// move one flit across a physical channel. Per cycle the router executes, in
// order:
//
//  1. routing decision + crossbar arbitration for header flits (pipeline
//     stages 2–3; middle/tail flits bypass),
//  2. switch traversal — with a multiplexed crossbar, each crossbar *input
//     multiplexer* picks one flit among its port's virtual channels using the
//     configured policy (contention point A of the paper's Fig. 2); with a
//     full crossbar every active VC traverses independently,
//  3. link transmission — each output physical channel transmits one flit,
//     chosen among the output VC staging buffers by the configured policy
//     (contention point C, the Virtual Clock site for a full crossbar).
//
// Pipeline latency matches the paper's model: a header spends five cycles
// from link arrival to the next link (stages 1–5); middle and tail flits
// spend three (they bypass stages 2–3).
//
// Hot state lives in a struct-of-arrays layout: per-VC input and output
// tables are flat slices indexed port·VCs+vc and flit rings carve one
// shared buffer slab, so a fabric of hundreds of routers is a handful of
// large allocations, not a pointer forest (DESIGN.md §18). Per-port
// occupancy bitmasks record which VCs hold anything, and port summaries,
// one bit per port, record which ports do, so a cycle costs in proportion
// to the occupied ports and VCs, and a router with none returns from Step
// at once. Phase masks narrow each stage to the VCs it can act on, and the
// input-full (credit), fresh-head and claimed-output target masks let each
// multiplexer compute with word operations the VCs that can move this
// cycle and visit only those. A header waiting for an output VC is
// recorded once, in its input VC: its phase bit, target port and request
// sequence number give each port's FCFS order. Waiting headers retry
// allocation only after something that could change the answer, such as
// the release of one of their port's output VCs.
package core

import (
	"fmt"
	"math/bits"

	"mediaworm/internal/flit"
	"mediaworm/internal/obs"
	"mediaworm/internal/sched"
	"mediaworm/internal/sim"
)

// Pipeline latency of the five-stage router in cycles, exported for the
// analytic model (internal/calculus): a header flit spends
// HeaderPipelineCycles from link arrival to the next link (stages 1–5),
// middle and tail flits BodyPipelineCycles (they bypass stages 2–3). These
// are the uncontended per-hop constants of the package doc above; queueing
// on top of them is what the service-curve machinery bounds.
const (
	HeaderPipelineCycles = 5
	BodyPipelineCycles   = 3
)

// MaxPorts is the most ports a router has: a set of a router's ports is
// one word. Config validates Ports against it, and topology.Build refuses
// a fabric above it before allocating.
const MaxPorts = 64

// Consumer receives flits transmitted out of a router output port. The
// network layer implements it for endpoint sinks and for the input ports of
// downstream routers.
type Consumer interface {
	// Full returns the consumer's full mask: bit v is set while VC v cannot
	// accept a flit, so a clear bit is a credit. Connect caches the pointer
	// and stage 5 reads the word every cycle, so the pointer must stay
	// valid, and the word current, for the consumer's life.
	Full() *uint64
	// Accept delivers a flit on vc. f.Enq is the arrival instant (one cycle
	// after transmission). Accept must not be called while vc's full bit is
	// set.
	Accept(vc int, f flit.Flit)
}

// RoutingFunc returns the candidate output ports for msg at the given
// router, appended into buf (passed with length zero, capacity ≥ the
// router's port count) so steady-state routing allocates nothing. Multiple
// candidates model parallel physical links — the fat-mesh's duplicated
// channels, a generated topology's multi-lane links, a Clos network's spine
// uplinks; the router picks the least-loaded (§3.4). An empty result means
// the destination is currently unreachable (a fault somewhere partitioned it
// away): the router kills the message so its flits unravel instead of
// blocking the input VC until the route recovers.
type RoutingFunc func(routerID int, msg *flit.Message, buf []int) []int

// VCSelFunc narrows the output-VC class partition [lo, hi) for msg on
// output port out — the hook dateline routing uses to split a torus ring's
// VCs into pre- and post-dateline halves so dimension-order routing stays
// deadlock-free across wraparound links. It must return a non-empty
// subrange of [lo, hi). Nil means the full class partition.
type VCSelFunc func(routerID, outPort int, msg *flit.Message, lo, hi int) (int, int)

// Config parameterizes one router.
type Config struct {
	// ID identifies the router within its fabric.
	ID int
	// Ports is the number of physical channels (n). VCs is the number of
	// virtual channels per physical channel (m).
	Ports, VCs int
	// RTVCs is the size of the real-time VC partition: VCs [0, RTVCs) carry
	// VBR/CBR, VCs [RTVCs, VCs) carry best-effort (§4.2.3).
	RTVCs int
	// BufferDepth is the per-input-VC flit buffer capacity.
	BufferDepth int
	// StageDepth is the per-output-VC staging buffer capacity (stage 5).
	StageDepth int
	// FullCrossbar selects the (n·m × n·m) crossbar; false selects the
	// multiplexed (n × n) crossbar (§3.2).
	FullCrossbar bool
	// Policy is the scheduling discipline at the router's bandwidth
	// multiplexers (FIFO for the conventional router, VirtualClock for
	// MediaWorm, or any member of the scheduler zoo).
	Policy sched.Kind
	// Sched parameterizes the weighted disciplines (per-VC weights, tiers,
	// DRR quantum); the zero value means every VC weight 1, tier 0. VCs is
	// filled from the router's VC count when zero.
	Sched sched.Params
	// Period is the cycle time in nanoseconds (flit size / link bandwidth).
	Period sim.Time
	// Route computes output ports for messages not yet at their final hop.
	Route RoutingFunc
	// VCSel, if set, narrows the output VC partition per (port, message) —
	// see VCSelFunc. Topologies without wraparound channels leave it nil.
	VCSel VCSelFunc
	// Arena is the shared struct-of-arrays backing store this router
	// carves its state from (construction-time only, not run state); nil
	// carves a one-router arena.
	Arena *Arena

	// AllocatorIterations selects the switch-allocation depth: 1 is a
	// single greedy pass; 2 (the default, chosen when zero) adds one-step
	// augmentation, modeling iterative separable allocators. See DESIGN.md.
	AllocatorIterations int
	// ExclusiveEndpointVCs reverts endpoint-port output VCs to exclusive
	// message-granularity ownership (ablation; the paper multiplexes
	// connections onto shared VCs, the default here).
	ExclusiveEndpointVCs bool

	// Tracer is the observability sink (nil = tracing disabled; the
	// instrumentation then costs one branch per site). Tracing only
	// observes: no stage visits or picks differently. A fabric built from
	// the router traces into the same tracer (network.Fabric.AddRouter).
	Tracer *obs.Tracer
}

func (c *Config) validate() error {
	switch {
	case c.Ports <= 0 || c.Ports > MaxPorts:
		return fmt.Errorf("core: Ports = %d", c.Ports)
	case c.VCs <= 0 || c.VCs > sched.MaxVCs:
		return fmt.Errorf("core: VCs = %d", c.VCs)
	case c.RTVCs < 0 || c.RTVCs > c.VCs:
		return fmt.Errorf("core: RTVCs = %d with %d VCs", c.RTVCs, c.VCs)
	case c.BufferDepth <= 0:
		return fmt.Errorf("core: BufferDepth = %d", c.BufferDepth)
	case c.StageDepth <= 0:
		return fmt.Errorf("core: StageDepth = %d", c.StageDepth)
	case c.Period <= 0:
		return fmt.Errorf("core: Period = %d", c.Period)
	case c.Route == nil:
		return fmt.Errorf("core: Route is nil")
	case c.AllocatorIterations < 0 || c.AllocatorIterations > 2:
		return fmt.Errorf("core: AllocatorIterations = %d", c.AllocatorIterations)
	}
	return nil
}

// vcPhase is the lifecycle of an input VC's head message.
type vcPhase uint8

const (
	vcIdle      vcPhase = iota // no message being switched
	vcRequested                // header submitted a crossbar request
	vcActive                   // output granted; flits may traverse
)

// inVC is one input virtual-channel buffer and its switching state. Input
// VCs live in the router's flat inv table (index port·VCs+vc), carved from
// the fabric arena.
type inVC struct {
	q ring

	// Receive-side state: the message currently arriving, and its Virtual
	// Clock at this contention point. Wormhole guarantees messages arrive
	// contiguously per VC, so one clock suffices.
	recvMsg  *flit.Message
	recvClk  sched.VClock
	received int

	// phase is the head message's lifecycle. port/vcIdx locate this VC for
	// trace events; blkCause is the cause of the currently open blocking
	// span (CauseNone = no open span). The four share one word ahead of
	// the head-side state, so the struct packs into 120 bytes and every
	// field stage 4 reads lies within its first 104.
	phase       vcPhase
	port, vcIdx int16     //mw:snapcover — static trace coordinates, assigned at construction
	blkCause    obs.Cause //mw:snapcover — open blocking spans are a trace concern; tracing refuses checkpoints

	// Head-side state: the message whose flits are being switched.
	headMsg   *flit.Message
	outPort   int
	outVC     int
	grantedAt sim.Time
	// reqSeq and reqAt are the sequence number and instant of the VC's
	// latest crossbar request. While the phase is vcRequested the header
	// waits for an output VC of outPort: reqSeq orders it FCFS among that
	// port's waiting headers, and its grant wait runs from reqAt.
	reqSeq uint64
	reqAt  sim.Time
}

// outVC is one output virtual channel: its stage-5 staging buffer and
// ownership state. Output VCs live in the router's flat outv table.
type outVC struct {
	stage ring
	// busy is the message holding this output VC from grant until its tail
	// is transmitted on the link.
	busy *flit.Message
	// clk is the Virtual Clock at contention point C (output VC mux).
	clk sched.VClock
}

// outPort is one output physical channel's per-port state; its VCs live in
// the router's flat outv table.
type outPort struct {
	consumer Consumer //mw:snapcover — downstream wiring, rebuilt by the topology constructor
	// endpoint marks ports that attach to an endpoint (NI/sink) rather than
	// another router; at an endpoint port the message's DstVC is used.
	endpoint bool          //mw:snapcover — static wiring property, set when the port is connected
	arb      sched.Arbiter // link VC multiplexer (point C)
	// full is the consumer's full mask (Consumer.Full), cached by Connect so
	// stage 5 reads a credit word per port instead of calling per VC.
	full *uint64 //mw:snapcover — downstream wiring; the consumer keeps the word current
}

// Stats counts router activity for tests and instrumentation. Stats()
// sums the fields marked derived from the counter blocks. FlitsSwitched
// and FlitsTransmitted stay stored for Progress (DESIGN.md §3).
type Stats struct {
	FlitsSwitched    uint64 // flits through the crossbar
	FlitsTransmitted uint64 // flits onto output links
	MessagesRouted   uint64 //mw:snapcover — derived: headers granted, the VC blocks' Grants
	RequestsQueued   uint64

	// FlitsDropped counts flits reaped from this router's buffers: flits of
	// dead (killed) messages, flits corrupted on transmission, and flits of
	// messages with no live route.
	FlitsDropped uint64 //mw:snapcover — derived: the port blocks' Dropped
	// MessagesKilled counts messages this router killed itself (corruption
	// at one of its links, or no live route). Messages killed elsewhere and
	// merely reaped here are not counted.
	MessagesKilled uint64

	// Per-cycle input-VC blocking reasons, sampled over buffered-but-idle
	// head flits during switch traversal (capacity diagnostics).
	BlockedNotGranted uint64 // header awaiting VC allocation
	BlockedJustMoved  uint64 // stage-1/3 pipeline synchronization
	BlockedStageFull  uint64 // output staging backpressure
	BlockedClaimed    uint64 // crossbar output claimed this cycle

	// GrantWait accumulates header wait (request→grant) in nanoseconds;
	// GrantWaitCount the number of grants.
	GrantWait      uint64 //mw:snapcover — derived: the VC blocks' GrantWait
	GrantWaitCount uint64 //mw:snapcover — derived: equals MessagesRouted
}

// PortStats counts fault-related activity on one port (the input and output
// side of a physical channel share an index).
type PortStats struct {
	// FlitsDropped counts flits reaped at this port: dead-message flits
	// removed from the input VC buffers or output staging buffers, flits
	// corrupted on the output link, and flits of unroutable messages. It is
	// the port block's Dropped.
	FlitsDropped uint64
	// StallCycles counts cycles where the output side held staged flits but
	// transmitted nothing (downstream credit exhausted, link down, or an
	// injected port stall).
	StallCycles uint64
}

// Router is one MediaWorm switch. Its per-port/per-VC hot state is a
// struct-of-arrays: inv and outv are flat tables indexed port·VCs+vc,
// inArbs holds the per-input-port multiplexers and outs the per-output-port
// state — the VC tables carved from the fabric-wide Arena when one is
// supplied.
type Router struct {
	rtVCs int      // current real-time VC partition size (adjustable)
	seq   uint64   // arbitration sequence counter
	now   sim.Time // current cycle instant, which the router's trace events carry
	// Flat per-VC tables (index port·VCs+vc) and per-port state.
	inv    []inVC
	outv   []outVC
	inArbs []sched.Arbiter
	outs   []outPort
	stats  Stats
	// Fault state (see DESIGN.md "Fault model"): per-output-port link
	// health and injected stalls, per-port stall cycles (PortStats), and
	// the optional per-flit corruption hook.
	linkUp      []bool
	stalled     []bool
	stallCycles []uint64
	// The counter blocks, one per VC (index port·VCs+vc) and one per port,
	// counted into at each event's one site, traced or not (DESIGN.md §11).
	vcc []obs.VCCounters
	pc  []obs.PortCounters

	// Everything below is construction-time configuration, derived state a
	// restore rebuilds, or per-cycle scratch — outside the snapshot
	// contract.
	//
	// inMask and outMask are the per-port occupancy bitmasks, one word per
	// port (VC v of port p is bit v of word p): an input VC's bit is set
	// while it buffers flits or its phase is not idle, an output VC's while
	// it stages flits. Stages 2, 4 and 5 visit only set bits, in ascending
	// VC order; markIn and markOut keep them in step.
	inMask  []uint64 //mw:snapcover — derived from the VC tables; RestoreState rebuilds it
	outMask []uint64 //mw:snapcover — derived from the VC tables; RestoreState rebuilds it
	// fullMask, laid out like outMask, marks the output VCs whose staging
	// buffer is full, so vcEligible reads a mask word instead of the ring;
	// markOut keeps it in step.
	fullMask []uint64 //mw:snapcover — derived from the VC tables; RestoreState rebuilds it
	// inPorts and outPorts summarise inMask and outMask one bit per port: a
	// port's bit is set while any of its input (output) VCs has its
	// occupancy bit. Stages 2, 4 and 5 walk only the ports set here and
	// idle reads two words; markIn and markOut keep them in step.
	inPorts, outPorts uint64 //mw:snapcover — derived from the VC tables; RestoreState rebuilds them
	// retry flags the output ports whose waiting headers the next stage-3
	// pass serves. allocOutVC reads only the port's busy VCs, the VC
	// partition and the message, so a header it refused stays refused
	// until a new header waits, an output VC is released or the partition
	// moves; each of those flags the port, and the pass clears the flags.
	retry uint64 //mw:snapcover — derived; RestoreState flags every port
	// actMask and reqMask, laid out like inMask, mark the input VCs whose
	// phase is vcActive and vcRequested. Stage 2 visits the idle VCs
	// holding a header, inMask &^ (actMask|reqMask), stage 3 reads each
	// port's waiting headers from reqMask (see waiting) and stage 4 visits
	// actMask; markIn keeps all three in step.
	actMask []uint64 //mw:snapcover — derived from the VC phases; RestoreState rebuilds it
	reqMask []uint64 //mw:snapcover — derived from the VC phases; RestoreState rebuilds it
	// inFull, laid out like inMask, marks the input VCs whose ring has no
	// space: the credit an upstream router or NI reads through InputFull.
	// Deliver sets a bit when its push fills the ring, forward clears it
	// after a pop, and markIn recomputes it.
	inFull []uint64 //mw:snapcover — derived from the VC tables; RestoreState rebuilds it
	// tgt holds the claimed-output target masks, one word per (input port,
	// output port) pair at p·Ports+o: an input VC's bit is set while its
	// phase is vcActive with outPort o. markIn keeps them in step, and
	// stage 4's first pass ORs the words of the outputs claimed so far into
	// the port's claim-blocked set.
	tgt []uint64 //mw:snapcover — derived from the VC phases; RestoreState rebuilds it
	// fresh, laid out like outMask, marks the output VCs whose head flit was
	// staged this cycle and so cannot leave before the next: forward sets a
	// bit when it pushes into an empty staging ring, reapOutPort when a reap
	// exposes such a head, and stage 5 clears each port's bits as it visits
	// the port, so none outlives a Step.
	fresh []uint64 //mw:snapcover — per-cycle scratch, zero between cycles
	// killed points at the kill flag, raised by the first message kill: the
	// fabric's flag once AddRouter shares it, else ownKilled. Until it is
	// raised no message is dead, so the reaping passes are skipped.
	killed    *bool                            //mw:snapcover — shared wiring; the fabric derives the flag from the restored message table
	ownKilled bool                             //mw:snapcover — a standalone router's flag; see killed
	cfg       Config                           //mw:snapcover — run-immutable config; RestoreSim rebuilds the router from the checkpoint's embedded config and re-validates against it
	nvc       int                              //mw:snapcover — copy of cfg.VCs, the flat-index stride
	fullXb    bool                             //mw:snapcover — derived from cfg at construction
	corrupt   func(port int, f flit.Flit) bool //mw:snapcover — fault-injection hook; fault runs refuse checkpoints
	routeBuf  []int                            //mw:snapcover — per-cycle scratch for health-filtered routing candidates
	routeCand []int                            //mw:snapcover — per-cycle scratch handed to the routing function
	// The per-cycle scratch buffers below are sized in New, so the hot path
	// does not allocate; the multiplexed crossbar's claim maps and the full
	// crossbar's feeder tables are sized only for the kind in use. The
	// port sets are reset each cycle; the tables indexed by port are valid
	// only where their set has the port, so they are never reset.
	waitBuf    []int32           //mw:snapcover — scratch for waiting (flat input-VC indexes, at most Ports·VCs)
	cands      []sched.Candidate //mw:snapcover — per-cycle scratch
	claimed    uint64            //mw:snapcover — per-cycle scratch (crossbar outputs claimed this cycle)
	picked     uint64            //mw:snapcover — per-cycle scratch (input ports matched this cycle)
	blocked    uint64            //mw:snapcover — per-cycle scratch (input ports with a VC in claimBlk)
	claimedBy  []int8            //mw:snapcover — per-cycle scratch (the input port claiming each output in claimed)
	pickedVC   []int8            //mw:snapcover — per-cycle scratch (the VC each input port in picked forwards)
	claimBlk   []uint64          //mw:snapcover — per-cycle scratch (input VCs the first allocator pass found blocked by a claimed output, laid out like inMask, valid for the ports in blocked)
	startAt    sim.Time          //mw:snapcover — cache: the last cycle rotation computed its start for
	start      int               //mw:snapcover — cache: the allocator's first port at startAt, (startAt/Period) mod Ports
	feeder     []int32           //mw:snapcover — per-cycle scratch (flat input-VC index per crossbar output, valid where fed has its bit)
	feederCand []sched.Candidate //mw:snapcover — per-cycle scratch
	fed        []uint64          //mw:snapcover — per-cycle scratch (output VCs with a feeder, laid out like outMask; zero between cycles)
	fedPorts   uint64            //mw:snapcover — per-cycle scratch (output ports with a bit in fed)
	trc        *obs.Tracer       //mw:snapcover — observability sink (nil = disabled); tracing refuses checkpoints
}

// New builds a router. Output ports must be connected with Connect before
// the first Step.
func New(cfg Config) (*Router, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.AllocatorIterations == 0 {
		cfg.AllocatorIterations = 2
	}
	if cfg.Sched.VCs == 0 {
		cfg.Sched.VCs = cfg.VCs
	}
	if cfg.Arena == nil {
		cfg.Arena = NewArena(1, cfg)
	}
	a := cfg.Arena
	r := &Router{cfg: cfg, rtVCs: cfg.RTVCs, nvc: cfg.VCs, fullXb: cfg.FullCrossbar}
	pv, _, words, _ := arenaShape(cfg)
	r.waitBuf = make([]int32, 0, pv)
	r.cands = make([]sched.Candidate, 0, cfg.VCs)
	r.inv = carve(&a.inv, pv)
	r.outv = carve(&a.outv, pv)
	occ, w := carve(&a.words, words), cfg.Ports
	r.inMask, r.outMask, r.fullMask = occ[:w:w], occ[w:2*w:2*w], occ[2*w:3*w:3*w]
	r.actMask, r.reqMask = occ[3*w:4*w:4*w], occ[4*w:5*w:5*w]
	r.inFull, r.fresh, r.stallCycles = occ[5*w:6*w:6*w], occ[6*w:7*w:7*w], occ[7*w:8*w:8*w]
	scratch := occ[8*w : 9*w : 9*w]
	r.tgt = occ[9*w:]
	if r.fullXb {
		r.feeder = make([]int32, pv)
		r.feederCand = make([]sched.Candidate, pv)
		r.fed = scratch
	} else {
		r.claimedBy = make([]int8, cfg.Ports)
		r.pickedVC = make([]int8, cfg.Ports)
		r.claimBlk = scratch
	}
	r.killed = &r.ownKilled
	r.inArbs = make([]sched.Arbiter, cfg.Ports)
	r.outs = make([]outPort, cfg.Ports)
	health := carve(&a.health, 2*cfg.Ports)
	r.linkUp, r.stalled = health[:cfg.Ports:cfg.Ports], health[cfg.Ports:]
	r.vcc = carve(&a.vcc, pv)
	r.pc = carve(&a.pc, cfg.Ports)
	r.routeBuf = make([]int, 0, cfg.Ports)
	r.routeCand = make([]int, 0, cfg.Ports)
	for p := range r.linkUp {
		r.linkUp[p] = true
	}
	for p := 0; p < cfg.Ports; p++ {
		for v := 0; v < cfg.VCs; v++ {
			in := &r.inv[p*r.nvc+v]
			in.q = ringOver(carve(&a.flits, cfg.BufferDepth))
			in.port = int16(p)
			in.vcIdx = int16(v)
			r.outv[p*r.nvc+v].stage = ringOver(carve(&a.flits, cfg.StageDepth))
		}
		r.inArbs[p] = sched.NewArbiter(cfg.Policy, cfg.Sched)
		r.outs[p].arb = sched.NewArbiter(cfg.Policy, cfg.Sched)
	}
	if cfg.Tracer.Enabled() {
		r.trc = cfg.Tracer
		r.trc.RegisterRouter(cfg.ID, cfg.Ports, cfg.VCs, r.vcc, r.pc)
	}
	return r, nil
}

// inAt returns the input VC at (port, vc) in the flat table.
func (r *Router) inAt(p, v int) *inVC { return &r.inv[p*r.nvc+v] }

// outAt returns the output VC at (port, vc) in the flat table.
func (r *Router) outAt(p, v int) *outVC { return &r.outv[p*r.nvc+v] }

// ID returns the router's fabric identifier.
func (r *Router) ID() int { return r.cfg.ID }

// Config returns the router's configuration.
func (r *Router) Config() Config { return r.cfg }

// Stats returns activity counters. It sums every VC block, so per-cycle
// readers use Progress or PortCounters instead.
func (r *Router) Stats() Stats {
	s := r.stats
	for i := range r.vcc {
		s.MessagesRouted += r.vcc[i].Grants
		s.GrantWait += r.vcc[i].GrantWait
	}
	s.GrantWaitCount = s.MessagesRouted
	for p := range r.pc {
		s.FlitsDropped += r.pc[p].Dropped
	}
	return s
}

// Progress returns the flits the router has switched, transmitted and
// dropped: the watchdog's per-cycle progress signal, O(ports).
func (r *Router) Progress() uint64 {
	n := r.stats.FlitsSwitched + r.stats.FlitsTransmitted
	for p := range r.pc {
		n += r.pc[p].Dropped
	}
	return n
}

// PortStats returns fault counters for port p.
func (r *Router) PortStats(p int) PortStats {
	return PortStats{FlitsDropped: r.pc[p].Dropped, StallCycles: r.stallCycles[p]}
}

// VCCounters returns the router's live per-VC counter blocks, indexed
// port·VCs+vc; an endpoint port's NI counts into its port's blocks too.
func (r *Router) VCCounters() []obs.VCCounters { return r.vcc }

// PortCounters returns the router's live per-port counter blocks; a
// port's NI, sink, retransmitter and fault injector count into them too.
func (r *Router) PortCounters() []obs.PortCounters { return r.pc }

// LinkUp reports whether output port p's link is healthy.
func (r *Router) LinkUp(p int) bool { return r.linkUp[p] }

// SetCorruption installs a per-flit corruption hook: it is consulted as each
// flit is transmitted on an output link, and returning true drops the flit
// and kills its message (the worm unravels and is reclaimed; the NI
// retransmission layer, if enabled, resends the message end to end).
func (r *Router) SetCorruption(fn func(port int, f flit.Flit) bool) { r.corrupt = fn }

// ShareKillFlag points the router at a kill flag shared with the rest of
// its fabric, so a message killed anywhere makes every router reap. A
// router built alone keeps its own flag.
func (r *Router) ShareKillFlag(flag *bool) { r.killed = flag }

// kill marks msg dead on behalf of port p and raises the kill flag, so
// every router and NI sharing the flag reaps the worm from the next cycle.
// It is the router's one kill site. A message's first death is traced and
// counted in port p's block; CauseNoRoute and CauseCorrupt are the
// router's own kills and count in MessagesKilled; CauseNone kills without
// an event (a dead link's staged flits, whose drops are traced instead).
func (r *Router) kill(p int, msg *flit.Message, cause obs.Cause) {
	if !msg.Dead && cause != obs.CauseNone {
		r.pc[p].Killed++
		r.traceKill(p, msg, cause)
		if cause == obs.CauseNoRoute || cause == obs.CauseCorrupt {
			r.stats.MessagesKilled++
		}
	}
	msg.Kill()
	*r.killed = true
}

// markIn recomputes input VC in's occupancy, phase, full and target bits,
// and its port's summary bit, from its state. A VC's outPort changes only
// while it is idle, so clearing its bit in the word of its current outPort
// clears the only target bit it can hold.
func (r *Router) markIn(in *inVC) {
	p, bit := int(in.port), uint64(1)<<uint(in.vcIdx)
	t := p*len(r.outs) + in.outPort
	r.inMask[p] |= bit
	r.actMask[p] &^= bit
	r.reqMask[p] &^= bit
	r.tgt[t] &^= bit
	r.inFull[p] &^= bit
	if in.q.space() == 0 {
		r.inFull[p] |= bit
	}
	switch in.phase {
	case vcIdle:
		if in.q.empty() {
			r.inMask[p] &^= bit
		}
	case vcRequested:
		r.reqMask[p] |= bit
	case vcActive:
		r.actMask[p] |= bit
		r.tgt[t] |= bit
	}
	r.inPorts &^= 1 << uint(p)
	if r.inMask[p] != 0 {
		r.inPorts |= 1 << uint(p)
	}
}

// releaseOut frees output VC (p, v) from the message holding it and flags
// port p for a stage-3 retry, since a header refused there may now be
// granted the VC. It is the only place an output VC is released.
func (r *Router) releaseOut(p, v int) {
	r.outv[p*r.nvc+v].busy = nil
	r.retry |= 1 << uint(p)
}

// markOut recomputes output VC (p, v)'s occupancy and stage-full bits, and
// port p's summary bit, from its state.
func (r *Router) markOut(p, v int) {
	bit := uint64(1) << uint(v)
	st := &r.outv[p*r.nvc+v].stage
	r.outMask[p] &^= bit
	r.fullMask[p] &^= bit
	if !st.empty() {
		r.outMask[p] |= bit
	}
	if st.space() == 0 {
		r.fullMask[p] |= bit
	}
	r.outPorts &^= 1 << uint(p)
	if r.outMask[p] != 0 {
		r.outPorts |= 1 << uint(p)
	}
}

// idle reports whether a Step would find nothing to do: no occupied input
// or output VC. A waiting header's VC is occupied, so the summaries cover
// it.
func (r *Router) idle() bool {
	return r.inPorts|r.outPorts == 0
}

// SetPortStalled injects or lifts a transient stall on output port p: a
// stalled port transmits nothing but keeps all state, so backpressure builds
// upstream and releases when the stall lifts. Unlike a link failure, no
// message is killed.
func (r *Router) SetPortStalled(p int, stalled bool) { r.stalled[p] = stalled }

// waiting returns the headers waiting for an output VC of port p — the
// requested input VCs whose outPort is p — as flat input-VC indexes in
// FCFS order, which is reqSeq order. It scans every requested VC of the
// router, on the ports of inPorts, and insertion-sorts the port's few.
// The result is scratch that the next call overwrites.
func (r *Router) waiting(p int) []int32 {
	r.waitBuf = r.waitBuf[:0]
	for qw := r.inPorts; qw != 0; qw &= qw - 1 {
		q := bits.TrailingZeros64(qw)
		for w := r.reqMask[q]; w != 0; w &= w - 1 {
			i := q*r.nvc + bits.TrailingZeros64(w)
			in := &r.inv[i]
			if in.outPort != p {
				continue
			}
			r.waitBuf = append(r.waitBuf, int32(i))
			j := len(r.waitBuf) - 1
			for ; j > 0 && r.inv[r.waitBuf[j-1]].reqSeq > in.reqSeq; j-- {
				r.waitBuf[j] = r.waitBuf[j-1]
			}
			r.waitBuf[j] = int32(i)
		}
	}
	return r.waitBuf
}

// SetLinkUp changes output port p's link health. Taking a link down kills
// every message with flits committed to the port — messages holding its
// output VCs, messages staged on it, and messages granted or requesting it
// from an input VC — and reclaims their buffers and credits as the dead
// worms unravel (staged flits are dropped immediately; upstream flits are
// reaped by each router's next cycle). Headers that requested the port but
// were not yet granted are re-routed instead of killed. Restoring a link is
// instant; only future routing decisions see it.
func (r *Router) SetLinkUp(p int, up bool) {
	if r.linkUp[p] == up {
		return
	}
	r.setLinkFlag(p, up)
	if up {
		return
	}
	// Waiting headers return to routing: stage 2 will pick a healthy
	// candidate next cycle, or kill the message if none is left.
	for _, i := range r.waiting(p) {
		in := &r.inv[i]
		in.phase = vcIdle
		in.headMsg = nil
		r.markIn(in)
	}
	// Staged flits and output-VC holders are beyond rerouting: kill them.
	for v := 0; v < r.nvc; v++ {
		ov := r.outAt(p, v)
		for !ov.stage.empty() {
			f := ov.stage.pop()
			r.kill(p, f.Msg, obs.CauseNone)
			r.dropFlit(p)
		}
		r.markOut(p, v)
		if ov.busy != nil {
			r.kill(p, ov.busy, obs.CauseLinkDown)
			r.releaseOut(p, v)
		}
	}
	// Input VCs actively forwarding to the port: their worms straddle the
	// dead link, so they cannot be rerouted either.
	for i := range r.inv {
		in := &r.inv[i]
		if in.phase == vcActive && in.outPort == p && in.headMsg != nil {
			r.kill(p, in.headMsg, obs.CauseLinkDown)
		}
	}
}

// setLinkFlag records output port p's link health, keeping the arena's
// dead-transit-port count in step for router-to-router ports.
func (r *Router) setLinkFlag(p int, up bool) {
	if r.linkUp[p] != up && !r.outs[p].endpoint {
		if up {
			r.cfg.Arena.deadTransit--
		} else {
			r.cfg.Arena.deadTransit++
		}
	}
	r.linkUp[p] = up
}

// dropFlit accounts one reaped flit at port p.
func (r *Router) dropFlit(p int) {
	r.pc[p].Dropped++
	if r.trc != nil {
		r.trc.Emit(obs.Event{At: r.now, Kind: obs.EvDrop,
			Router: int16(r.cfg.ID), Port: int16(p), VC: -1})
	}
}

// traceKill emits a message-kill event (no-op when tracing is off).
func (r *Router) traceKill(p int, msg *flit.Message, cause obs.Cause) {
	if r.trc != nil {
		r.trc.Emit(obs.Event{At: r.now, Kind: obs.EvKill, Cause: cause,
			Router: int16(r.cfg.ID), Port: int16(p), VC: -1,
			Msg: msg.ID, Class: msg.Class})
	}
}

// traceBlock opens (or re-causes) the blocking span on an input VC.
func (r *Router) traceBlock(in *inVC, now sim.Time, cause obs.Cause) {
	if r.trc == nil || in.blkCause == cause {
		return
	}
	var msg uint64
	var class flit.Class
	if in.headMsg != nil {
		msg, class = in.headMsg.ID, in.headMsg.Class
	} else if !in.q.empty() {
		m := in.q.peek().Msg
		msg, class = m.ID, m.Class
	}
	if in.blkCause != obs.CauseNone {
		r.trc.Emit(obs.Event{At: now, Kind: obs.EvUnblock, Cause: in.blkCause,
			Router: int16(r.cfg.ID), Port: in.port, VC: in.vcIdx, Msg: msg, Class: class})
	}
	in.blkCause = cause
	r.vcc[int(in.port)*r.nvc+int(in.vcIdx)].Blocks++
	r.trc.Emit(obs.Event{At: now, Kind: obs.EvBlock, Cause: cause,
		Router: int16(r.cfg.ID), Port: in.port, VC: in.vcIdx, Msg: msg, Class: class})
}

// traceBlocks opens, in VC order, the blocking span of each input VC of
// port p holding a flit that cannot move this cycle, with its cause:
// claimed if its bit is in blk, else not granted, just moved (its grant or
// head arrived this cycle) or stage full. Stage 4 calls it after its
// visit, which counted the Stats, and before the port's pick.
func (r *Router) traceBlocks(p int, blk uint64, now sim.Time) {
	for w := r.inMask[p]; w != 0; w &= w - 1 {
		in := &r.inv[p*r.nvc+bits.TrailingZeros64(w)]
		switch {
		case in.q.empty():
		case blk&(w&-w) != 0:
			r.traceBlock(in, now, obs.CauseClaimed)
		case r.vcEligible(in, now):
		case in.phase != vcActive:
			r.traceBlock(in, now, obs.CauseNotGranted)
		case in.grantedAt >= now || in.q.peek().Enq >= now:
			r.traceBlock(in, now, obs.CauseJustMoved)
		default:
			r.traceBlock(in, now, obs.CauseStageFull)
		}
	}
}

// tracePick emits the pick event of kind, EvPickInput or EvPickOutput, for
// port p's multiplexer: the winner's VC and timestamp, and n, the number
// of candidates.
func (r *Router) tracePick(kind obs.Kind, p int, w sched.Candidate, n int) {
	r.trc.Emit(obs.Event{At: r.now, Kind: kind, Router: int16(r.cfg.ID), Port: int16(p),
		VC: int16(w.VC), Arg: obs.TSArg(w.TS), Seq: int32(n)})
}

// traceUnblock closes the input VC's open blocking span, if any.
func (r *Router) traceUnblock(in *inVC, now sim.Time) {
	if r.trc == nil || in.blkCause == obs.CauseNone {
		return
	}
	var msg uint64
	var class flit.Class
	if in.headMsg != nil {
		msg, class = in.headMsg.ID, in.headMsg.Class
	}
	r.trc.Emit(obs.Event{At: now, Kind: obs.EvUnblock, Cause: in.blkCause,
		Router: int16(r.cfg.ID), Port: in.port, VC: in.vcIdx, Msg: msg, Class: class})
	in.blkCause = obs.CauseNone
}

// Connect attaches the consumer downstream of output port p, caching its
// full mask, and records whether that port reaches an endpoint.
func (r *Router) Connect(p int, c Consumer, endpoint bool) {
	r.outs[p].consumer = c
	r.outs[p].full = c.Full()
	r.outs[p].endpoint = endpoint
}

// InputFull returns input port p's full mask, the Consumer.Full of the
// port: bit v is set while VC v's buffer has no space. The word lives in
// the router's arena and stays current as flits arrive and leave.
func (r *Router) InputFull(p int) *uint64 { return &r.inFull[p] }

// Deliver enqueues a flit into input port p, VC vc (pipeline stage 1).
// f.Enq must already hold the arrival instant; the flit is (re)stamped with
// this contention point's Virtual Clock. Callers must not deliver on a VC
// whose full bit (InputFull) is set.
func (r *Router) Deliver(p, vc int, f flit.Flit) {
	in := &r.inv[p*r.nvc+vc]
	if f.Msg.Dead {
		// The message was killed while this flit crossed the link: reap it
		// at arrival so the buffer slot is never consumed. Receive-side
		// tracking is released here; wormhole contiguity guarantees any
		// following flit on this VC opens a new message.
		if in.recvMsg == f.Msg {
			in.recvMsg = nil
		}
		r.dropFlit(p)
		return
	}
	if f.IsHeader() {
		if in.recvMsg != nil && in.recvMsg.Dead {
			in.recvMsg = nil // dead worm truncated upstream; VC reopens here
		}
		if in.recvMsg != nil {
			panic("core: header delivered while another message is arriving on the VC")
		}
		in.recvMsg = f.Msg
		in.recvClk.Reset()
		in.received = 0
	}
	if in.recvMsg != f.Msg {
		panic("core: interleaved messages within a VC")
	}
	f.TS = in.recvClk.Stamp(f.Enq, f.Msg.Vtick)
	in.received++
	if in.received == f.Msg.Flits {
		in.recvMsg = nil // tail delivered; VC free for the next message
	}
	in.q.push(f)
	if in.q.space() == 0 {
		r.inFull[p] |= 1 << uint(vc)
	}
	if in.phase == vcIdle {
		r.markIn(in) // a granted or waiting VC is occupied already
	}
}

// Step advances the router one cycle ending at time now. The fabric calls
// Step on every router each cycle, then lets NIs inject. A router with no
// occupied VC returns at once: the stages would find nothing to do. The
// cycle instant is still recorded, as the snapshot carries it. Otherwise
// each stage visits only what it can act on: stage 2 the idle VCs holding
// a header (every occupied VC once a message has been killed), stage 3 the
// waiting headers of ports flagged for retry, stage 4 the granted VCs
// whose output is unclaimed and stage 5 the output VCs staging flits.
// Tracing changes none of these visits.
//
//mw:hotpath
func (r *Router) Step(now sim.Time) {
	r.now = now
	if r.idle() {
		return
	}
	r.routeAndArbitrate(now)
	r.switchTraversal(now)
	r.transmit(now)
}

// routeAndArbitrate implements pipeline stages 2–3 for header flits:
// submit crossbar requests for idle VCs whose head is an eligible header,
// then serve each output port's waiting headers in FCFS order.
func (r *Router) routeAndArbitrate(now sim.Time) {
	// Stage 2: dead-message reaping, then routing decision + request
	// submission. Reaping first keeps killed worms from occupying VCs or
	// submitting requests; it runs only once some message has been killed,
	// and only over occupied VCs — an input VC still receiving a worm is
	// occupied, so no dead worm is missed. Until then only idle VCs holding
	// a header can act. Once it has, every occupied VC is visited, so a
	// reap stays interleaved with routing in VC order: it releases busy
	// VCs and retires waiting headers that portLoad counts for later VCs.
	// Only ports with an occupied input VC are walked; the stage clears
	// summary bits but never sets one, so the summary is read once. killed
	// mirrors the kill flag, which only this stage's own kill can raise.
	killed := *r.killed
	for pw := r.inPorts; pw != 0; pw &= pw - 1 {
		p := bits.TrailingZeros64(pw)
		w := r.inMask[p]
		if !killed {
			w &^= r.actMask[p] | r.reqMask[p]
		}
		for ; w != 0; w &= w - 1 {
			v := bits.TrailingZeros64(w)
			in := &r.inv[p*r.nvc+v]
			if killed {
				r.reapInVC(p, in)
			}
			if in.phase != vcIdle || in.q.empty() {
				continue
			}
			head := in.q.peek()
			if head.Enq >= now { // stage-1 synchronization: not yet visible
				continue
			}
			if !head.IsHeader() {
				panic("core: non-header flit at head of idle VC")
			}
			msg := head.Msg
			cands := r.liveRoute(msg)
			if len(cands) == 0 {
				// No live route (all candidate links down, or the routing
				// function found the destination unreachable): kill the
				// message so its buffered flits are reclaimed rather than
				// blocking the VC forever. Retransmission retries it once
				// a route recovers.
				r.kill(p, msg, obs.CauseNoRoute)
				killed = true
				r.reapInVC(p, in)
				continue
			}
			out := cands[0]
			if len(cands) > 1 {
				// Fat links: pick the currently least-loaded candidate
				// (§3.4), ties to the lower port index.
				best, bestLoad := cands[0], r.portLoad(cands[0])
				for _, c := range cands[1:] {
					if l := r.portLoad(c); l < bestLoad {
						best, bestLoad = c, l
					}
				}
				out = best
			}
			in.headMsg = msg
			in.outPort = out
			in.phase = vcRequested
			in.reqSeq, in.reqAt = r.seq, now
			r.markIn(in)
			r.retry |= 1 << uint(out)
			r.seq++
			r.stats.RequestsQueued++
		}
	}
	// Stage 3: virtual-channel allocation, FCFS per output port. Output
	// VCs are held at message granularity (wormhole semantics); the
	// crossbar output itself is matched per cycle in switch traversal.
	// Requests are granted the cycle they are submitted when a VC is free
	// (the stage-2/3 units are distinct pipeline stages, so routing and
	// allocation of one header overlap); the grant still takes effect at
	// the crossbar one cycle later via grantedAt. Only a port flagged for
	// retry is served: on any other, every waiting header is one that
	// allocOutVC refused and would refuse again. A grant releases nothing,
	// so the stage flags no port and clears every flag it serves.
	pw := r.retry
	r.retry = 0
	for ; pw != 0; pw &= pw - 1 {
		p := bits.TrailingZeros64(pw)
		op := &r.outs[p]
		for _, i := range r.waiting(p) {
			in := &r.inv[i]
			vc, ok := r.allocOutVC(p, op, in.headMsg)
			if !ok {
				continue
			}
			if !op.endpoint || r.cfg.ExclusiveEndpointVCs {
				r.outAt(p, vc).busy = in.headMsg
			}
			in.outVC = vc
			in.phase = vcActive
			in.grantedAt = now
			r.markIn(in)
			c := &r.vcc[p*r.nvc+vc]
			c.Grants++
			c.GrantWait += uint64(now - in.reqAt)
			if r.trc != nil {
				r.trc.Emit(obs.Event{At: now, Kind: obs.EvVCAlloc,
					Router: int16(r.cfg.ID), Port: int16(p), VC: int16(vc),
					Msg: in.headMsg.ID, Class: in.headMsg.Class,
					Arg: int64(now - in.reqAt)})
			}
		}
	}
}

// allocOutVC picks the output VC for msg on output port p.
//
// At an endpoint port the message's DstVC is used and may be shared by any
// number of in-flight messages: the paper multiplexes multiple connections
// onto one VC (§4.2.1), with the endpoint reassembling frames per message,
// so the final link needs no per-message VC exclusivity. At a transit
// (router-to-router) port the downstream input buffer demultiplexes by VC,
// so messages must hold a VC exclusively; the lowest free VC in the
// message's range (see vcRange) is taken.
func (r *Router) allocOutVC(p int, op *outPort, msg *flit.Message) (int, bool) {
	if op.endpoint {
		if r.cfg.ExclusiveEndpointVCs && r.outAt(p, msg.DstVC).busy != nil {
			return 0, false
		}
		return msg.DstVC, true
	}
	lo, hi := r.vcRange(p, msg)
	for v := lo; v < hi; v++ {
		if r.outAt(p, v).busy == nil {
			return v, true
		}
	}
	return 0, false
}

// liveRoute returns msg's routing candidates with dead links filtered out.
// An empty result means "destination currently unreachable" and the caller
// kills the message: fault-aware routing functions legitimately return no
// candidates when a fault elsewhere in the fabric partitions the
// destination away, even while every local link is up.
func (r *Router) liveRoute(msg *flit.Message) []int {
	cands := r.cfg.Route(r.cfg.ID, msg, r.routeCand[:0])
	if len(cands) == 0 {
		return nil
	}
	r.routeBuf = r.routeBuf[:0]
	for _, p := range cands {
		if r.linkUp[p] {
			r.routeBuf = append(r.routeBuf, p)
		}
	}
	return r.routeBuf
}

// reapInVC removes dead-message state from one input VC: buffered flits of
// killed messages are dropped, and a killed head message goes idle,
// releasing its output-VC grant so the VC recirculates. A waiting header's
// request is retired by the phase change alone: it holds nothing that
// another header could be granted, so no port needs a retry.
func (r *Router) reapInVC(p int, in *inVC) {
	if in.recvMsg != nil && in.recvMsg.Dead {
		in.recvMsg = nil
	}
	for !in.q.empty() && in.q.peek().Msg.Dead {
		in.q.pop()
		r.dropFlit(p)
	}
	if in.headMsg != nil && in.headMsg.Dead {
		r.traceUnblock(in, r.now)
		if in.phase == vcActive && r.outAt(in.outPort, in.outVC).busy == in.headMsg {
			r.releaseOut(in.outPort, in.outVC)
		}
		in.phase = vcIdle
		in.headMsg = nil
	}
	r.markIn(in)
}

// vcRange returns the output VCs [lo, hi) msg may take at transit port p:
// its class partition, narrowed by the topology's VC selector — the
// dateline hook that keeps torus routing deadlock-free.
func (r *Router) vcRange(p int, msg *flit.Message) (lo, hi int) {
	lo, hi = r.rtVCs, r.cfg.VCs
	if msg.Class.RealTime() {
		lo, hi = 0, r.rtVCs
	}
	if r.cfg.VCSel != nil {
		lo, hi = r.cfg.VCSel(r.cfg.ID, p, msg, lo, hi)
	}
	return lo, hi
}

// RTVCs returns the current real-time VC partition size.
func (r *Router) RTVCs() int { return r.rtVCs }

// SetRTVCs repartitions the virtual channels at run time (the paper's §6
// "dynamically partitioned resources"). In-flight messages keep the VCs
// they hold; only future allocations see the new boundary, so every port
// is flagged for a stage-3 retry. n must lie in [0, VCs].
func (r *Router) SetRTVCs(n int) {
	if n < 0 || n > r.cfg.VCs {
		panic("core: SetRTVCs out of range")
	}
	r.rtVCs = n
	r.retry = r.allPorts()
}

// allPorts returns the set of every port of the router.
func (r *Router) allPorts() uint64 {
	return ^uint64(0) >> uint(MaxPorts-len(r.outs))
}

// portLoad estimates congestion on output port p for fat-link selection:
// its waiting headers, held output VCs and staged flits.
func (r *Router) portLoad(p int) int {
	load := len(r.waiting(p))
	for v := 0; v < r.nvc; v++ {
		ov := &r.outv[p*r.nvc+v]
		if ov.busy != nil {
			load++
		}
		load += ov.stage.len()
	}
	return load
}

// switchTraversal implements stage 4. Multiplexed crossbar: per input port,
// the input multiplexer picks one eligible flit (contention point A) whose
// crossbar output has not been claimed this cycle; output claims rotate
// across input ports cycle by cycle so no port is structurally favoured.
// Full crossbar: every eligible VC forwards one flit (each input VC has a
// dedicated crossbar port).
func (r *Router) switchTraversal(now sim.Time) {
	if r.fullXb {
		r.fullTraversal(now)
		return
	}
	// A port offers at most one candidate per VC, so cands never outgrows
	// the VCs capacity New gave it.
	cands := r.cands
	r.claimed, r.picked, r.blocked = 0, 0, 0
	// First allocator iteration: each input port's multiplexer picks its
	// scheduler-preferred eligible flit among outputs not yet claimed this
	// cycle. The starting port rotates so no port is structurally favoured:
	// the walk reads inPorts rotated right by start, whose bit b is port
	// (b+start) mod MaxPorts, so it visits the ports from start upward and
	// then those below start, which wrap to the top bits. A port with no
	// occupied input VC has nothing to offer, so the walk visits only
	// inPorts, which the iteration does not change. Only granted VCs can
	// be picked. Every other occupied VC holds a flit awaiting an output
	// VC — an idle one by inMask's definition, a requested one because its
	// header stays at the queue head until granted — so they are counted
	// in BlockedNotGranted at once. The granted VCs whose output is
	// already claimed are the OR of the port's target words of the claimed
	// outputs; they are counted in BlockedClaimed at once too, and only
	// the rest of actMask is visited. claimBlk and blocked record the VCs
	// blocked by a claimed output for the second iteration. A traced run
	// visits the same VCs, then opens the port's blocking spans in VC order
	// (traceBlocks) before its multiplexer picks, and emits the pick.
	start := r.rotationStart(now)
	for bw := bits.RotateLeft64(r.inPorts, -start); bw != 0; bw &= bw - 1 {
		p := (bits.TrailingZeros64(bw) + start) & (MaxPorts - 1)
		cands = cands[:0]
		a := r.actMask[p]
		var blk uint64 // granted VCs whose output is claimed
		if r.claimed != 0 && a != 0 {
			row := r.tgt[p*len(r.outs):]
			for cw := r.claimed; cw != 0; cw &= cw - 1 {
				blk |= row[bits.TrailingZeros64(cw)]
			}
		}
		r.claimBlk[p] = blk
		if blk != 0 {
			r.stats.BlockedClaimed += uint64(bits.OnesCount64(blk))
			r.blocked |= 1 << uint(p)
		}
		r.stats.BlockedNotGranted += uint64(bits.OnesCount64(r.inMask[p] &^ a))
		for w := a &^ blk; w != 0; w &= w - 1 {
			v := bits.TrailingZeros64(w)
			in := &r.inv[p*r.nvc+v]
			if !r.vcEligible(in, now) {
				switch {
				case in.q.empty():
				case in.grantedAt >= now || in.q.peek().Enq >= now:
					r.stats.BlockedJustMoved++
				default:
					r.stats.BlockedStageFull++
				}
				continue
			}
			head := in.q.peek()
			cands = append(cands, sched.Candidate{VC: v, TS: head.TS, Enq: head.Enq, Seq: uint64(v)})
		}
		if r.trc != nil {
			r.traceBlocks(p, blk, now)
		}
		if len(cands) == 0 {
			continue
		}
		i := r.inArbs[p].Pick(cands)
		if r.trc != nil {
			r.tracePick(obs.EvPickInput, p, cands[i], len(cands))
		}
		v := cands[i].VC
		out := r.inv[p*r.nvc+v].outPort
		r.claimed |= 1 << uint(out)
		r.claimedBy[out] = int8(p)
		r.picked |= 1 << uint(p)
		r.pickedVC[p] = int8(v)
	}
	if r.cfg.AllocatorIterations >= 2 {
		r.augment(now, start)
	}
	// Forward the matched flits.
	for pw := r.picked; pw != 0; pw &= pw - 1 {
		p := bits.TrailingZeros64(pw)
		r.forward(r.inAt(p, int(r.pickedVC[p])), now)
	}
}

// rotationStart returns the allocator's starting port for the cycle at
// now, (now/Period) mod Ports. Routers step cycle after cycle, so it
// advances the cached start by one port when now is the cycle after the
// one last computed, and divides only after a gap.
func (r *Router) rotationStart(now sim.Time) int {
	if now == r.startAt+r.cfg.Period {
		r.start = nextPort(r.start, len(r.outs))
	} else {
		r.start = int(now/r.cfg.Period) % len(r.outs)
	}
	r.startAt = now
	return r.start
}

// augment is the second allocator iteration (one-step augmentation), in
// the first's rotation from port start: an unmatched input whose eligible
// flits all target claimed outputs may still be served when a claiming
// input has an eligible alternative to a free output — the claimer is
// re-pointed there and the contested output handed over. Pipelined routers
// achieve the same with iterative separable allocators; every input still
// forwards at most one flit and every output still receives at most one.
// An unmatched input had no eligible VC with an unclaimed output, nothing
// changes eligibility between the iterations and claims are never
// withdrawn, so its claim-blocked VCs are the only ones that can qualify,
// and eligibility is the only test left for them. Only the unmatched
// inputs in blocked can qualify, and matching one never unmatches
// another, so they are known before the first is served. An alternative
// must be granted, so the claimer's actMask is searched.
func (r *Router) augment(now sim.Time, start int) {
	for bw := bits.RotateLeft64(r.blocked&^r.picked, -start); bw != 0; bw &= bw - 1 {
		p := (bits.TrailingZeros64(bw) + start) & (MaxPorts - 1)
	vcLoop:
		for w := r.claimBlk[p]; w != 0; w &= w - 1 {
			v := bits.TrailingZeros64(w)
			in := &r.inv[p*r.nvc+v]
			if !r.vcEligible(in, now) {
				continue
			}
			j := int(r.claimedBy[in.outPort]) // a claim-blocked VC's output is claimed
			for wa := r.actMask[j]; wa != 0; wa &= wa - 1 {
				jv := bits.TrailingZeros64(wa)
				alt := &r.inv[j*r.nvc+jv]
				if jv == int(r.pickedVC[j]) || r.claimed&(1<<uint(alt.outPort)) != 0 || !r.vcEligible(alt, now) {
					continue
				}
				// Re-point input j to the free output and hand the
				// contested one to p.
				r.claimed |= 1 << uint(alt.outPort)
				r.claimedBy[alt.outPort] = int8(j)
				r.pickedVC[j] = int8(jv)
				r.claimedBy[in.outPort] = int8(p)
				r.picked |= 1 << uint(p)
				r.pickedVC[p] = int8(v)
				break vcLoop
			}
		}
	}
}

// nextPort returns the port after p in the allocator's rotation over n
// ports, wrapping without a division.
func nextPort(p, n int) int {
	if p++; p == n {
		return 0
	}
	return p
}

// fullTraversal is stage 4 for the full (n·m × n·m) crossbar: every output
// VC is a dedicated crossbar output that accepts at most one flit per cycle,
// chosen among the input VCs feeding it by the configured policy. There is
// no input multiplexer — all of an input port's VCs may forward in the same
// cycle — so the scheduling points are the crossbar output (here) and the
// physical-channel VC multiplexer (stage 5), matching §3.3's full-crossbar
// analysis.
func (r *Router) fullTraversal(now sim.Time) {
	m := r.nvc
	// fed marks the output VCs that found a feeder this cycle, laid out
	// like outMask, and fedPorts their ports; feeder entries without a bit
	// are stale. The forwarding walk clears both for the next cycle.
	for pw := r.inPorts; pw != 0; pw &= pw - 1 {
		p := bits.TrailingZeros64(pw)
		for w := r.actMask[p]; w != 0; w &= w - 1 { // vcEligible requires vcActive
			v := bits.TrailingZeros64(w)
			i := p*m + v
			in := &r.inv[i]
			if !r.vcEligible(in, now) {
				continue
			}
			head := in.q.peek()
			c := sched.Candidate{VC: v, TS: head.TS, Enq: head.Enq, Seq: uint64(i)}
			key := in.outPort*m + in.outVC
			bit := uint64(1) << uint(in.outVC)
			if r.fed[in.outPort]&bit == 0 || sched.Better(r.cfg.Policy, c, r.feederCand[key]) {
				r.fed[in.outPort] |= bit
				r.fedPorts |= 1 << uint(in.outPort)
				r.feeder[key] = int32(i)
				r.feederCand[key] = c
			}
		}
	}
	for pw := r.fedPorts; pw != 0; pw &= pw - 1 {
		p := bits.TrailingZeros64(pw)
		w := r.fed[p]
		r.fed[p] = 0
		for ; w != 0; w &= w - 1 {
			r.forward(&r.inv[r.feeder[p*m+bits.TrailingZeros64(w)]], now)
		}
	}
	r.fedPorts = 0
}

// vcEligible reports whether in's head flit may traverse the crossbar now.
func (r *Router) vcEligible(in *inVC, now sim.Time) bool {
	if in.phase != vcActive || in.q.empty() {
		return false
	}
	if in.grantedAt >= now { // grant visible next cycle (stage 3→4 boundary)
		return false
	}
	head := in.q.peek()
	if head.Enq >= now { // stage-1 synchronization
		return false
	}
	return r.fullMask[in.outPort]&(1<<uint(in.outVC)) == 0
}

// forward moves in's head flit through the crossbar into its output VC's
// staging buffer and releases message-granularity resources on the tail.
// The pop frees a slot, so it clears the input VC's full bit; a push into
// an empty staging buffer makes a head that cannot leave this cycle, so it
// sets the output VC's fresh bit.
func (r *Router) forward(in *inVC, now sim.Time) {
	r.traceUnblock(in, now)
	f := in.q.pop()
	r.inFull[in.port] &^= 1 << uint(in.vcIdx)
	ov := r.outAt(in.outPort, in.outVC)
	r.vcc[int(in.port)*r.nvc+int(in.vcIdx)].Switched++
	if r.trc != nil {
		r.trc.Emit(obs.Event{At: now, Kind: obs.EvSwitchArb,
			Router: int16(r.cfg.ID), Port: in.port, VC: in.vcIdx,
			Msg: f.Msg.ID, Class: f.Msg.Class, Seq: int32(f.Seq),
			Arg: int64(in.outPort)<<16 | int64(in.outVC)})
	}
	if f.IsHeader() && ov.busy == f.Msg {
		// Exclusive (transit) VC: a fresh per-message clock, per §3.3's
		// "each message works as if it were a connection". Shared endpoint
		// VCs keep a continuous clock across the messages multiplexed onto
		// them.
		ov.clk.Reset()
	}
	// Restamp for contention point C (meaningful for the full crossbar; with
	// a multiplexed crossbar the mux degenerates to FIFO as in §3.3).
	f.TS = ov.clk.Stamp(now, f.Msg.Vtick)
	f.Enq = now
	if ov.stage.empty() {
		r.fresh[in.outPort] |= 1 << uint(in.outVC)
	}
	ov.stage.push(f)
	r.markOut(in.outPort, in.outVC)
	r.stats.FlitsSwitched++
	if f.IsTail() {
		in.phase = vcIdle
		in.headMsg = nil
		if ov.busy == f.Msg {
			// Exclusive VC released as the tail enters the staging buffer:
			// the staging FIFO keeps messages contiguous on the link, so
			// the next holder cannot overtake the old tail.
			r.releaseOut(in.outPort, in.outVC)
		}
		r.markIn(in) // only the tail changes the VC's phase, and so its bits
	}
}

// transmit implements stage 5: each output physical channel sends one flit
// per cycle, chosen by the VC multiplexer among staged flits with downstream
// credit. Until a message is killed only the ports staging flits can act,
// and the stage clears summary bits but never sets one, so it walks the
// ports of outPorts. Once the kill flag is up, every port is reaped and
// then served in turn; a corrupted flit, the one kill the stage makes,
// raises the flag for the ports after its own. A port's candidates are its
// staged VCs less the consumer's full VCs and the VCs whose head was staged
// this cycle, three mask words; every port holding a fresh bit is staging
// flits, so the walk reaches it and clears its bits before anything else.
func (r *Router) transmit(now sim.Time) {
	todo, reaping := r.outPorts, *r.killed
	if reaping {
		todo = r.allPorts()
	}
	for todo != 0 {
		p := bits.TrailingZeros64(todo)
		todo &= todo - 1
		if reaping {
			r.reapOutPort(p, now)
		}
		fresh := r.fresh[p]
		r.fresh[p] = 0
		if reaping && r.outMask[p] == 0 {
			continue
		}
		if !r.linkUp[p] || r.stalled[p] {
			// A dead or stalled link transmits nothing. Staged flits on
			// a stalled link wait; on a dead link they belong to worms
			// killed by SetLinkUp and are reaped above.
			r.stallCycles[p]++
			continue
		}
		op := &r.outs[p]
		cands := r.cands // at most one candidate per VC: never outgrows New's capacity
		cands = cands[:0]
		for w := r.outMask[p] &^ (*op.full | fresh); w != 0; w &= w - 1 {
			v := bits.TrailingZeros64(w)
			head := r.outv[p*r.nvc+v].stage.peek()
			cands = append(cands, sched.Candidate{VC: v, TS: head.TS, Enq: head.Enq, Seq: uint64(v)})
		}
		if len(cands) == 0 { // staged work, no downstream credit
			r.stallCycles[p]++
			continue
		}
		i := op.arb.Pick(cands)
		if r.trc != nil {
			r.tracePick(obs.EvPickOutput, p, cands[i], len(cands))
		}
		v := cands[i].VC
		ov := r.outAt(p, v)
		f := ov.stage.pop()
		r.markOut(p, v)
		if r.corrupt != nil && r.corrupt(p, f) {
			// The flit is corrupted on the wire: the whole message is
			// lost (wormhole has no flit-level recovery) and unravels.
			r.kill(p, f.Msg, obs.CauseCorrupt)
			r.dropFlit(p)
			if !reaping {
				reaping = true
				todo = r.allPorts() >> uint(p+1) << uint(p+1)
			}
			continue
		}
		f.Enq = now + r.cfg.Period // arrival downstream after the wire
		r.vcc[p*r.nvc+v].Transmitted++
		if r.trc != nil {
			// Emit before Accept: a sink consumer ejects the flit at its
			// downstream arrival time (now+Period), and per-lane
			// timestamps must stay non-decreasing in emission order.
			r.trc.Emit(obs.Event{At: now, Kind: obs.EvLinkTraverse,
				Router: int16(r.cfg.ID), Port: int16(p), VC: int16(v),
				Msg: f.Msg.ID, Class: f.Msg.Class, Seq: int32(f.Seq),
				Arg: obs.TSArg(f.TS)})
		}
		op.consumer.Accept(v, f)
		r.stats.FlitsTransmitted++
	}
}

// reapOutPort reaps dead worms at output port p, over every output VC
// since a killed holder may stage nothing: staged flits of killed messages
// are dropped (head-first; a dead worm's flits are flushed within a few
// cycles even on shared endpoint VCs), and a killed holder releases the VC
// before stage 2's fat-link choice reads it next cycle. A reap can expose
// a flit staged this cycle behind a dead head, whose push found the ring
// non-empty and set no fresh bit, so the reap sets the bit; transmit reads
// the port's fresh bits after it.
func (r *Router) reapOutPort(p int, now sim.Time) {
	for v := 0; v < r.nvc; v++ {
		ov := &r.outv[p*r.nvc+v]
		for !ov.stage.empty() && ov.stage.peek().Msg.Dead {
			ov.stage.pop()
			r.dropFlit(p)
			if !ov.stage.empty() && ov.stage.peek().Enq >= now {
				r.fresh[p] |= 1 << uint(v)
			}
		}
		r.markOut(p, v)
		if ov.busy != nil && ov.busy.Dead {
			r.releaseOut(p, v)
		}
	}
}

// Blocked describes one input VC whose worm holds buffer space while waiting
// on a switching resource — the nodes of the watchdog's wait-for graph.
type Blocked struct {
	// Router is the router's fabric ID; InPort/InVC locate the parked worm.
	Router, InPort, InVC int
	// OutPort is the output the worm targets. OutVC is its granted output
	// VC, or -1 while it still awaits virtual-channel allocation.
	OutPort, OutVC int
	// Msg is the waiting message. Holder, for ungranted worms, is the
	// message holding the first busy VC of the range allocation searches
	// for the worm (nil if none is visible). The watchdog kills Msg directly when
	// breaking a deadlock.
	Msg, Holder *flit.Message
}

// BlockedWorms returns every input VC whose worm is waiting on a switching
// resource: granted worms waiting for staging space or downstream credit,
// and requested worms waiting for an output VC. The fabric's deadlock
// watchdog chains these across routers into a wait-for cycle.
func (r *Router) BlockedWorms() []Blocked {
	var out []Blocked
	for p := 0; p < len(r.outs); p++ {
		for v := 0; v < r.nvc; v++ {
			in := &r.inv[p*r.nvc+v]
			if in.phase == vcIdle || in.headMsg == nil {
				continue
			}
			b := Blocked{
				Router: r.cfg.ID, InPort: p, InVC: v,
				OutPort: in.outPort, OutVC: -1, Msg: in.headMsg,
			}
			if in.phase == vcActive {
				b.OutVC = in.outVC
			} else {
				op := &r.outs[in.outPort]
				if op.endpoint {
					b.Holder = r.outAt(in.outPort, in.headMsg.DstVC).busy
				} else {
					lo, hi := r.vcRange(in.outPort, in.headMsg)
					for vv := lo; vv < hi; vv++ {
						if m := r.outAt(in.outPort, vv).busy; m != nil {
							b.Holder = m
							break
						}
					}
				}
			}
			out = append(out, b)
		}
	}
	return out
}

// CheckOccupancy recomputes the occupancy, stage-full, phase, input-full
// and claimed-output target masks, the port summaries and the idle
// predicate from the VC tables and reports the first disagreement.
// It also audits what the stages' shortcuts rely on: a requested VC's
// queue is never empty, no fresh-head bit survives a Step, and every
// header waiting at a port whose retry flag is clear is one that
// allocOutVC refuses. It walks every VC, so it is an audit to run between
// cycles, not part of one.
func (r *Router) CheckOccupancy() error {
	var wantInPorts, wantOutPorts uint64
	wantTgt := make([]uint64, len(r.outs))
	for p := range r.outs {
		clear(wantTgt)
		for v := 0; v < sched.MaxVCs; v++ {
			bit := uint64(1) << uint(v)
			var wantIn, wantOut, wantFull, wantAct, wantReq, wantInFull bool
			if v < r.nvc {
				in, ov := r.inAt(p, v), r.outAt(p, v)
				wantIn = !in.q.empty() || in.phase != vcIdle
				wantOut, wantFull = !ov.stage.empty(), ov.stage.space() == 0
				wantAct, wantReq = in.phase == vcActive, in.phase == vcRequested
				wantInFull = in.q.space() == 0
				if wantReq && in.q.empty() {
					return fmt.Errorf("core: router %d input VC %d/%d is requested with an empty queue",
						r.cfg.ID, p, v)
				}
				if wantAct {
					wantTgt[in.outPort] |= bit
				}
			}
			if wantIn {
				wantInPorts |= 1 << uint(p)
			}
			if wantOut {
				wantOutPorts |= 1 << uint(p)
			}
			for _, c := range [...]struct {
				side, what string
				mask       []uint64
				want       bool
			}{
				{"input", "occupancy", r.inMask, wantIn},
				{"output", "occupancy", r.outMask, wantOut},
				{"output", "stage-full", r.fullMask, wantFull},
				{"input", "active", r.actMask, wantAct},
				{"input", "requested", r.reqMask, wantReq},
				{"input", "full", r.inFull, wantInFull},
				{"output", "fresh-head", r.fresh, false},
			} {
				if got := c.mask[p]&bit != 0; got != c.want {
					return fmt.Errorf("core: router %d %s VC %d/%d %s bit %v, VC state says %v",
						r.cfg.ID, c.side, p, v, c.what, got, c.want)
				}
			}
		}
		for o := range r.outs {
			if got, want := r.tgt[p*len(r.outs)+o], wantTgt[o]; got != want {
				return fmt.Errorf("core: router %d input port %d target word for output %d is %#x, VC state says %#x",
					r.cfg.ID, p, o, got, want)
			}
		}
		op := &r.outs[p]
		if r.retry&(1<<uint(p)) != 0 {
			continue
		}
		for _, i := range r.waiting(p) {
			if _, ok := r.allocOutVC(p, op, r.inv[i].headMsg); ok {
				return fmt.Errorf("core: router %d output port %d could grant input VC %d/%d but is not flagged for retry",
					r.cfg.ID, p, int(i)/r.nvc, int(i)%r.nvc)
			}
		}
	}
	for _, c := range [...]struct {
		what      string
		got, want uint64
	}{
		{"input summary", r.inPorts, wantInPorts},
		{"output summary", r.outPorts, wantOutPorts},
		{"retry", r.retry, r.retry & r.allPorts()},
	} {
		if c.got != c.want {
			return fmt.Errorf("core: router %d %s ports %#x, VC state says %#x", r.cfg.ID, c.what, c.got, c.want)
		}
	}
	idle := true
	for i := range r.inv {
		idle = idle && r.inv[i].q.empty() && r.inv[i].phase == vcIdle && r.outv[i].stage.empty()
	}
	if r.idle() != idle {
		return fmt.Errorf("core: router %d idle() = %v, VC state says %v", r.cfg.ID, r.idle(), idle)
	}
	return nil
}

// Quiesced reports whether the router holds no flits, no waiting header
// and no output-VC grant — used by tests and the fabric's self-check. It
// reads the VC tables, not the masks, so it checks them independently.
func (r *Router) Quiesced() bool {
	for i := range r.inv {
		if !r.inv[i].q.empty() || r.inv[i].phase != vcIdle {
			return false
		}
	}
	for i := range r.outv {
		if !r.outv[i].stage.empty() || r.outv[i].busy != nil {
			return false
		}
	}
	return true
}
