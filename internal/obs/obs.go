// Package obs is the simulator's deterministic observability subsystem:
// flit-lifecycle tracing, per-port/per-VC metrics, and exporters for the
// Chrome trace-event format and CSV.
//
// Design constraints, in order:
//
//  1. Zero cost when disabled. Every instrumented component holds a
//     *Tracer and all Tracer methods are nil-safe, so the disabled path is
//     a single pointer comparison and never allocates. A nil *Tracer IS
//     the disabled subsystem.
//  2. Deterministic. Events are stamped with sim.Time only — never the
//     wall clock — and recorded into a preallocated ring buffer, so two
//     runs from one seed produce byte-identical traces (the golden test in
//     internal/experiments holds this, and mwlint's detlint/simtime
//     analyzers guard it statically).
//  3. Bounded. The ring buffer overwrites its oldest events when full and
//     counts the overwritten ones, so tracing a long run costs a fixed
//     amount of memory, never an unbounded slice.
//
// The event vocabulary covers the flit lifecycle (inject, VC-allocate,
// switch-arbitrate, link-traverse, block/unblock with the blocking cause,
// eject, drop, kill, retransmit, abandon), scheduler decisions at the three
// contention points (crossbar input multiplexer, output-link VC
// multiplexer, source-NI multiplexer, plus Virtual Clock stamp
// assignments), and control-plane verdicts (injected faults, watchdog
// deadlock reports, metrics snapshots). See DESIGN.md §11.
package obs

import (
	"fmt"
	"slices"
	"time"

	"mediaworm/internal/flit"
	"mediaworm/internal/sim"
)

// Kind identifies one event of the fixed trace vocabulary.
type Kind uint8

const (
	// EvInject marks a message entering its source NI's injection queue.
	// Seq carries the message's flit count, Arg its destination node.
	EvInject Kind = iota
	// EvVCAlloc marks a header granted an output virtual channel (pipeline
	// stage 3). Port/VC are the granted output lane; Arg is the
	// request→grant wait in nanoseconds.
	EvVCAlloc
	// EvSwitchArb marks one flit crossing the crossbar (stage 4). Port/VC
	// are the input lane; Arg packs the output lane as port<<16 | vc.
	EvSwitchArb
	// EvLinkTraverse marks one flit transmitted on an output link
	// (stage 5). Port/VC are the output lane; Arg is the flit's Virtual
	// Clock timestamp at that contention point.
	EvLinkTraverse
	// EvBlock opens a blocking span on an input VC (or, with VC == -1, a
	// source NI's injection link); Cause says why. EvUnblock closes it.
	EvBlock
	// EvUnblock closes the current blocking span; Cause repeats the span's
	// blocking cause.
	EvUnblock
	// EvEject marks a message tail reaching its destination sink. Arg is
	// the end-to-end latency in nanoseconds, Seq the frame sequence.
	EvEject
	// EvDrop marks one flit reaped at a port (dead-worm unraveling,
	// corruption, unroutable kill).
	EvDrop
	// EvKill marks a message killed by the router itself; Cause
	// distinguishes corruption, no-route, and link-failure kills.
	EvKill
	// EvRetransmit marks an NI end-to-end resend; Seq is the new attempt.
	EvRetransmit
	// EvAbandon marks the retransmitter giving up on a message.
	EvAbandon
	// EvPickInput records a crossbar input multiplexer decision
	// (contention point A). VC is the winner, Seq the candidate count,
	// Arg the winner's Virtual Clock timestamp.
	EvPickInput
	// EvPickOutput records an output-link VC multiplexer decision
	// (contention point C), encoded like EvPickInput.
	EvPickOutput
	// EvPickSource records a source NI injection multiplexer decision,
	// encoded like EvPickInput.
	EvPickSource
	// EvVCTick records a Virtual Clock stamp assignment at the source NI;
	// Arg is the assigned timestamp (sim.Forever for best-effort).
	EvVCTick
	// EvFault records an injected fault state change; Cause is
	// CauseLinkDown or CauseStalled and Arg is 1 for onset, 0 for lift.
	EvFault
	// EvDeadlock records a watchdog verdict; Arg is the number of blocked
	// worms, Msg the victim killed in recovery mode (0 otherwise).
	EvDeadlock
	// EvSnapshot marks a metrics snapshot instant.
	EvSnapshot
	// EvPolice marks a real-time message discarded by the injection-point
	// meter→dropper chain; Arg is the meter color (police.Color) and Seq the
	// message's flit count. Emitted only on drop, so traces of unpoliced
	// runs are unchanged.
	EvPolice
)

// numKinds sizes the vocabulary. It is an int, not a Kind, so it is not a
// member of the enum for exhaustiveness analysis.
const numKinds = int(EvPolice) + 1

var kindNames = [numKinds]string{
	"inject", "vc-alloc", "switch", "link", "block", "unblock", "eject",
	"drop", "kill", "retransmit", "abandon", "pick-input", "pick-output",
	"pick-source", "vc-tick", "fault", "deadlock", "snapshot", "police",
}

// String implements fmt.Stringer.
func (k Kind) String() string {
	if int(k) < numKinds {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Cause classifies why a worm is blocked, a message was killed, or a fault
// changed state.
type Cause uint8

const (
	// CauseNone is the zero cause (event kinds that carry no cause).
	CauseNone Cause = iota
	// CauseNotGranted: header still awaiting output-VC allocation.
	CauseNotGranted
	// CauseJustMoved: stage-1/3 pipeline synchronization (the flit or
	// grant only became visible this cycle).
	CauseJustMoved
	// CauseStageFull: output staging buffer backpressure.
	CauseStageFull
	// CauseClaimed: the crossbar output was claimed by another input this
	// cycle (multiplexed crossbar only).
	CauseClaimed
	// CauseNoCredit: no downstream credit on any backlogged VC (source NI).
	CauseNoCredit
	// CauseNoRoute: every routing candidate was dead or the destination is
	// partitioned away.
	CauseNoRoute
	// CauseCorrupt: the flit was corrupted on the wire.
	CauseCorrupt
	// CauseLinkDown: a link failure (fault onset/lift, or a kill from one).
	CauseLinkDown
	// CauseStalled: an injected port stall (fault onset/lift).
	CauseStalled
	// CauseTimeout: an end-to-end delivery deadline expired.
	CauseTimeout
)

// numCauses sizes the cause vocabulary (int, not Cause — see numKinds).
const numCauses = int(CauseTimeout) + 1

var causeNames = [numCauses]string{
	"none", "not-granted", "just-moved", "stage-full", "claimed",
	"no-credit", "no-route", "corrupt", "link-down", "stalled", "timeout",
}

// String implements fmt.Stringer.
func (c Cause) String() string {
	if int(c) < numCauses {
		return causeNames[c]
	}
	return fmt.Sprintf("Cause(%d)", uint8(c))
}

// Event is one trace record. It is a fixed-size value type — emitting one
// copies scalars into the ring and never allocates. Router, Port and VC
// locate the event; -1 marks a dimension that does not apply (engine- or
// fabric-level events use Router == -1, port-level events VC == -1).
type Event struct {
	// At is the simulation instant, in engine nanoseconds.
	At sim.Time
	// Msg is the owning message's ID (0 when no message applies).
	Msg uint64
	// Arg is kind-specific payload; see the Kind constants.
	Arg int64
	// Seq is kind-specific: the flit index within its message for flit
	// events, the candidate count for pick events, the frame sequence for
	// ejects, the attempt number for retransmits.
	Seq int32
	// Router, Port, VC locate the event in the fabric (-1 = not applicable).
	Router, Port, VC int16
	// Kind selects the vocabulary entry; Cause and Class qualify it.
	Kind  Kind
	Cause Cause
	Class flit.Class
}

// TSArg encodes a Virtual Clock timestamp as an event argument: finite
// stamps pass through, sim.Forever (best-effort) becomes -1 so exported
// JSON stays readable.
func TSArg(t sim.Time) int64 {
	if t == sim.Forever {
		return -1
	}
	return int64(t)
}

// Options configures a Tracer.
type Options struct {
	// Enabled turns the subsystem on. New returns nil when false, and a
	// nil Tracer is the zero-cost disabled path.
	Enabled bool
	// EventCap is the ring-buffer capacity in events (0 → 65536). When a
	// run emits more, the oldest events are overwritten and counted.
	EventCap int
	// MetricsInterval is the simulated time between metrics snapshots
	// (0 → no periodic snapshots; the run's final snapshot still happens).
	MetricsInterval time.Duration
}

// RouterDim records one registered router's dimensions, so exporters can
// lay out per-port/per-VC lanes without re-deriving the topology.
type RouterDim struct {
	ID, Ports, VCs int
}

// Tracer records events and snapshots metrics. The zero value is not
// usable; construct with New. A nil *Tracer is valid everywhere and does
// nothing — instrumented components call methods without checking, or gate
// whole blocks behind a single nil comparison.
type Tracer struct {
	ring    []Event
	head    int    // next write index
	total   uint64 // events emitted over the run
	dropped uint64 // events overwritten after the ring wrapped

	interval sim.Time
	nextSnap sim.Time

	// The registered routers' dimensions and counter blocks, which the
	// routers own, in registration order; snapshots copy the blocks.
	dims    []RouterDim
	vcBlk   [][]VCCounters
	portBlk [][]PortCounters

	// lat holds the end-to-end message latency histogram per traffic
	// class, indexed by flit.Class (CBR, VBR, BestEffort).
	lat [3]Hist

	engine     *sim.Engine
	maxPending int

	snaps []Snapshot
}

// New builds a Tracer, or returns nil when opt.Enabled is false — the nil
// Tracer is the disabled subsystem.
func New(opt Options) *Tracer {
	if !opt.Enabled {
		return nil
	}
	capEvents := opt.EventCap
	if capEvents <= 0 {
		capEvents = 1 << 16
	}
	t := &Tracer{ring: make([]Event, capEvents)}
	if opt.MetricsInterval > 0 {
		t.interval = sim.Time(opt.MetricsInterval.Nanoseconds())
		t.nextSnap = t.interval
	}
	return t
}

// Enabled reports whether tracing is on (t is non-nil).
func (t *Tracer) Enabled() bool { return t != nil }

// RegisterRouter declares a router's dimensions, so exporter lanes exist
// for it, and its counter blocks — vc indexed port·vcs+v, port one per
// port — so every snapshot copies them. Routers register themselves in
// core.New; registering the same ID twice is a no-op.
func (t *Tracer) RegisterRouter(id, ports, vcs int, vc []VCCounters, port []PortCounters) {
	if t == nil {
		return
	}
	if id < 0 || ports <= 0 || vcs <= 0 || len(vc) != ports*vcs || len(port) != ports {
		panic(fmt.Sprintf("obs: RegisterRouter(%d, %d, %d) with %d VC and %d port blocks",
			id, ports, vcs, len(vc), len(port)))
	}
	for _, d := range t.dims {
		if d.ID == id {
			return
		}
	}
	t.dims = append(t.dims, RouterDim{ID: id, Ports: ports, VCs: vcs})
	t.vcBlk = append(t.vcBlk, vc)
	t.portBlk = append(t.portBlk, port)
}

// RegisterEngine attaches the tracer to the engine as its execution probe,
// so snapshots carry event-count and calendar-depth readings.
func (t *Tracer) RegisterEngine(e *sim.Engine) {
	if t == nil || e == nil {
		return
	}
	t.engine = e
	e.SetProbe(t)
}

// OnEvent implements sim.Probe: it tracks the calendar's high-water depth
// between snapshots.
func (t *Tracer) OnEvent(_ sim.Time, pending int) {
	if pending > t.maxPending {
		t.maxPending = pending
	}
}

// Emit records one event. On a nil Tracer it is a no-op; on a live one it
// copies the event into the ring, overwriting the oldest when full. It
// never allocates.
func (t *Tracer) Emit(ev Event) {
	if t == nil {
		return
	}
	if t.total >= uint64(len(t.ring)) {
		t.dropped++
	}
	t.ring[t.head] = ev
	t.head++
	if t.head == len(t.ring) {
		t.head = 0
	}
	t.total++
}

// ObserveLatency records one delivered message's end-to-end latency in its
// class's histogram. The sink calls it beside its EvEject event.
func (t *Tracer) ObserveLatency(class flit.Class, lat sim.Time) {
	if t != nil && int(class) < len(t.lat) {
		t.lat[class].Observe(lat)
	}
}

// Tick is the fabric's per-cycle hook: it takes a metrics snapshot whenever
// the configured interval has elapsed. Cheap when disabled or between
// snapshots (one comparison).
func (t *Tracer) Tick(now sim.Time) {
	if t == nil || t.interval <= 0 || now < t.nextSnap {
		return
	}
	t.Snapshot(now)
	for t.nextSnap <= now {
		t.nextSnap += t.interval
	}
}

// Snapshot records the current cumulative metrics — copies of the
// registered counter blocks, engine gauges, latency histograms — as of
// now, and marks the instant in the event stream.
func (t *Tracer) Snapshot(now sim.Time) {
	if t == nil {
		return
	}
	t.Emit(Event{At: now, Kind: EvSnapshot, Router: -1, Port: -1, VC: -1})
	s := Snapshot{
		At:            now,
		Events:        t.total,
		DroppedEvents: t.dropped,
		PerVC:         slices.Concat(t.vcBlk...),
		PerPort:       slices.Concat(t.portBlk...),
		Latency:       t.lat,
	}
	if t.engine != nil {
		s.Engine = EngineStats{
			Processed:  t.engine.Processed(),
			Pending:    t.engine.Pending(),
			MaxPending: t.maxPending,
		}
	}
	t.maxPending = 0
	t.snaps = append(t.snaps, s)
}

// Capture is a finished trace: the surviving events in chronological
// order, the router dimensions, and every metrics snapshot. It is what the
// exporters consume and what Result.Trace carries.
type Capture struct {
	// Routers lists the registered router dimensions.
	Routers []RouterDim
	// Events holds the ring's surviving events, oldest first.
	Events []Event
	// TotalEvents counts every event emitted over the run;
	// DroppedEvents the ones the ring overwrote
	// (TotalEvents - DroppedEvents == len(Events)).
	TotalEvents, DroppedEvents uint64
	// Snapshots holds the periodic and final metrics snapshots.
	Snapshots []Snapshot
}

// Capture finalizes the trace. A nil Tracer yields a nil Capture.
func (t *Tracer) Capture() *Capture {
	if t == nil {
		return nil
	}
	c := &Capture{
		Routers:       append([]RouterDim(nil), t.dims...),
		TotalEvents:   t.total,
		DroppedEvents: t.dropped,
		Snapshots:     t.snaps,
	}
	if t.total <= uint64(len(t.ring)) {
		c.Events = append([]Event(nil), t.ring[:t.total]...)
	} else {
		c.Events = append(append([]Event(nil), t.ring[t.head:]...), t.ring[:t.head]...)
	}
	return c
}
