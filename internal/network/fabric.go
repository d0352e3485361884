// Package network assembles MediaWorm routers, network interfaces (NIs),
// links and sinks into a running fabric. It owns the cycle driver: a single
// self-rescheduling engine event advances every router and NI one cycle at a
// time while any flit is in flight, and goes dormant when the fabric drains,
// so the long idle gaps between video frames cost nothing. Within a cycle a
// router or NI with nothing buffered returns from its step at once, and the
// dead-worm reaping and drop reconciliation run only once the fabric's kill
// flag records that some message was killed (Fabric.Kill, or a router's own
// kill through the shared flag).
package network

import (
	"fmt"

	"mediaworm/internal/core"
	"mediaworm/internal/flit"
	"mediaworm/internal/obs"
	"mediaworm/internal/sim"
)

// Fabric is a set of routers, NIs and sinks sharing one clock.
type Fabric struct {
	Engine *sim.Engine //mw:snapcover — clock serialized by the top-level secClock section
	Period sim.Time    //mw:snapcover — derived from router config at construction

	Routers []*core.Router //mw:snapcover — serialized element-wise by the secRouters checkpoint section
	NIs     []*NI          //mw:snapcover — serialized element-wise by the secNIs checkpoint section
	Sinks   []*Sink        //mw:snapcover — serialized element-wise by the secSinks checkpoint section

	work     int64 // flits currently inside the fabric (NI queues included)
	tickerOn bool
	lastTick sim.Time
	tickFn   func()    //mw:snapcover — cached method value, recreated at construction
	tickEv   sim.Event //mw:snapcover — calendar key serialized by EncodeState; re-armed via ScheduleRestored

	// killed is the fabric-wide kill flag: every router shares it, NIs read
	// it, and the first message kill raises it for good. Until then no
	// message is dead, so nothing needs reaping and no drop reconciling.
	killed bool //mw:snapcover — derived on restore from the message table's dead messages

	// links records router-to-router wiring: output (router, port) → input
	// (router, port). The watchdog follows it to chain blocked worms across
	// routers into a wait-for cycle.
	links map[linkKey]linkKey //mw:snapcover — static wiring, rebuilt by Connect

	// Fault/resilience state. Drops are reconciled against work each cycle:
	// routers and NIs count reaped flits, and the fabric subtracts the
	// growth of their total so injected = delivered + dropped + in-flight
	// always holds.
	lastDrops uint64

	// Watchdog state (SetWatchdog). lastMotion snapshots the fabric-wide
	// progress counter; idleTicks counts cycles with work but no motion.
	watchdogLimit   int    //mw:snapcover — watchdog state; fault runs refuse checkpoints
	watchdogRecover bool   //mw:snapcover — watchdog state; fault runs refuse checkpoints
	lastMotion      uint64 //mw:snapcover — watchdog state; fault runs refuse checkpoints
	idleTicks       int    //mw:snapcover — watchdog state; fault runs refuse checkpoints

	// Deadlock is the first watchdog report (nil if it never tripped);
	// Deadlocks counts trips, DeadlocksBroken recovery kills.
	Deadlock        *DeadlockReport //mw:snapcover — deadlock reporting; fault runs refuse checkpoints
	Deadlocks       int             //mw:snapcover — deadlock reporting; fault runs refuse checkpoints
	DeadlocksBroken int             //mw:snapcover — deadlock reporting; fault runs refuse checkpoints
	// OnDeadlock, if set, observes every watchdog trip.
	OnDeadlock func(*DeadlockReport) //mw:snapcover — observer callback, rewired by the embedding run

	// trc is the routers' observability sink (nil = tracing disabled),
	// taken by AddRouter: NI arbitrations, injections, ejections and
	// watchdog verdicts are traced, and the tracer's periodic metrics
	// snapshots are driven from the fabric's cycle.
	trc *obs.Tracer //mw:snapcover — tracing refuses checkpoints

	// epa backs NI/sink state with struct-of-arrays slabs.
	epa *EndpointArena //mw:snapcover — construction-time backing store; carving happens only in AttachEndpoint
}

type linkKey struct {
	r    *core.Router
	port int
}

// NewFabric creates an empty fabric with the given cycle period, with
// struct-of-arrays endpoint slabs sized for `endpoints` endpoints whose
// injection interfaces run `vcs` virtual channels each.
func NewFabric(engine *sim.Engine, period sim.Time, endpoints, vcs int) *Fabric {
	if period <= 0 {
		panic("network: non-positive period")
	}
	f := &Fabric{Engine: engine, Period: period, lastTick: -1, links: make(map[linkKey]linkKey),
		epa: NewEndpointArena(endpoints, vcs)}
	f.tickFn = f.tick
	return f
}

// AddRouter registers a router with the fabric, shares the fabric's kill
// flag with it and takes its tracer, which the endpoints attached after it
// trace into. Routers step in registration order each cycle, so
// registration order is part of the deterministic model.
func (f *Fabric) AddRouter(r *core.Router) {
	r.ShareKillFlag(&f.killed)
	f.trc = r.Config().Tracer
	f.Routers = append(f.Routers, r)
}

// Kill marks msg dead and raises the fabric's kill flag, so every router
// and NI reaps its worm from the next cycle. It is the fabric's kill entry
// point — the retransmission timeout and watchdog recovery kill through it
// — beside each router's own kills of messages that lose their route or
// link, which raise the same flag.
func (f *Fabric) Kill(msg *flit.Message) {
	msg.Kill()
	f.killed = true
}

// AttachEndpoint wires endpoint node onto router r's port p: a fresh NI
// feeding the input side and a fresh Sink consuming the output side.
func (f *Fabric) AttachEndpoint(r *core.Router, port, node int) (*NI, *Sink) {
	sink := &carve(&f.epa.sinks, 1)[0]
	sink.fab, sink.Node, sink.router, sink.port = f, node, r.ID(), port
	sink.pc = &r.PortCounters()[port]
	vcs := r.Config().VCs
	sink.vcc = r.VCCounters()[port*vcs : (port+1)*vcs]
	r.Connect(port, sink, true)
	ni := newNI(f, r, port, node)
	f.NIs = append(f.NIs, ni)
	f.Sinks = append(f.Sinks, sink)
	return ni, sink
}

// Link connects router a's output port ap to router b's input port bp
// (one direction; call twice for a bidirectional channel).
func (f *Fabric) Link(a *core.Router, ap int, b *core.Router, bp int) {
	a.Connect(ap, &routerInput{r: b, port: bp}, false)
	f.links[linkKey{a, ap}] = linkKey{b, bp}
}

// routerInput adapts a router's input port to the core.Consumer interface.
type routerInput struct {
	r    *core.Router
	port int
}

func (ri *routerInput) Full() *uint64              { return ri.r.InputFull(ri.port) }
func (ri *routerInput) Accept(vc int, f flit.Flit) { ri.r.Deliver(ri.port, vc, f) }

// addWork accounts flits entering the fabric and wakes the cycle driver.
func (f *Fabric) addWork(flits int) {
	f.work += int64(flits)
	f.wake()
}

// wake (re)starts the cycle driver aligned to the next cycle boundary.
func (f *Fabric) wake() {
	if f.tickerOn {
		return
	}
	f.tickerOn = true
	now := f.Engine.Now()
	next := now - now%f.Period
	if next < now || f.lastTick == next {
		next += f.Period
	}
	f.tickEv = f.Engine.At(next, f.tickFn)
}

// Wake restarts the cycle driver if it is dormant — the fault injector calls
// it when lifting a stall or restoring a link so a watchdog-stopped fabric
// resumes.
func (f *Fabric) Wake() {
	if f.work > 0 {
		f.wake()
	}
}

// tick advances the whole fabric one cycle: routers first (in registration
// order), then NIs. Credits freed by a router's switch traversal are visible
// to NIs within the same cycle; flits put on wires arrive next cycle.
func (f *Fabric) tick() {
	now := f.Engine.Now()
	f.lastTick = now
	for _, r := range f.Routers {
		r.Step(now)
	}
	for _, ni := range f.NIs {
		ni.step(now)
	}
	f.reconcileDrops()
	f.trc.Tick(now)
	if f.watchdogLimit > 0 && f.work > 0 && f.watchdogTrip(now) {
		f.tickerOn = false
		return
	}
	if f.work > 0 {
		// Rearm the firing tick in place: same slot, same callback, no
		// allocation. A dormant fabric drops the event; wake arms a new one.
		f.tickEv = f.Engine.Reschedule(f.tickEv, now+f.Period)
	} else {
		f.tickerOn = false
	}
}

// reconcileDrops subtracts newly reaped flits (dead-message unraveling,
// corruption, unroutable kills) from the in-flight work counter. Routers and
// NIs own the drop counters; the fabric only reads the growth of their
// total, so every drop path shares one accounting surface. Every drop
// follows a kill, so before the first one there is nothing to read.
func (f *Fabric) reconcileDrops() {
	if !f.killed {
		return
	}
	d := f.DroppedFlits()
	f.work -= int64(d - f.lastDrops)
	f.lastDrops = d
	if f.work < 0 {
		panic("network: flit conservation violated (work went negative)")
	}
}

// DroppedFlits returns the total flits reaped so far across routers and NIs.
// reconcileDrops calls it every cycle, so it sums the routers' port blocks,
// never their VC blocks.
func (f *Fabric) DroppedFlits() uint64 {
	var total uint64
	for _, r := range f.Routers {
		for _, c := range r.PortCounters() {
			total += c.Dropped
		}
	}
	for _, ni := range f.NIs {
		total += ni.Dropped
	}
	return total
}

// Work returns the number of flits currently inside the fabric.
func (f *Fabric) Work() int64 { return f.work }

// CheckDrained verifies the conservation invariant after a drained run:
// no work, every router quiesced, every NI empty. It returns an error
// describing the first violation.
func (f *Fabric) CheckDrained() error {
	if f.work != 0 {
		return fmt.Errorf("network: %d flits unaccounted for", f.work)
	}
	for i, r := range f.Routers {
		if !r.Quiesced() {
			return fmt.Errorf("network: router %d not quiesced", i)
		}
	}
	for i, ni := range f.NIs {
		if !ni.Empty() {
			return fmt.Errorf("network: NI %d not empty", i)
		}
	}
	return nil
}
