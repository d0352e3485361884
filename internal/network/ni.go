package network

import (
	"math/bits"

	"mediaworm/internal/core"
	"mediaworm/internal/flit"
	"mediaworm/internal/obs"
	"mediaworm/internal/police"
	"mediaworm/internal/sched"
	"mediaworm/internal/sim"
)

// msgQueue is an unbounded FIFO of messages with amortized O(1) operations.
type msgQueue struct {
	buf  []*flit.Message
	head int
}

func (q *msgQueue) push(m *flit.Message) { q.buf = append(q.buf, m) }
func (q *msgQueue) empty() bool          { return q.head == len(q.buf) }
func (q *msgQueue) peek() *flit.Message  { return q.buf[q.head] }
func (q *msgQueue) len() int             { return len(q.buf) - q.head }

func (q *msgQueue) pop() *flit.Message {
	m := q.buf[q.head]
	q.buf[q.head] = nil
	q.head++
	if q.head > 64 && q.head*2 >= len(q.buf) {
		n := copy(q.buf, q.buf[q.head:])
		q.buf = q.buf[:n]
		q.head = 0
	}
	return m
}

// niVC is one virtual channel's injection queue at a network interface.
type niVC struct {
	q    msgQueue
	sent int // flits of the head message already transmitted
	clk  sched.VClock
	// pending caches the Virtual Clock timestamp of the next flit.
	pendingTS   sim.Time
	havePending bool
}

// NI is a source network interface: per-VC unbounded injection queues
// multiplexed onto the node→router physical channel one flit per cycle.
// The injection link's VC multiplexer runs the same scheduling policy as the
// router (see DESIGN.md §7: the paper leaves source serialization
// unspecified; this models the upstream node's stage 5).
type NI struct {
	fab    *Fabric      //mw:snapcover — static wiring, set by newNI
	router *core.Router //mw:snapcover — static wiring, set by newNI
	port   int          //mw:snapcover — static wiring, set by newNI
	// Node is the endpoint identifier this NI injects for.
	Node int //mw:snapcover — endpoint identity, set by newNI
	vcs  []niVC
	// backlog has bit v set while VC v's injection queue is non-empty, so a
	// step visits only backlogged VCs.
	backlog uint64 //mw:snapcover — derived from the restored queues
	// full is the router's input full mask for the NI's port: a step offers
	// only the backlogged VCs whose bit is clear, the ones with credit.
	full *uint64 //mw:snapcover — points into the router's masks, which a restore rebuilds
	arb  sched.Arbiter
	// cands is the arbitration scratch buffer, reused every cycle so the
	// hot path does not allocate.
	cands []sched.Candidate //mw:snapcover — per-cycle scratch

	// Stalls counts cycles where messages were queued but no flit could be
	// sent because every backlogged VC lacked router credit (link waste —
	// instrumentation for tests and capacity analysis).
	Stalls uint64
	// Sent counts transmitted flits.
	Sent uint64
	// Dropped counts flits of dead messages reaped from the injection queues
	// before transmission. The fabric reconciles it against work each cycle.
	Dropped uint64
	// RTFlits and BEFlits count injected flits per class — the offered-load
	// signal dynamic VC partitioning reads.
	RTFlits, BEFlits uint64

	// pol, if set, polices real-time injections: the srTCM meter colors each
	// message by conformance and the WRED dropper may discard it before it
	// ever occupies a virtual channel. Dropped messages never enter the
	// fabric's work ledger — their frames just never finish reassembly.
	pol *police.Policer //mw:snapcover — dynamic state encoded via police.Policer.EncodeState
	// queued tracks the flits currently waiting in the injection queues —
	// the dropper's backlog signal, maintained incrementally so Inject stays
	// O(1).
	queued int //mw:snapcover — recomputed from the restored queues
	// MeterExceed and MeterViolate count real-time messages colored yellow
	// and red by the meter.
	MeterExceed, MeterViolate uint64

	// pc and vcc are the router's counter blocks for this NI's port: the NI
	// counts its injections, policing drops and Virtual Clock stamps there.
	pc  *obs.PortCounters //mw:snapcover — points into the router's blocks, which the router serializes
	vcc []obs.VCCounters  //mw:snapcover — points into the router's blocks, which the router serializes

	// retx, if set, tracks injected messages for end-to-end retransmission.
	retx *Retransmitter //mw:snapcover — nil when checkpointing: fault runs refuse checkpoints

	// trc is the fabric's observability sink (nil = disabled); blocked
	// tracks the open no-credit blocking span on the injection link.
	trc     *obs.Tracer //mw:snapcover — tracing refuses checkpoints
	blocked bool        //mw:snapcover — open blocking span; tracing refuses checkpoints
}

func newNI(f *Fabric, r *core.Router, port, node int) *NI {
	cfg := r.Config()
	ni := &carve(&f.epa.nis, 1)[0]
	ni.fab, ni.router, ni.port, ni.Node = f, r, port, node
	ni.full = r.InputFull(port)
	ni.pc = &r.PortCounters()[port]
	ni.vcc = r.VCCounters()[port*cfg.VCs : (port+1)*cfg.VCs]
	ni.vcs = carve(&f.epa.vcs, cfg.VCs)
	ni.arb = sched.NewArbiter(cfg.Policy, cfg.Sched)
	ni.cands = carve(&f.epa.cands, cfg.VCs)[:0]
	ni.trc = f.trc
	return ni
}

// Inject queues a whole message on input VC vc at the current instant.
// The caller must have set msg.Injected, msg.Vtick and msg.Flits.
// Under policing, a real-time message may be discarded here — before it is
// queued, before it enters the work ledger — in which case its frame never
// finishes reassembly at the sink and shows up in the delivered-frame ratio.
func (n *NI) Inject(vc int, msg *flit.Message) {
	if msg.Flits <= 0 {
		panic("network: message with no flits")
	}
	if n.pol != nil && msg.Class.RealTime() {
		color, drop := n.pol.Admit(msg.Injected, msg.Flits, n.queued)
		switch color {
		case police.Green:
			// Conforming traffic passes uncounted.
		case police.Yellow:
			n.MeterExceed++
		case police.Red:
			n.MeterViolate++
		}
		if drop {
			n.pc.PoliceDrops++
			if n.trc != nil {
				n.trc.Emit(obs.Event{At: msg.Injected, Kind: obs.EvPolice,
					Router: int16(n.router.ID()), Port: int16(n.port), VC: int16(vc),
					Msg: msg.ID, Class: msg.Class, Arg: int64(color), Seq: int32(msg.Flits)})
			}
			return
		}
	}
	if msg.Class.RealTime() {
		n.RTFlits += uint64(msg.Flits)
	} else {
		n.BEFlits += uint64(msg.Flits)
	}
	n.queued += msg.Flits
	n.vcs[vc].q.push(msg)
	n.backlog |= 1 << uint(vc)
	n.pc.Injected++
	if n.trc != nil {
		n.trc.Emit(obs.Event{At: msg.Injected, Kind: obs.EvInject,
			Router: int16(n.router.ID()), Port: int16(n.port), VC: int16(vc),
			Msg: msg.ID, Class: msg.Class, Arg: int64(msg.Dst), Seq: int32(msg.Flits)})
	}
	n.fab.addWork(msg.Flits)
	if n.retx != nil {
		n.retx.track(n, vc, msg)
	}
}

// SetPolicyParams replaces the injection link's scheduling discipline (by
// default the NI follows the router's policy) with explicit weight/tier
// parameters. Call before traffic starts.
func (n *NI) SetPolicyParams(k sched.Kind, p sched.Params) {
	if p.VCs == 0 {
		p.VCs = len(n.vcs)
	}
	n.arb = sched.NewArbiter(k, p)
}

// SetPolicer installs the injection-point meter→dropper chain (nil disables
// policing). Call before traffic starts.
func (n *NI) SetPolicer(p *police.Policer) { n.pol = p }

// PoliceDrops returns the real-time messages the dropper discarded at
// injection, counted in the router's block for the NI's port.
func (n *NI) PoliceDrops() uint64 { return n.pc.PoliceDrops }

// traceStall opens or closes the injection link's no-credit blocking span.
func (n *NI) traceStall(now sim.Time, stalled bool) {
	if n.trc == nil || n.blocked == stalled {
		return
	}
	n.blocked = stalled
	kind := obs.EvUnblock
	if stalled {
		kind = obs.EvBlock
	}
	n.trc.Emit(obs.Event{At: now, Kind: kind, Cause: obs.CauseNoCredit,
		Router: int16(n.router.ID()), Port: int16(n.port), VC: -1})
}

// Backlog returns the number of messages queued across all VCs.
func (n *NI) Backlog() int {
	total := 0
	for v := range n.vcs {
		total += n.vcs[v].q.len()
	}
	return total
}

// Empty reports whether all injection queues have drained.
func (n *NI) Empty() bool { return n.backlog == 0 }

// markVC recomputes VC v's backlog bit from its queue.
func (n *NI) markVC(v int) {
	if n.vcs[v].q.empty() {
		n.backlog &^= 1 << uint(v)
	} else {
		n.backlog |= 1 << uint(v)
	}
}

// reap drops dead head messages from VC v's injection queue: the flits not
// yet transmitted are counted in Dropped (the router reaps the ones already
// on the wire). Dead messages deeper in the queue are reaped lazily when
// they reach the head.
func (n *NI) reap(v int) {
	nv := &n.vcs[v]
	for !nv.q.empty() && nv.q.peek().Dead {
		msg := nv.q.pop()
		n.Dropped += uint64(msg.Flits - nv.sent)
		n.queued -= msg.Flits - nv.sent
		nv.sent = 0
		nv.havePending = false
	}
	n.markVC(v)
}

// step transmits at most one flit onto the injection link this cycle,
// visiting only backlogged VCs with router credit. An NI with no backlog
// returns at once: the step that emptied it already closed any open
// blocking span. Once the kill flag is up, every backlogged VC is reaped
// first; the reaps are independent per VC, so the offers are the same as
// reaping each VC just before it is offered.
//
//mw:hotpath
func (n *NI) step(now sim.Time) {
	if n.backlog == 0 {
		return
	}
	if n.fab.killed {
		for w := n.backlog; w != 0; w &= w - 1 {
			n.reap(bits.TrailingZeros64(w))
		}
	}
	n.cands = n.cands[:0]
	for w := n.backlog &^ *n.full; w != 0; w &= w - 1 {
		v := bits.TrailingZeros64(w)
		nv := &n.vcs[v]
		head := nv.q.peek()
		if !nv.havePending {
			if nv.sent == 0 {
				nv.clk.Reset()
			}
			// All flits of a message "arrive" at this contention point at
			// the injection instant, so the clock argument is Injected.
			nv.pendingTS = nv.clk.Stamp(head.Injected, head.Vtick)
			nv.havePending = true
			n.vcc[v].VCTicks++
			if n.trc != nil {
				n.trc.Emit(obs.Event{At: now, Kind: obs.EvVCTick,
					Router: int16(n.router.ID()), Port: int16(n.port), VC: int16(v),
					Msg: head.ID, Class: head.Class, Seq: int32(nv.sent),
					Arg: obs.TSArg(nv.pendingTS)})
			}
		}
		n.cands = append(n.cands, sched.Candidate{VC: v, TS: nv.pendingTS, Enq: head.Injected, Seq: uint64(v)})
	}
	if len(n.cands) == 0 {
		if n.backlog != 0 {
			n.Stalls++
			n.traceStall(now, true)
		} else {
			n.traceStall(now, false)
		}
		return
	}
	n.traceStall(now, false)
	n.Sent++
	i := n.arb.Pick(n.cands)
	if n.trc != nil {
		n.trc.Emit(obs.Event{At: now, Kind: obs.EvPickSource,
			Router: int16(n.router.ID()), Port: int16(n.port), VC: int16(n.cands[i].VC),
			Arg: obs.TSArg(n.cands[i].TS), Seq: int32(len(n.cands))})
	}
	w := n.cands[i].VC
	nv := &n.vcs[w]
	msg := nv.q.peek()
	f := flit.Flit{Msg: msg, Seq: nv.sent, TS: nv.pendingTS, Enq: now + n.fab.Period}
	n.router.Deliver(n.port, w, f)
	nv.sent++
	n.queued--
	nv.havePending = false
	if nv.sent == msg.Flits {
		nv.q.pop()
		nv.sent = 0
		n.markVC(w)
	}
}
