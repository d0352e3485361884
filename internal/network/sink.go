package network

import (
	"mediaworm/internal/flit"
	"mediaworm/internal/obs"
	"mediaworm/internal/sim"
)

// Sink is an endpoint's receive side. It consumes one flit per cycle from
// the router's output link (it always has credit, like the paper's endpoint
// model), reassembles frames, and reports deliveries to the measurement
// layer.
type Sink struct {
	fab *Fabric //mw:snapcover — static wiring, set at construction
	// Node is the endpoint identifier.
	Node int //mw:snapcover — endpoint identity, set at construction
	// router/port locate the output port feeding this sink, for tracing;
	// pc is the router's counter block for that port, where the sink counts
	// its ejections, and vcc the port's VC blocks, whose Transmitted counts
	// are the flits the sink has consumed.
	router, port int               //mw:snapcover — static trace coordinates, set at construction
	pc           *obs.PortCounters //mw:snapcover — points into the router's blocks, which the router serializes
	vcc          []obs.VCCounters  //mw:snapcover — points into the router's blocks, which the router serializes
	// frames maps (stream, frame) to the number of messages still missing.
	frames map[uint64]int

	// retx, if set, is acknowledged on every tail arrival so the
	// retransmission layer can cancel the message's timeout.
	retx *Retransmitter //mw:snapcover — nil when checkpointing: fault runs refuse checkpoints

	// OnFrame, if set, is called when the last flit of a frame's last
	// outstanding message arrives: the paper's frame delivery instant.
	OnFrame func(stream, frame int, t sim.Time) //mw:snapcover — observer callback, rewired by NewSim on restore
	// OnMessage, if set, is called on every completed message (tail
	// arrival), real-time and best-effort alike.
	OnMessage func(m *flit.Message, t sim.Time) //mw:snapcover — observer callback, rewired by NewSim on restore
}

func frameKey(stream, frame int) uint64 {
	return uint64(uint32(stream))<<32 | uint64(uint32(frame))
}

// noneFull is the full mask of every sink: an endpoint always accepts.
// Nothing writes it.
var noneFull uint64

// Full implements core.Consumer: the endpoint always accepts, so every
// sink shares one all-zero mask.
func (s *Sink) Full() *uint64 { return &noneFull }

// Accept implements core.Consumer.
func (s *Sink) Accept(vc int, f flit.Flit) {
	s.fab.work--
	if !f.IsTail() {
		return
	}
	s.pc.Ejected++
	m := f.Msg
	t := f.Enq // arrival instant at the endpoint
	if s.fab.trc != nil {
		// Stamp with the fabric tick during which the tail crossed the link,
		// not the (future) arrival instant t: per-lane timestamps must stay
		// non-decreasing in emission order, and other same-tick events share
		// this port's lane. The true end-to-end latency rides in Arg.
		s.fab.trc.Emit(obs.Event{At: s.fab.lastTick, Kind: obs.EvEject,
			Router: int16(s.router), Port: int16(s.port), VC: int16(vc),
			Msg: m.ID, Class: m.Class, Seq: int32(m.FrameSeq),
			Arg: int64(t - m.Injected)})
		s.fab.trc.ObserveLatency(m.Class, t-m.Injected)
	}
	if s.retx != nil {
		s.retx.ack(m)
	}
	if s.OnMessage != nil {
		s.OnMessage(m, t)
	}
	if !m.Class.RealTime() {
		return
	}
	key := frameKey(m.StreamID, m.FrameSeq)
	rem, ok := s.frames[key]
	if !ok {
		rem = m.MsgsInFrame
	}
	rem--
	if rem == 0 {
		delete(s.frames, key)
		if s.OnFrame != nil {
			s.OnFrame(m.StreamID, m.FrameSeq, t)
		}
		return
	}
	if s.frames == nil {
		// Lazy: most endpoints of a large fabric never reassemble a frame,
		// and the restore path builds its own map.
		s.frames = make(map[uint64]int)
	}
	s.frames[key] = rem
}

// MessagesReceived returns the completed messages, counted in the router's
// block for the sink's port.
func (s *Sink) MessagesReceived() uint64 { return s.pc.Ejected }

// FlitsReceived returns the flits consumed: every flit the router
// transmits on the sink's port, counted in the port's VC blocks.
func (s *Sink) FlitsReceived() uint64 {
	var n uint64
	for i := range s.vcc {
		n += s.vcc[i].Transmitted
	}
	return n
}

// PendingFrames returns the number of partially delivered frames.
func (s *Sink) PendingFrames() int { return len(s.frames) }

// DeadEnd terminates an intentionally unused output port: it never grants
// credit, and receiving a flit anyway panics, so wiring bugs fail loudly.
type DeadEnd struct{}

// allFull is the full mask of every dead end: no VC ever has credit.
// Nothing writes it.
var allFull = ^uint64(0)

// Full implements core.Consumer: every VC is full.
func (DeadEnd) Full() *uint64 { return &allFull }

// Accept implements core.Consumer.
func (DeadEnd) Accept(int, flit.Flit) { panic("network: flit on an unused port") }
