package network

import (
	"mediaworm/internal/flit"
	"mediaworm/internal/obs"
	"mediaworm/internal/sim"
)

// Retransmitter provides NI-level end-to-end message recovery: every injected
// message is tracked until its tail flit reaches the destination sink. If the
// acknowledgement does not arrive within the timeout, the in-flight attempt
// is killed (its worm unravels, reclaiming buffers and VCs) and a fresh copy
// is injected at the same NI. The timeout grows by capped exponential backoff
// per attempt, and after MaxAttempts the message is abandoned.
//
// The model is deliberately idealized — acknowledgements are free and instant
// (the simulated fabric's delivery event IS the ack) — because the object of
// study is the fabric's QoS under faults, not an ack protocol.
type Retransmitter struct {
	engine *sim.Engine

	// Timeout is the base end-to-end delivery deadline for attempt 0.
	Timeout sim.Time
	// MaxTimeout caps the exponential backoff (0 means uncapped).
	MaxTimeout sim.Time
	// MaxAttempts bounds total tries per message (first send included).
	// After MaxAttempts timeouts the message is abandoned.
	MaxAttempts int

	// Retransmissions counts resends; Abandoned counts messages given up on;
	// Recovered counts messages delivered on a retry (Attempt > 0).
	Retransmissions uint64
	Abandoned       uint64
	Recovered       uint64

	pending map[uint64]*retxState
}

// retxState tracks one in-flight message (the current attempt only).
type retxState struct {
	ni    *NI
	vc    int
	msg   *flit.Message
	timer sim.Event
}

// NewRetransmitter creates a retransmitter and attaches it to every NI and
// sink currently registered with the fabric. Call after the fabric is wired
// and before traffic starts.
func NewRetransmitter(f *Fabric, timeout sim.Time, maxAttempts int) *Retransmitter {
	if timeout <= 0 {
		panic("network: non-positive retransmission timeout")
	}
	if maxAttempts < 1 {
		panic("network: retransmitter needs at least one attempt")
	}
	rt := &Retransmitter{
		engine:      f.Engine,
		Timeout:     timeout,
		MaxTimeout:  timeout * 8,
		MaxAttempts: maxAttempts,
		pending:     make(map[uint64]*retxState),
	}
	for _, ni := range f.NIs {
		ni.retx = rt
	}
	for _, sink := range f.Sinks {
		sink.retx = rt
	}
	return rt
}

// Pending returns the number of messages awaiting acknowledgement.
func (rt *Retransmitter) Pending() int { return len(rt.pending) }

// timeoutFor returns the deadline for the given attempt number, with
// exponential backoff capped at MaxTimeout.
func (rt *Retransmitter) timeoutFor(attempt int) sim.Time {
	t := rt.Timeout
	for i := 0; i < attempt; i++ {
		t *= 2
		if rt.MaxTimeout > 0 && t >= rt.MaxTimeout {
			return rt.MaxTimeout
		}
	}
	return t
}

// track registers an injected message and arms its delivery timer. Called by
// NI.Inject for both original sends and resends (the resend path re-enters
// Inject), so an existing entry for the ID is simply rearmed.
func (rt *Retransmitter) track(ni *NI, vc int, msg *flit.Message) {
	st := rt.pending[msg.ID]
	if st == nil {
		st = &retxState{}
		rt.pending[msg.ID] = st
	}
	st.ni, st.vc, st.msg = ni, vc, msg
	if st.timer.Scheduled() {
		// Rearm in place: the pending timer's callback already captures this
		// message ID, so the resend path costs no new closure.
		st.timer = rt.engine.Reschedule(st.timer, rt.engine.Now()+rt.timeoutFor(msg.Attempt))
		return
	}
	id := msg.ID
	st.timer = rt.engine.After(rt.timeoutFor(msg.Attempt), func() { rt.expire(id) })
}

// ack records a tail delivery: the message is done, its timer cancelled.
func (rt *Retransmitter) ack(msg *flit.Message) {
	st, ok := rt.pending[msg.ID]
	if !ok || st.msg != msg {
		// Unknown, or a stale attempt's tail (cannot normally happen — dead
		// worms are reaped before transmission — but be safe).
		return
	}
	rt.engine.Cancel(st.timer)
	delete(rt.pending, msg.ID)
	if msg.Attempt > 0 {
		rt.Recovered++
	}
}

// expire fires when a message's delivery deadline passes: kill the current
// attempt so its worm unravels, and either inject a fresh copy or abandon.
func (rt *Retransmitter) expire(id uint64) {
	st, ok := rt.pending[id]
	if !ok {
		return
	}
	st.timer = sim.Event{}
	st.ni.fab.Kill(st.msg)
	st.ni.pc.Killed++
	trc := st.ni.trc
	if trc != nil {
		trc.Emit(obs.Event{At: rt.engine.Now(), Kind: obs.EvKill,
			Cause: obs.CauseTimeout, Router: int16(st.ni.router.ID()),
			Port: int16(st.ni.port), VC: int16(st.vc),
			Msg: st.msg.ID, Class: st.msg.Class, Seq: int32(st.msg.Attempt)})
	}
	// The kill leaves a worm to unravel; restart the cycle driver in case
	// the watchdog had stopped it.
	st.ni.fab.Wake()
	if st.msg.Attempt+1 >= rt.MaxAttempts {
		delete(rt.pending, id)
		rt.Abandoned++
		if trc != nil {
			trc.Emit(obs.Event{At: rt.engine.Now(), Kind: obs.EvAbandon,
				Router: int16(st.ni.router.ID()), Port: int16(st.ni.port),
				VC: int16(st.vc), Msg: st.msg.ID, Class: st.msg.Class,
				Seq: int32(st.msg.Attempt)})
		}
		return
	}
	rt.Retransmissions++
	st.ni.pc.Retransmits++
	if trc != nil {
		trc.Emit(obs.Event{At: rt.engine.Now(), Kind: obs.EvRetransmit,
			Router: int16(st.ni.router.ID()), Port: int16(st.ni.port),
			VC: int16(st.vc), Msg: st.msg.ID, Class: st.msg.Class,
			Seq: int32(st.msg.Attempt + 1)})
	}
	clone := *st.msg
	clone.Dead = false
	clone.Attempt++
	clone.Injected = rt.engine.Now()
	// Inject re-enters track, which rearms the timer with backoff.
	st.ni.Inject(st.vc, &clone)
}
