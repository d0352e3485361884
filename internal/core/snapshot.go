package core

import (
	"fmt"

	"mediaworm/internal/flit"
	"mediaworm/internal/sched"
	"mediaworm/internal/snapshot"
)

// Checkpoint support. The router's structural shape (ports, VCs, buffer
// capacities, crossbar kind, policy) is rebuilt from the run configuration;
// a snapshot carries only the mutable state: buffered flits, per-VC worm
// progress, each waiting header's request, arbiter state, virtual clocks,
// fault flags, and counters: the stored Stats fields, the stall cycles and
// the counter blocks. Scratch buffers (candidate slices, claim maps) are
// per-cycle and never live across an event, so they are not state; nor
// are the occupancy, stage-full, phase, input-full and target masks and
// the port summaries, which a restore derives from the VC tables, the
// fresh-head mask, which is zero between cycles, or the stage-3 retry flags,
// which a restore raises on every port. The wire format is
// layout-independent: the struct-of-arrays tables serialize in the same
// (port, vc) nesting order as the original per-object layout. A waiting
// header is recorded once, in its input VC: its phase, output port and
// request sequence number give each port's FCFS order, and its request
// instant follows them.

// CollectMessages registers every message the router holds a reference to.
func (r *Router) CollectMessages(tbl *flit.MsgTable) {
	for i := range r.inv {
		in := &r.inv[i]
		collectRing(tbl, &in.q)
		tbl.Add(in.recvMsg)
		tbl.Add(in.headMsg)
	}
	for i := range r.outv {
		ov := &r.outv[i]
		collectRing(tbl, &ov.stage)
		tbl.Add(ov.busy)
	}
}

func collectRing(tbl *flit.MsgTable, rg *ring) {
	for i := 0; i < rg.n; i++ {
		tbl.Add(rg.buf[(rg.head+i)%len(rg.buf)].Msg)
	}
}

// BufferedFlits counts the flits the router currently buffers (input VC
// rings plus output staging), for the fabric's flit-conservation audit.
func (r *Router) BufferedFlits() int {
	total := 0
	for i := range r.inv {
		total += r.inv[i].q.len()
	}
	for i := range r.outv {
		total += r.outv[i].stage.len()
	}
	return total
}

// EncodeState writes the router's mutable state. Messages must already be
// collected into tbl.
func (r *Router) EncodeState(w *snapshot.Writer, tbl *flit.MsgTable) error {
	w.U64(r.seq)
	w.Int(r.rtVCs)
	w.Time(r.now)
	encodeStats(w, &r.stats)
	for p := range r.pc {
		w.U64(r.stallCycles[p])
		r.pc[p].EncodeState(w)
	}
	for i := range r.vcc {
		r.vcc[i].EncodeState(w)
	}
	for p := range r.linkUp {
		w.Bool(r.linkUp[p])
		w.Bool(r.stalled[p])
	}
	for p := 0; p < len(r.outs); p++ {
		if err := sched.EncodeArbiter(w, r.inArbs[p]); err != nil {
			return err
		}
		for v := 0; v < r.nvc; v++ {
			in := r.inAt(p, v)
			encodeRing(w, tbl, &in.q)
			w.U64(tbl.Ref(in.recvMsg))
			w.Time(in.recvClk.Aux())
			w.Int(in.received)
			w.U8(uint8(in.phase))
			w.U64(tbl.Ref(in.headMsg))
			w.Int(in.outPort)
			w.Int(in.outVC)
			w.Time(in.grantedAt)
			w.U64(in.reqSeq)
			if in.phase == vcRequested {
				w.Time(in.reqAt)
			}
		}
	}
	for p := 0; p < len(r.outs); p++ {
		if err := sched.EncodeArbiter(w, r.outs[p].arb); err != nil {
			return err
		}
		for v := 0; v < r.nvc; v++ {
			ov := r.outAt(p, v)
			encodeRing(w, tbl, &ov.stage)
			w.U64(tbl.Ref(ov.busy))
			w.Time(ov.clk.Aux())
		}
	}
	return tbl.Err()
}

// RestoreState overwrites a freshly-built router's mutable state from rd.
// Buffer capacities double as the credit-conservation check: a snapshot
// claiming more flits in a buffer than the credit protocol could ever have
// admitted is rejected.
func (r *Router) RestoreState(rd *snapshot.Reader, tbl *flit.MsgTable) error {
	r.seq = rd.U64()
	rtVCs := rd.Int()
	r.now = rd.Time()
	restoreStats(rd, &r.stats)
	if err := rd.Err(); err != nil {
		return err
	}
	if rtVCs < 0 || rtVCs > r.cfg.VCs {
		return &snapshot.InvariantError{
			Invariant: "vc-partition",
			Detail:    fmt.Sprintf("router %d: rtVCs %d outside [0, %d]", r.cfg.ID, rtVCs, r.cfg.VCs),
		}
	}
	r.rtVCs = rtVCs
	for p := range r.pc {
		r.stallCycles[p] = rd.U64()
		r.pc[p].RestoreState(rd)
	}
	for i := range r.vcc {
		r.vcc[i].RestoreState(rd)
	}
	for p := range r.linkUp {
		r.setLinkFlag(p, rd.Bool())
		r.stalled[p] = rd.Bool()
	}
	for p := 0; p < len(r.outs); p++ {
		if err := sched.RestoreArbiter(rd, r.inArbs[p]); err != nil {
			return fmt.Errorf("router %d input port %d: %w", r.cfg.ID, p, err)
		}
		for v := 0; v < r.nvc; v++ {
			in := r.inAt(p, v)
			if err := restoreRing(rd, tbl, &in.q, fmt.Sprintf("router %d in[%d][%d]", r.cfg.ID, p, v)); err != nil {
				return err
			}
			var err error
			if in.recvMsg, err = tbl.Get(rd.U64()); err != nil {
				return err
			}
			sched.RestoreVClock(rd, &in.recvClk)
			in.received = rd.Int()
			phase := rd.U8()
			if in.headMsg, err = tbl.Get(rd.U64()); err != nil {
				return err
			}
			in.outPort = rd.Int()
			in.outVC = rd.Int()
			in.grantedAt = rd.Time()
			in.reqSeq = rd.U64()
			if vcPhase(phase) == vcRequested {
				in.reqAt = rd.Time()
			}
			if err := rd.Err(); err != nil {
				return err
			}
			if phase > uint8(vcActive) {
				return &snapshot.InvariantError{
					Invariant: "vc-phase",
					Detail:    fmt.Sprintf("router %d in[%d][%d]: phase %d", r.cfg.ID, p, v, phase),
				}
			}
			in.phase = vcPhase(phase)
			// Every VC's outPort indexes its target words, idle or not.
			if in.outPort < 0 || in.outPort >= r.cfg.Ports ||
				in.phase != vcIdle && (in.outVC < 0 || in.outVC >= r.cfg.VCs) {
				return &snapshot.InvariantError{
					Invariant: "crossbar-target",
					Detail: fmt.Sprintf("router %d in[%d][%d]: out port %d vc %d",
						r.cfg.ID, p, v, in.outPort, in.outVC),
				}
			}
			if in.recvMsg != nil && (in.received <= 0 || in.received >= in.recvMsg.Flits) {
				return &snapshot.InvariantError{
					Invariant: "worm-progress",
					Detail: fmt.Sprintf("router %d in[%d][%d]: received %d of %d-flit message",
						r.cfg.ID, p, v, in.received, in.recvMsg.Flits),
				}
			}
		}
	}
	// The masks and summaries are derived from the VC tables. markIn clears
	// a VC's target bit only in its current outPort's word, so the target
	// words start from zero, as do the fresh-head bits between cycles.
	clear(r.tgt)
	clear(r.fresh)
	for i := range r.inv {
		r.markIn(&r.inv[i])
	}
	for p := 0; p < len(r.outs); p++ {
		if err := sched.RestoreArbiter(rd, r.outs[p].arb); err != nil {
			return fmt.Errorf("router %d output port %d: %w", r.cfg.ID, p, err)
		}
		for v := 0; v < r.nvc; v++ {
			ov := r.outAt(p, v)
			if err := restoreRing(rd, tbl, &ov.stage, fmt.Sprintf("router %d out[%d][%d]", r.cfg.ID, p, v)); err != nil {
				return err
			}
			var err error
			if ov.busy, err = tbl.Get(rd.U64()); err != nil {
				return err
			}
			sched.RestoreVClock(rd, &ov.clk)
		}
	}
	for i := range r.outv {
		r.markOut(i/r.nvc, i%r.nvc)
	}
	r.retry = r.allPorts()
	return rd.Err()
}

// encodeStats writes the Stats fields the counter blocks do not derive.
func encodeStats(w *snapshot.Writer, s *Stats) {
	w.U64(s.FlitsSwitched)
	w.U64(s.FlitsTransmitted)
	w.U64(s.RequestsQueued)
	w.U64(s.MessagesKilled)
	w.U64(s.BlockedNotGranted)
	w.U64(s.BlockedJustMoved)
	w.U64(s.BlockedStageFull)
	w.U64(s.BlockedClaimed)
}

func restoreStats(rd *snapshot.Reader, s *Stats) {
	s.FlitsSwitched = rd.U64()
	s.FlitsTransmitted = rd.U64()
	s.RequestsQueued = rd.U64()
	s.MessagesKilled = rd.U64()
	s.BlockedNotGranted = rd.U64()
	s.BlockedJustMoved = rd.U64()
	s.BlockedStageFull = rd.U64()
	s.BlockedClaimed = rd.U64()
}

// encodeRing writes a flit FIFO oldest-first.
func encodeRing(w *snapshot.Writer, tbl *flit.MsgTable, rg *ring) {
	w.Int(rg.n)
	for i := 0; i < rg.n; i++ {
		tbl.EncodeFlit(w, rg.buf[(rg.head+i)%len(rg.buf)])
	}
}

// restoreRing refills a flit FIFO, enforcing its capacity — the credit
// protocol can never buffer more flits than the ring holds, so a snapshot
// claiming otherwise is corrupt.
func restoreRing(rd *snapshot.Reader, tbl *flit.MsgTable, rg *ring, what string) error {
	n := rd.Len()
	if err := rd.Err(); err != nil {
		return err
	}
	if n > len(rg.buf) {
		return &snapshot.InvariantError{
			Invariant: "credit-conservation",
			Detail:    fmt.Sprintf("%s: %d flits in a %d-slot buffer", what, n, len(rg.buf)),
		}
	}
	for i := range rg.buf {
		rg.buf[i] = flit.Flit{}
	}
	rg.head, rg.n = 0, 0
	for i := 0; i < n; i++ {
		f, err := tbl.DecodeFlit(rd)
		if err != nil {
			return fmt.Errorf("%s flit %d: %w", what, i, err)
		}
		rg.push(f)
	}
	return nil
}
