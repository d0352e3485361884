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
// progress, the FCFS request queues, arbiter state, virtual clocks, fault
// flags, and counters. Scratch buffers (candidate slices, claim maps) are
// per-cycle and never live across an event, so they are not state; nor are
// the occupancy and phase masks, which a restore derives from the VC
// tables, or the stage-3 retry flags, which a restore raises on every
// port. The wire format is layout-independent: the struct-of-arrays tables
// serialize in the same (port, vc) nesting order as the original
// per-object layout, and the request arena lists serialize as their FIFO
// walk.

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
	for p := range r.portStats {
		w.U64(r.portStats[p].FlitsDropped)
		w.U64(r.portStats[p].StallCycles)
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
		}
	}
	for p := 0; p < len(r.outs); p++ {
		op := &r.outs[p]
		if err := sched.EncodeArbiter(w, op.arb); err != nil {
			return err
		}
		w.Int(int(op.reqLen))
		for n := op.reqHead; n >= 0; n = r.reqNodes[n].next {
			node := &r.reqNodes[n]
			w.Int(int(node.in) / r.nvc)
			w.Int(int(node.in) % r.nvc)
			w.Time(node.at)
			w.U64(node.seq)
		}
		w.Int(int(op.stale))
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
	for p := range r.portStats {
		r.portStats[p].FlitsDropped = rd.U64()
		r.portStats[p].StallCycles = rd.U64()
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
			if in.phase != vcIdle && (in.outPort < 0 || in.outPort >= r.cfg.Ports ||
				in.outVC < 0 || in.outVC >= r.cfg.VCs) {
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
	for p := 0; p < len(r.outs); p++ {
		op := &r.outs[p]
		if err := sched.RestoreArbiter(rd, op.arb); err != nil {
			return fmt.Errorf("router %d output port %d: %w", r.cfg.ID, p, err)
		}
		nreqs := rd.Len()
		// Reset the port's request list into the arena free list before
		// rebuilding it from the snapshot.
		for n := op.reqHead; n >= 0; {
			next := r.reqNodes[n].next
			r.freeReq(n)
			n = next
		}
		op.reqHead, op.reqTail = -1, -1
		op.reqLen = 0
		op.retry = true
		for i := 0; i < nreqs; i++ {
			inPort := rd.Int()
			vc := rd.Int()
			at := rd.Time()
			seq := rd.U64()
			if err := rd.Err(); err != nil {
				return err
			}
			if inPort < 0 || inPort >= r.cfg.Ports || vc < 0 || vc >= r.cfg.VCs {
				return &snapshot.InvariantError{
					Invariant: "request-origin",
					Detail:    fmt.Sprintf("router %d out[%d] request %d: in %d/%d", r.cfg.ID, p, i, inPort, vc),
				}
			}
			n := r.allocReq()
			r.reqNodes[n] = reqNode{in: int32(inPort*r.nvc + vc), next: -1, at: at, seq: seq}
			r.pushReq(op, n)
		}
		stale := rd.Int()
		if err := rd.Err(); err != nil {
			return err
		}
		if stale < 0 || stale > nreqs {
			return &snapshot.InvariantError{
				Invariant: "request-queue",
				Detail:    fmt.Sprintf("router %d out[%d]: %d stale of %d requests", r.cfg.ID, p, stale, nreqs),
			}
		}
		op.stale = int32(stale)
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
	// The occupancy and phase masks are derived from the VC tables just
	// restored.
	for i := range r.inv {
		r.markIn(&r.inv[i])
	}
	for i := range r.outv {
		r.markOut(i/r.nvc, i%r.nvc)
	}
	return rd.Err()
}

func encodeStats(w *snapshot.Writer, s *Stats) {
	w.U64(s.FlitsSwitched)
	w.U64(s.FlitsTransmitted)
	w.U64(s.MessagesRouted)
	w.U64(s.RequestsQueued)
	w.U64(s.FlitsDropped)
	w.U64(s.MessagesKilled)
	w.U64(s.BlockedNotGranted)
	w.U64(s.BlockedJustMoved)
	w.U64(s.BlockedStageFull)
	w.U64(s.BlockedClaimed)
	w.U64(s.GrantWait)
	w.U64(s.GrantWaitCount)
}

func restoreStats(rd *snapshot.Reader, s *Stats) {
	s.FlitsSwitched = rd.U64()
	s.FlitsTransmitted = rd.U64()
	s.MessagesRouted = rd.U64()
	s.RequestsQueued = rd.U64()
	s.FlitsDropped = rd.U64()
	s.MessagesKilled = rd.U64()
	s.BlockedNotGranted = rd.U64()
	s.BlockedJustMoved = rd.U64()
	s.BlockedStageFull = rd.U64()
	s.BlockedClaimed = rd.U64()
	s.GrantWait = rd.U64()
	s.GrantWaitCount = rd.U64()
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
