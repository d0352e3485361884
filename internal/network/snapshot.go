package network

import (
	"fmt"
	"sort"

	"mediaworm/internal/flit"
	"mediaworm/internal/sched"
	"mediaworm/internal/snapshot"
)

// Checkpoint support for the fabric layer: NI injection queues, sink
// reassembly state, and the cycle driver. The fault/watchdog/retransmission
// subsystems and tracing are not snapshottable in the current format
// (snapshot.Version); the top-level checkpoint gate refuses configs that
// enable them, and Fabric.EncodeState re-checks the watchdog and the
// tracer.

// CollectMessages registers every message referenced by the fabric's
// routers and NI injection queues.
func (f *Fabric) CollectMessages(tbl *flit.MsgTable) {
	for _, r := range f.Routers {
		r.CollectMessages(tbl)
	}
	for _, ni := range f.NIs {
		for v := range ni.vcs {
			q := &ni.vcs[v].q
			for i := q.head; i < len(q.buf); i++ {
				tbl.Add(q.buf[i])
			}
		}
	}
}

// BufferedFlits counts every flit the fabric currently accounts in work:
// queued-but-unsent NI flits plus router-buffered flits. After any
// completed cycle this must equal Work() — the flit-conservation audit a
// restore runs before trusting a snapshot.
func (f *Fabric) BufferedFlits() int64 {
	var total int64
	for _, r := range f.Routers {
		total += int64(r.BufferedFlits())
	}
	for _, ni := range f.NIs {
		total += ni.pendingFlits()
	}
	return total
}

// pendingFlits counts the flits of queued messages not yet put on the wire.
func (n *NI) pendingFlits() int64 {
	var total int64
	for v := range n.vcs {
		nv := &n.vcs[v]
		for i := nv.q.head; i < len(nv.q.buf); i++ {
			total += int64(nv.q.buf[i].Flits)
		}
		total -= int64(nv.sent)
	}
	return total
}

// EncodeState writes the fabric's own mutable state (not the routers',
// which encode themselves): the work counter, the cycle driver, and the
// drop-reconciliation baseline.
func (f *Fabric) EncodeState(w *snapshot.Writer) error {
	if f.watchdogLimit > 0 {
		return &snapshot.NotSnapshottableError{Feature: "deadlock watchdog"}
	}
	if f.trc != nil {
		return &snapshot.NotSnapshottableError{Feature: "trace capture"}
	}
	w.I64(f.work)
	w.Bool(f.tickerOn)
	w.Time(f.lastTick)
	if f.tickerOn {
		at, seq, ok := f.Engine.EventKey(f.tickEv)
		if !ok {
			return &snapshot.InvariantError{Invariant: "cycle-driver", Detail: "ticker on but tick event not pending"}
		}
		w.Time(at)
		w.U64(seq)
	}
	w.U64(f.lastDrops)
	return nil
}

// RestoreState overwrites the fabric's mutable state and re-arms the cycle
// driver at its checkpointed calendar key. The kill flag is derived from
// tbl, the restored message table: a dead message there still has a worm
// to reap.
func (f *Fabric) RestoreState(r *snapshot.Reader, tbl *flit.MsgTable) error {
	f.killed = tbl.AnyDead()
	f.work = r.I64()
	f.tickerOn = r.Bool()
	f.lastTick = r.Time()
	if err := r.Err(); err != nil {
		return err
	}
	if f.work < 0 {
		return &snapshot.InvariantError{
			Invariant: "flit-conservation",
			Detail:    fmt.Sprintf("negative in-flight work %d", f.work),
		}
	}
	if f.tickerOn {
		at := r.Time()
		seq := r.U64()
		if err := r.Err(); err != nil {
			return err
		}
		f.tickEv = f.Engine.ScheduleRestored(at, seq, f.tickFn)
	}
	f.lastDrops = r.U64()
	return r.Err()
}

// EncodeState writes one NI's mutable state. Messages must already be
// collected into tbl.
func (n *NI) EncodeState(w *snapshot.Writer, tbl *flit.MsgTable) error {
	if n.retx != nil {
		return &snapshot.NotSnapshottableError{Feature: "retransmission layer"}
	}
	if err := sched.EncodeArbiter(w, n.arb); err != nil {
		return err
	}
	for v := range n.vcs {
		nv := &n.vcs[v]
		w.Int(nv.q.len())
		for i := nv.q.head; i < len(nv.q.buf); i++ {
			w.U64(tbl.Ref(nv.q.buf[i]))
		}
		w.Int(nv.sent)
		sched.EncodeVClock(w, &nv.clk)
		w.Time(nv.pendingTS)
		w.Bool(nv.havePending)
	}
	w.U64(n.Stalls)
	w.U64(n.Sent)
	w.U64(n.Dropped)
	w.U64(n.RTFlits)
	w.U64(n.BEFlits)
	w.U64(n.MeterExceed)
	w.U64(n.MeterViolate)
	w.Bool(n.pol != nil)
	if n.pol != nil {
		n.pol.EncodeState(w)
	}
	return tbl.Err()
}

// RestoreState overwrites one NI's mutable state.
func (n *NI) RestoreState(r *snapshot.Reader, tbl *flit.MsgTable) error {
	if err := sched.RestoreArbiter(r, n.arb); err != nil {
		return fmt.Errorf("NI node %d: %w", n.Node, err)
	}
	for v := range n.vcs {
		nv := &n.vcs[v]
		qlen := r.Len()
		nv.q = msgQueue{}
		for i := 0; i < qlen; i++ {
			m, err := tbl.Get(r.U64())
			if err != nil {
				return err
			}
			if m == nil {
				return &snapshot.InvariantError{
					Invariant: "injection-queue",
					Detail:    fmt.Sprintf("NI node %d vc %d: nil message in queue", n.Node, v),
				}
			}
			nv.q.push(m)
		}
		nv.sent = r.Int()
		sched.RestoreVClock(r, &nv.clk)
		nv.pendingTS = r.Time()
		nv.havePending = r.Bool()
		if err := r.Err(); err != nil {
			return err
		}
		if nv.sent < 0 || (nv.q.empty() && nv.sent != 0) ||
			(!nv.q.empty() && nv.sent >= nv.q.peek().Flits) {
			return &snapshot.InvariantError{
				Invariant: "injection-progress",
				Detail:    fmt.Sprintf("NI node %d vc %d: sent %d", n.Node, v, nv.sent),
			}
		}
	}
	n.Stalls = r.U64()
	n.Sent = r.U64()
	n.Dropped = r.U64()
	n.RTFlits = r.U64()
	n.BEFlits = r.U64()
	n.MeterExceed = r.U64()
	n.MeterViolate = r.U64()
	policed := r.Bool()
	if err := r.Err(); err != nil {
		return err
	}
	if policed != (n.pol != nil) {
		return &snapshot.InvariantError{
			Invariant: "policer",
			Detail: fmt.Sprintf("NI node %d: snapshot policing=%v, live configuration policing=%v",
				n.Node, policed, n.pol != nil),
		}
	}
	if policed {
		if err := n.pol.RestoreState(r); err != nil {
			return err
		}
	}
	// The backlog signal and word are derived state: recompute them from
	// the restored queues rather than trusting the snapshot.
	n.queued = int(n.pendingFlits())
	for v := range n.vcs {
		n.markVC(v)
	}
	return r.Err()
}

// EncodeState writes one sink's reassembly state, with the partial-frame
// map emitted in key order so the byte stream is deterministic.
func (s *Sink) EncodeState(w *snapshot.Writer) error {
	if s.retx != nil {
		return &snapshot.NotSnapshottableError{Feature: "retransmission layer"}
	}
	keys := make([]uint64, 0, len(s.frames))
	for k := range s.frames {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	w.Int(len(keys))
	for _, k := range keys {
		w.U64(k)
		w.Int(s.frames[k])
	}
	return nil
}

// RestoreState overwrites one sink's reassembly state.
func (s *Sink) RestoreState(r *snapshot.Reader) error {
	n := r.Len()
	s.frames = make(map[uint64]int, n)
	for i := 0; i < n; i++ {
		k := r.U64()
		rem := r.Int()
		if err := r.Err(); err != nil {
			return err
		}
		if rem <= 0 {
			return &snapshot.InvariantError{
				Invariant: "frame-reassembly",
				Detail:    fmt.Sprintf("sink node %d: frame %#x with %d messages outstanding", s.Node, k, rem),
			}
		}
		if _, dup := s.frames[k]; dup {
			return &snapshot.InvariantError{
				Invariant: "frame-reassembly",
				Detail:    fmt.Sprintf("sink node %d: duplicate frame key %#x", s.Node, k),
			}
		}
		s.frames[k] = rem
	}
	return r.Err()
}
