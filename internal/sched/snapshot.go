package sched

import (
	"fmt"

	"mediaworm/internal/snapshot"
)

// Arbiter state encoding. FIFO and Virtual Clock arbiters are stateless;
// the round-robin rotation (RoundRobin, WRR, DRR) and each SP+WRR tier carry
// their turn-holder and its remaining turn, and WF²Q+ its virtual-time tags
// (Params are rebuilt from config, not encoded). Each encoded arbiter is
// tagged with its Kind so a restore into a differently-configured contention
// point fails loudly instead of silently mixing disciplines.

// EncodeArbiter writes a's serializable state. An arbiter NewArbiter did
// not build is refused.
func EncodeArbiter(w *snapshot.Writer, a Arbiter) error {
	switch ar := a.(type) {
	case *fifoArbiter:
		w.U8(uint8(FIFO))
	case *vcArbiter:
		w.U8(uint8(VirtualClock))
	case *rotationArbiter:
		w.U8(uint8(ar.kind))
		encodeWRRState(w, &ar.s)
	case *wf2qArbiter:
		w.U8(uint8(WF2Q))
		w.F64(ar.v)
		w.U64(ar.active)
		w.Int(len(ar.tags))
		for i := range ar.tags {
			w.F64(ar.tags[i].s)
			w.F64(ar.tags[i].f)
		}
	case *tieredArbiter:
		w.U8(uint8(SPWRR))
		w.Int(len(ar.tiers))
		for i := range ar.tiers {
			encodeWRRState(w, &ar.tiers[i])
		}
	default:
		return &snapshot.NotSnapshottableError{Feature: fmt.Sprintf("arbiter %T", a)}
	}
	return nil
}

func encodeWRRState(w *snapshot.Writer, s *wrrState) {
	w.Int(s.cur)
	w.Int(s.credit)
}

func restoreWRRState(r *snapshot.Reader, s *wrrState) {
	s.cur = r.Int()
	s.credit = r.Int()
}

// RestoreArbiter overwrites a's state from r, verifying the recorded kind
// matches the live arbiter and each per-VC or per-tier record's length the
// length the arbiter was built with.
func RestoreArbiter(r *snapshot.Reader, a Arbiter) error {
	kind := Kind(r.U8())
	if err := r.Err(); err != nil {
		return err
	}
	if kind != a.Kind() {
		return &snapshot.InvariantError{
			Invariant: "arbiter-kind",
			Detail:    fmt.Sprintf("snapshot has %v, contention point runs %v", kind, a.Kind()),
		}
	}
	switch ar := a.(type) {
	case *fifoArbiter, *vcArbiter:
		// stateless
	case *rotationArbiter:
		restoreWRRState(r, &ar.s)
	case *wf2qArbiter:
		ar.v = r.F64()
		ar.active = r.U64()
		if err := checkStateLen(r, "wf2q-tags", len(ar.tags)); err != nil {
			return err
		}
		for i := range ar.tags {
			ar.tags[i].s = r.F64()
			ar.tags[i].f = r.F64()
		}
	case *tieredArbiter:
		if err := checkStateLen(r, "spwrr-tiers", len(ar.tiers)); err != nil {
			return err
		}
		for i := range ar.tiers {
			restoreWRRState(r, &ar.tiers[i])
		}
	default:
		return &snapshot.NotSnapshottableError{Feature: fmt.Sprintf("arbiter %T", a)}
	}
	return r.Err()
}

// checkStateLen reads a record's length and rejects one other than want,
// the length the live arbiter was built with.
func checkStateLen(r *snapshot.Reader, what string, want int) error {
	n := r.Int()
	if err := r.Err(); err != nil {
		return err
	}
	if n != want {
		return &snapshot.InvariantError{
			Invariant: "arbiter-state-len",
			Detail:    fmt.Sprintf("%s length %d, contention point has %d", what, n, want),
		}
	}
	return nil
}

// EncodeVClock writes the virtual-clock register.
func EncodeVClock(w *snapshot.Writer, v *VClock) { w.Time(v.aux) }

// RestoreVClock overwrites the virtual-clock register.
func RestoreVClock(r *snapshot.Reader, v *VClock) { v.aux = r.Time() }
