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

// EncodeArbiter writes a's serializable state. Observed wrappers are
// refused: they exist only under tracing, which is not snapshottable.
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
		w.U64(ar.active[0])
		w.U64(ar.active[1])
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
// matches the live arbiter.
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
		ar.active[0] = r.U64()
		ar.active[1] = r.U64()
		n := r.Int()
		if err := checkStateLen(r, "wf2q-tags", n); err != nil {
			return err
		}
		ar.sizeTags(n)
		for i := range ar.tags {
			ar.tags[i].s = r.F64()
			ar.tags[i].f = r.F64()
		}
	case *tieredArbiter:
		n := r.Int()
		if err := checkStateLen(r, "spwrr-tiers", n); err != nil {
			return err
		}
		ar.tiers = resize(ar.tiers, n)
		for i := range ar.tiers {
			restoreWRRState(r, &ar.tiers[i])
		}
	default:
		return &snapshot.NotSnapshottableError{Feature: fmt.Sprintf("arbiter %T", a)}
	}
	return r.Err()
}

// checkStateLen rejects corrupt or absurd per-VC state lengths before they
// drive an allocation.
func checkStateLen(r *snapshot.Reader, what string, n int) error {
	if err := r.Err(); err != nil {
		return err
	}
	if n < 0 || n > maxVCID {
		return &snapshot.InvariantError{
			Invariant: "arbiter-state-len",
			Detail:    fmt.Sprintf("%s length %d outside [0, %d]", what, n, maxVCID),
		}
	}
	return nil
}

// resize returns s with exactly n elements, reusing the backing array when
// it is already large enough.
func resize[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]T, n)
}

// EncodeVClock writes the virtual-clock register.
func EncodeVClock(w *snapshot.Writer, v *VClock) { w.Time(v.aux) }

// RestoreVClock overwrites the virtual-clock register.
func RestoreVClock(r *snapshot.Reader, v *VClock) { v.aux = r.Time() }
