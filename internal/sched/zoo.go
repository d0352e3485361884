package sched

import "math"

// The scheduler zoo: the weighted disciplines of production QoS fabrics —
// WRR, DRR, WF²Q+, and the hierarchical SP+WRR hybrid — parameterized by
// Params and registered in kinds so the conformance harness runs each one
// against the full contract battery. One round-robin rotation serves
// RoundRobin, WRR and DRR alike.
//
// Every Pick is a steady-state hot path: per-VC state is sized once, from
// Params.VCs, at construction.

// wrrState is one weighted-round-robin rotation: the VC currently holding
// the grant and the flits left in its turn. The rotation arbiter uses one
// instance; SP+WRR keeps one per priority tier.
type wrrState struct {
	cur    int // VC holding (or last to hold) the grant; -1 before the first
	credit int // flits remaining in cur's current turn
}

// pick runs one weighted-round-robin grant over cands, considering only
// candidates on the given tier (tier < 0 considers all). The caller
// guarantees at least one candidate on the tier. A VC holds the grant for
// its turn (Params.turn) of consecutive flits; if it runs dry (or leaves the
// tier) mid-turn it forfeits the remainder — the rotation is work
// conserving.
func (s *wrrState) pick(cands []Candidate, p *Params, tier int) int {
	if s.credit > 0 {
		for i, c := range cands {
			if c.VC == s.cur && (tier < 0 || p.tier(c.VC) == tier) {
				s.credit--
				return i
			}
		}
		s.credit = 0 // turn-holder ran dry: forfeit the rest of its turn
	}
	// Advance the rotation: smallest VC id strictly greater than the
	// previous holder's, wrapping to the smallest overall.
	best, wrap := -1, -1
	for i, c := range cands {
		if tier >= 0 && p.tier(c.VC) != tier {
			continue
		}
		if c.VC > s.cur && (best == -1 || c.VC < cands[best].VC) {
			best = i
		}
		if wrap == -1 || c.VC < cands[wrap].VC {
			wrap = i
		}
	}
	if best == -1 {
		best = wrap
	}
	s.cur = cands[best].VC
	s.credit = p.turn(s.cur) - 1 // this grant spends the first credit
	return best
}

// rotationArbiter is the round-robin rotation behind three disciplines,
// which differ only in turn length: RoundRobin grants one flit per turn, WRR
// a VC's weight, and DRR its Quantum·weight deficit. Flits cost one unit, so
// a DRR visit spends its deficit or forfeits the rest before the rotation
// moves on — exactly a WRR turn at the quantum-scaled weight. kind labels
// the arbiter for Kind and snapshots; NewArbiter shapes p per kind.
type rotationArbiter struct {
	kind Kind
	p    Params
	s    wrrState
}

func newRotation(k Kind, p Params) *rotationArbiter {
	return &rotationArbiter{kind: k, p: p, s: wrrState{cur: -1}}
}

func (a *rotationArbiter) Kind() Kind { return a.kind }

// Pick grants the rotation's current turn-holder while its turn lasts, then
// advances to the next backlogged VC.
//
//mw:hotpath
func (a *rotationArbiter) Pick(cands []Candidate) int {
	return a.s.pick(cands, &a.p, -1)
}

// wf2qArbiter is worst-case-fair weighted fair queueing (WF²Q+): a system
// virtual time V advances at the aggregate service rate; each backlogged VC
// carries start/finish tags (S, F) spaced 1/weight per flit; the grant goes
// to the eligible VC (S ≤ V) with the smallest finish tag. Tracking
// eligibility is what bounds the discipline within one flit of the GPS fluid
// schedule. All arithmetic is float64 on values derived from integer weights
// — fully deterministic for a given pick sequence.
type wf2qArbiter struct {
	p      Params
	v      float64   // system virtual time
	tags   []wf2qTag // per-VC tag record
	active uint64    // presence map of VCs backlogged at the last Pick
}

// wf2qTag is one VC's tag record: its start and finish tags, and its
// weight and the weight's reciprocal, the tag spacing, fixed from Params.
type wf2qTag struct {
	s, f   float64
	w, inv float64
}

// newWF2Q builds the tag records for p.VCs VCs, each with its weight and
// the weight's reciprocal from Params and its tags at zero.
func newWF2Q(p Params) *wf2qArbiter {
	a := &wf2qArbiter{p: p, tags: make([]wf2qTag, p.VCs)}
	for v := range a.tags {
		w := float64(p.weight(v))
		a.tags[v].w, a.tags[v].inv = w, 1/w
	}
	return a
}

func (*wf2qArbiter) Kind() Kind { return WF2Q }

// arrive refreshes VC v's presence: a VC missing from the last Pick's
// backlog restarts at the later of the virtual time and its previous
// finish (the WF²Q+ re-arrival rule).
func (a *wf2qArbiter) arrive(t *wf2qTag, v int) {
	if a.active&(1<<uint(v)) == 0 {
		s := a.v
		if t.f > s {
			s = t.f
		}
		t.s = s
		t.f = s + t.inv
	}
}

// Pick refreshes the backlogged set (stamping fresh arrivals at
// max(V, F_old)), clamps V up to the least start tag so an eligible VC
// always exists, grants the eligible minimum-finish-tag VC (ties to the
// lower VC id), restamps the winner, and advances V by 1/ΣW.
//
// It makes one pass over the candidates, keeping two running winners: the
// minimum finish tag among candidates with S ≤ V as it was, and the one
// among candidates whose S equals the least S seen. If V ≥ min S the clamp
// leaves V as it was and the first is the grant; otherwise V becomes min S,
// which admits exactly the candidates at min S, and the second is.
//
//mw:hotpath
func (a *wf2qArbiter) Pick(cands []Candidate) int {
	if len(cands) == 1 {
		v := cands[0].VC
		t := &a.tags[v]
		a.arrive(t, v)
		a.active = 1 << uint(v)
		if a.v < t.s {
			a.v = t.s
		}
		t.s = t.f
		t.f += t.inv
		a.v += t.inv // 1/ΣW over the one candidate, the reciprocal newWF2Q computed
		return 0
	}
	var now uint64
	minS, wsum := math.Inf(1), 0.0
	// The running winners: index, finish tag and VC id.
	elig, eligF, eligVC := -1, 0.0, 0
	first, firstF, firstVC := -1, 0.0, 0
	for i, c := range cands {
		v := c.VC
		t := &a.tags[v]
		a.arrive(t, v)
		now |= 1 << uint(v)
		wsum += t.w
		s, f := t.s, t.f
		if s <= a.v && (elig < 0 || f < eligF || (f == eligF && v < eligVC)) {
			elig, eligF, eligVC = i, f, v
		}
		if s < minS {
			minS, first, firstF, firstVC = s, i, f, v
		} else if s == minS && (f < firstF || (f == firstF && v < firstVC)) {
			first, firstF, firstVC = i, f, v
		}
	}
	a.active = now
	best := elig
	if a.v < minS {
		a.v = minS
		best = first
	}
	t := &a.tags[cands[best].VC]
	t.s = t.f
	t.f += t.inv
	a.v += 1 / wsum
	return best
}

// tieredArbiter is the hierarchical strict-priority + WRR hybrid: the
// lowest-numbered tier with a backlogged VC always wins, and an independent
// weighted-round-robin rotation arbitrates within each tier.
type tieredArbiter struct {
	p     Params
	tiers []wrrState
}

func newSPWRR(p Params) *tieredArbiter {
	a := &tieredArbiter{p: p}
	maxTier := 0
	for v := 0; v < p.VCs; v++ {
		if t := p.tier(v); t > maxTier {
			maxTier = t
		}
	}
	a.tiers = make([]wrrState, maxTier+1)
	for i := range a.tiers {
		a.tiers[i].cur = -1
	}
	return a
}

func (*tieredArbiter) Kind() Kind { return SPWRR }

// Pick finds the highest-priority (lowest-numbered) tier with a candidate
// and runs that tier's WRR rotation over its members.
//
//mw:hotpath
func (a *tieredArbiter) Pick(cands []Candidate) int {
	top := a.p.tier(cands[0].VC)
	for _, c := range cands[1:] {
		if t := a.p.tier(c.VC); t < top {
			top = t
		}
	}
	return a.tiers[top].pick(cands, &a.p, top)
}
