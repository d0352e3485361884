package sched

import "math"

// The scheduler zoo: the weighted disciplines of production QoS fabrics —
// WRR, DRR, WF²Q+, and the hierarchical SP+WRR hybrid — parameterized by
// Params and registered in kinds so the conformance harness runs each one
// against the full contract battery. One round-robin rotation serves
// RoundRobin, WRR and DRR alike.
//
// Every Pick is a steady-state hot path: per-VC state is presized from
// Params.VCs at construction and only grows lazily (an amortized one-time
// allocation) when a VC id beyond the presized range first appears.

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
	s, f   []float64 // per-VC start/finish tags
	active [2]uint64 // presence bitmap of VCs backlogged at the last Pick
}

func newWF2Q(p Params) *wf2qArbiter {
	a := &wf2qArbiter{p: p}
	if p.VCs > 0 {
		a.s = make([]float64, p.VCs)
		a.f = make([]float64, p.VCs)
	}
	return a
}

func (*wf2qArbiter) Kind() Kind { return WF2Q }

// ensure grows the tag arrays to cover VC id v, which must be < maxVCID
// (the presence bitmap is two words).
func (a *wf2qArbiter) ensure(v int) {
	if v >= maxVCID {
		panic("sched: wf2q VC id exceeds maxVCID")
	}
	if v < len(a.s) {
		return
	}
	s := make([]float64, v+1) //mw:hotpath — lazy one-time sizing to the observed VC id space; never reallocated after
	f := make([]float64, v+1) //mw:hotpath — lazy one-time sizing to the observed VC id space; never reallocated after
	copy(s, a.s)
	copy(f, a.f)
	a.s, a.f = s, f
}

// Pick refreshes the backlogged set (stamping fresh arrivals at
// max(V, F_old)), clamps V up to the least start tag so an eligible VC
// always exists, grants the eligible minimum-finish-tag VC (ties to the
// lower VC id), restamps the winner, and advances V by 1/ΣW.
//
//mw:hotpath
func (a *wf2qArbiter) Pick(cands []Candidate) int {
	var now [2]uint64
	minS := math.Inf(1)
	wsum := 0.0
	for _, c := range cands {
		v := c.VC
		a.ensure(v)
		word, bit := v>>6, uint64(1)<<(uint(v)&63)
		now[word] |= bit
		if a.active[word]&bit == 0 {
			// Newly backlogged: restart at the later of the virtual time and
			// the VC's previous finish (the WF²Q+ re-arrival rule).
			s := a.v
			if a.f[v] > s {
				s = a.f[v]
			}
			a.s[v] = s
			a.f[v] = s + 1/float64(a.p.weight(v))
		}
		if a.s[v] < minS {
			minS = a.s[v]
		}
		wsum += float64(a.p.weight(v))
	}
	a.active = now
	if a.v < minS {
		a.v = minS
	}
	best := -1
	for i, c := range cands {
		if a.s[c.VC] > a.v {
			continue // not eligible: would run ahead of the fluid schedule
		}
		if best == -1 {
			best = i
			continue
		}
		fi, fb := a.f[c.VC], a.f[cands[best].VC]
		if fi < fb || (fi == fb && c.VC < cands[best].VC) {
			best = i
		}
	}
	win := cands[best].VC
	a.s[win] = a.f[win]
	a.f[win] += 1 / float64(a.p.weight(win))
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

// ensure grows the per-tier rotation state to cover tier t.
func (a *tieredArbiter) ensure(t int) {
	if t < len(a.tiers) {
		return
	}
	grown := make([]wrrState, t+1) //mw:hotpath — lazy one-time sizing to the observed tier space; never reallocated after
	copy(grown, a.tiers)
	for i := len(a.tiers); i < len(grown); i++ {
		grown[i].cur = -1
	}
	a.tiers = grown
}

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
	a.ensure(top)
	return a.tiers[top].pick(cands, &a.p, top)
}
