package calculus

import "math"

// This file is the admission hot path: Register, Release, DelayBoundSec and
// Admit run in O(route length + links) — both constant for a fixed topology —
// using closed-form token-bucket/rate-latency arithmetic instead of Curve
// values, so they perform zero heap allocations. curve.go carries the general
// piecewise-linear algebra; TestControllerMatchesCurveAlgebra pins the two
// against each other.
//
// The delay model is the aggregate-scheduling bound of Charny & Le Boudec:
// every link serves its real-time aggregate with a rate-latency curve
// β = R(t−T)⁺, so any real-time bit leaves within h = T + B/R of arrival,
// where B is the aggregate's pooled burst. A stream's end-to-end bound sums
// h over its route. Burst inflation across hops — traffic gets burstier
// after queueing upstream — is closed with the per-link budget θ: a stream's
// burst contribution at its u-th link is inflated by u·θ worth of its
// arrival envelope, which is a valid envelope whenever every link's h stays
// within θ. Since h is affine in θ (h = a + s·θ, slope s < 1 on feasible
// links), the model resolves θ to the smallest sound budget — the fixed
// point θ* = max over populated links of a/(1−s) — and returns +Inf the
// moment no fixed point exists, so the reported bound is always sound,
// never silently optimistic.

// Register adds a stream src→dst to every link aggregate on its route. It
// does not check admissibility; use Admit for the guarded variant.
//
//mw:hotpath Register
func (c *Controller) Register(src, dst int) {
	r := &c.routes[src*c.nodes+dst]
	for i := 0; i < int(r.n); i++ {
		l := &c.links[r.links[i]]
		u := float64(r.ups[i])
		l.n++
		l.rate += c.mu
		l.var_ += c.sigma * c.sigma
		l.sumU += u
		l.sumU2 += u * u
	}
	c.thetaDirty = true
}

// Release removes a previously registered stream src→dst.
//
//mw:hotpath Release
func (c *Controller) Release(src, dst int) {
	r := &c.routes[src*c.nodes+dst]
	for i := 0; i < int(r.n); i++ {
		l := &c.links[r.links[i]]
		u := float64(r.ups[i])
		l.n--
		l.rate -= c.mu
		l.var_ -= c.sigma * c.sigma
		l.sumU -= u
		l.sumU2 -= u * u
		if l.n == 0 { // sweep float dust so empty means exactly empty
			l.rate, l.var_, l.sumU, l.sumU2 = 0, 0, 0, 0
		}
	}
	c.thetaDirty = true
}

// aggRate is the effective (σ²-pooled) rate envelope of a link's admitted
// aggregate: Σμ + k·√(Σσ²).
func (c *Controller) aggRate(l *link) float64 {
	return l.rate + c.p.SigmaFactor*math.Sqrt(pos(l.var_))
}

// aggBurst is the effective pooled burst of a link's aggregate at budget θ:
// the entry bursts plus θ worth of pooled upstream inflation,
// n·b0 + θ·(μ·ΣU + k·σ·√(ΣU²)).
func (c *Controller) aggBurst(l *link, theta float64) float64 {
	b := float64(l.n) * c.b0
	if s := c.inflRate(l); s > 0 {
		b += theta * s
	}
	return b
}

// inflRate is the pooled burst-inflation rate of a link's aggregate — the
// bits of extra burst per second of upstream sojourn budget.
func (c *Controller) inflRate(l *link) float64 {
	return c.mu*l.sumU + c.p.SigmaFactor*c.sigma*math.Sqrt(pos(l.sumU2))
}

func pos(v float64) float64 {
	if v < 0 { // accumulated float dust from Release
		return 0
	}
	return v
}

// sojournAt is h(θ) = T + (B(θ) + r_agg·pace)/R for the link's current
// aggregate — the FIFO-aggregate horizontal deviation plus the scheduling
// discipline's intra-class reordering allowance — or +Inf when the
// aggregate's effective rate reaches the service rate.
func (c *Controller) sojournAt(l *link, theta float64) float64 {
	if l.n == 0 {
		return l.baseT
	}
	r := c.aggRate(l)
	if r >= l.baseR {
		return math.Inf(1)
	}
	return l.baseT + (c.aggBurst(l, theta)+r*c.pace)/l.baseR
}

// thetaSec resolves the per-link sojourn budget θ: the manual override when
// Params.HopDelayBudgetSec is positive, otherwise the cached self-consistent
// fixed point θ* = max over populated links of a/(1−s), where a is the
// link's θ-free sojourn T + (n·b0 + r_agg·pace)/R and s its inflation slope
// inflRate/R. +Inf when some populated link is unstable or has s ≥ 1.
//
//mw:hotpath thetaSec
func (c *Controller) thetaSec() float64 {
	if c.p.HopDelayBudgetSec > 0 {
		return c.p.HopDelayBudgetSec
	}
	if !c.thetaDirty {
		return c.theta
	}
	theta := 0.0
	for i := range c.links {
		l := &c.links[i]
		if l.n == 0 {
			continue
		}
		r := c.aggRate(l)
		s := c.inflRate(l) / l.baseR
		if r >= l.baseR || s >= 1 {
			theta = math.Inf(1)
			break
		}
		a := l.baseT + (float64(l.n)*c.b0+r*c.pace)/l.baseR
		if fp := a / (1 - s); fp > theta {
			theta = fp
		}
	}
	c.theta, c.thetaDirty = theta, false
	return theta
}

// LinkSojournSec bounds the sojourn of any real-time bit through link id —
// the horizontal deviation between the link's aggregate token-bucket
// envelope and its rate-latency service at the resolved budget θ. It
// returns +Inf when the aggregate's effective rate reaches the service rate
// (unstable link) or when no sound θ exists.
//
//mw:hotpath LinkSojournSec
func (c *Controller) LinkSojournSec(id int) float64 {
	l := &c.links[id]
	if l.n == 0 {
		return l.baseT
	}
	theta := c.thetaSec()
	if math.IsInf(theta, 1) {
		return theta
	}
	return c.sojournAt(l, theta)
}

// BacklogBoundBits bounds the real-time backlog queued at link id in bits:
// the vertical deviation v(α, β) = B + r_agg·T for a stable link, +Inf
// otherwise.
//
//mw:hotpath BacklogBoundBits
func (c *Controller) BacklogBoundBits(id int) float64 {
	l := &c.links[id]
	if l.n == 0 {
		return 0
	}
	r := c.aggRate(l)
	if r >= l.baseR {
		return math.Inf(1)
	}
	theta := c.thetaSec()
	if math.IsInf(theta, 1) && c.inflRate(l) > 0 {
		return theta
	}
	return c.aggBurst(l, theta) + r*l.baseT
}

// DelayBoundSec bounds the end-to-end message delay of a stream src→dst
// under the current link aggregates, in seconds:
//
//	D ≤ Σ over route [ hℓ + b₀·(1/C − 1/Rℓ) ]
//
// where hℓ = Tℓ + Bℓ/Rℓ is the per-link aggregate sojourn and the second
// term restores the tagged message's own serialization on fat channels,
// whose aggregate drains at 2C but whose individual messages still cross
// one physical link at C. The bound degrades to +Inf as soon as any link on
// the route is unstable or violates the θ budget that justifies the burst
// inflation — with the default self-consistent θ the budget holds on every
// populated link by construction, and a manual budget is checked per link —
// so the bound is always sound, never silently optimistic.
//
// The bound reflects whatever is currently registered: call it after
// Register (as Admit does) to price a stream including its own load, or on
// its own to price a hypothetical message through the present traffic.
//
//mw:hotpath DelayBoundSec
func (c *Controller) DelayBoundSec(src, dst int) float64 {
	r := &c.routes[src*c.nodes+dst]
	if r.n == 0 {
		return math.Inf(1) // src == dst: no route to price
	}
	theta := c.thetaSec()
	if math.IsInf(theta, 1) {
		return theta
	}
	manual := c.p.HopDelayBudgetSec > 0
	d := 0.0
	for i := 0; i < int(r.n); i++ {
		l := &c.links[r.links[i]]
		h := c.sojournAt(l, theta)
		if math.IsInf(h, 1) || (manual && h > theta) {
			return math.Inf(1)
		}
		d += h + c.b0*(1/l.streamCap-1/l.baseR)
	}
	return d
}

// Admit registers a stream src→dst if its analytic end-to-end delay bound
// meets DeadlineSec, and rolls the registration back otherwise. It returns
// whether the stream was admitted and updates the Admitted/Rejected
// counters. O(1) and allocation-free.
//
//mw:hotpath Admit
func (c *Controller) Admit(src, dst int) bool {
	c.Register(src, dst)
	if c.DelayBoundSec(src, dst) <= c.p.DeadlineSec {
		c.Admitted++
		return true
	}
	c.Release(src, dst)
	c.Rejected++
	return false
}

// MaxBacklogBits returns the largest per-link backlog bound across the
// fabric and the link id attaining it.
func (c *Controller) MaxBacklogBits() (bits float64, linkID int) {
	for i := range c.links {
		if b := c.BacklogBoundBits(i); b > bits {
			bits, linkID = b, i
		}
	}
	return bits, linkID
}
