package calculus

import (
	"math"

	"mediaworm/internal/admission"
	"mediaworm/internal/traffic"
)

// paperIntervalSec is the paper's 33 ms frame interval; probe results are
// renormalized to it so scaled-down parameter sets report paper-scale
// milliseconds, matching the simulator-backed probe in
// internal/experiments.
const paperIntervalSec = 0.033

// AnalyticProbe returns an admission.ProbeFunc backed by the closed-form
// model instead of the simulator: for a given (load, rtShare) it builds a
// Controller with the implied VC partition and best-effort cross load,
// registers the implied per-node stream population with balanced
// destinations, and reports the worst analytic delay bound in excess of the
// uncontended latency, in paper-scale milliseconds.
//
// The reported figure bounds the full delivery-delay spread, which
// dominates the delivery-interval standard deviation the simulator probe
// measures — so an envelope calibrated from this probe is conservative
// against the same jitter budget. A probe point whose bound is +Inf
// (unstable or θ-violating fabric) reports a huge finite jitter so
// admission.Calibrate's bisection backs off rather than erroring.
func AnalyticProbe(p Params) admission.ProbeFunc {
	return func(load, rtShare float64) (float64, error) {
		worst, dmin, err := BalancedDelayBoundSec(p, load, rtShare)
		if err != nil {
			return 0, err
		}
		if math.IsInf(worst, 1) {
			return 1e9, nil
		}
		jitter := worst - dmin
		if jitter < 0 {
			jitter = 0
		}
		return jitter * 1e3 * paperIntervalSec / p.IntervalSec, nil
	}
}

// BalancedDelayBoundSec prices one operating point in closed form: it builds
// a Controller with the VC partition and best-effort cross load the
// (load, rtShare) mix implies, registers the implied per-node real-time
// population with balanced destinations, and returns the worst end-to-end
// delay bound over the registered routes plus the fabric's uncontended
// latency floor. The bound is +Inf when the model declines the operating
// point (unstable or past the burst-inflation fixed point). CLIs use this
// one-call form to annotate simulated sweep rows with their analytic
// counterpart.
func BalancedDelayBoundSec(p Params, load, rtShare float64) (worst, dmin float64, err error) {
	q := p
	q.RTVCs = traffic.PartitionVCs(p.VCs, rtShare)
	q.BestEffortLoad = load * (1 - rtShare)
	c, err := New(q)
	if err != nil {
		return 0, 0, err
	}
	nominal := p.FrameBytes * 8 / p.IntervalSec
	perNode := int(math.Round(load * rtShare * p.LinkBandwidthBps / nominal))
	return c.registerBalanced(perNode), c.dmin, nil
}

// registerBalanced admits perNode streams at every node with round-robin
// destination placement (node i's k-th stream targets i+1+k mod the rest),
// loading every injection and delivery link equally, and returns the worst
// delay bound over the registered routes.
func (c *Controller) registerBalanced(perNode int) (worst float64) {
	n := c.nodes
	for src := 0; src < n; src++ {
		for k := 0; k < perNode; k++ {
			c.Register(src, (src+1+k%(n-1))%n)
		}
	}
	distinct := perNode
	if distinct > n-1 {
		distinct = n - 1
	}
	for src := 0; src < n; src++ {
		for k := 0; k < distinct; k++ {
			if d := c.DelayBoundSec(src, (src+1+k)%n); d > worst {
				worst = d
			}
		}
	}
	return worst
}

// AnalyticEnvelope calibrates a jitter-free operating envelope purely from
// the network-calculus model — no simulation — by running the standard
// admission.Calibrate bisection against AnalyticProbe. It is the
// closed-form sibling of admission.DefaultEnvelope (paper numbers) and a
// simulator-backed Calibrate: same type, same admission.Controller
// compatibility, derived in microseconds instead of simulated hours.
func AnalyticEnvelope(p Params, shares []float64, jitterBudgetMs float64, steps int) (*admission.Envelope, error) {
	return admission.Calibrate(AnalyticProbe(p), shares, jitterBudgetMs, steps)
}
