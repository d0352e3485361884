// Package admission implements the admission-control strategy the paper's
// conclusions call for (§5.7, §6): given the measured jitter-free operating
// envelope of a MediaWorm fabric — the maximum input-link load, per traffic
// mix, at which VBR/CBR delivery stays jitter-free and best-effort latency
// acceptable — admit or reject new video streams so the envelope is never
// exceeded.
//
// The envelope can be supplied from known results (the paper's 0.7–0.8
// guidance) or calibrated against the simulator itself with Calibrate.
package admission

import (
	"fmt"
	"sort"
)

// EnvelopePoint states the maximum safe load when the real-time share of
// traffic is RTShare.
type EnvelopePoint struct {
	RTShare float64
	MaxLoad float64
}

// Envelope is a piecewise-linear jitter-free operating boundary over the
// real-time share of the offered load.
type Envelope struct {
	points []EnvelopePoint
}

// NewEnvelope builds an envelope from points; they are sorted by RTShare.
// At least one point is required, and shares/loads must lie in [0, 1].
func NewEnvelope(points []EnvelopePoint) (*Envelope, error) {
	if len(points) == 0 {
		return nil, fmt.Errorf("admission: empty envelope")
	}
	ps := append([]EnvelopePoint(nil), points...)
	sort.Slice(ps, func(i, j int) bool { return ps[i].RTShare < ps[j].RTShare })
	for _, p := range ps {
		if p.RTShare < 0 || p.RTShare > 1 || p.MaxLoad <= 0 || p.MaxLoad > 1 {
			return nil, fmt.Errorf("admission: invalid envelope point %+v", p)
		}
	}
	return &Envelope{points: ps}, nil
}

// DefaultEnvelope encodes the paper's single-switch findings: jitter-free
// delivery up to 70–80% of physical channel bandwidth, with more headroom
// when the real-time share is small.
func DefaultEnvelope() *Envelope {
	env, err := NewEnvelope([]EnvelopePoint{
		{RTShare: 0.2, MaxLoad: 0.85},
		{RTShare: 0.5, MaxLoad: 0.80},
		{RTShare: 0.8, MaxLoad: 0.75},
		{RTShare: 1.0, MaxLoad: 0.70},
	})
	if err != nil {
		panic(err)
	}
	return env
}

// MaxLoad returns the interpolated maximum safe load at the given real-time
// share, clamped to the envelope's end points.
func (e *Envelope) MaxLoad(rtShare float64) float64 {
	ps := e.points
	if rtShare <= ps[0].RTShare {
		return ps[0].MaxLoad
	}
	last := ps[len(ps)-1]
	if rtShare >= last.RTShare {
		return last.MaxLoad
	}
	i := sort.Search(len(ps), func(i int) bool { return ps[i].RTShare >= rtShare })
	a, b := ps[i-1], ps[i]
	frac := (rtShare - a.RTShare) / (b.RTShare - a.RTShare)
	return a.MaxLoad + frac*(b.MaxLoad-a.MaxLoad)
}

// Points returns a copy of the envelope's calibration points in ascending
// RTShare order — the raw material for rendering, goldens, and side-by-side
// envelope comparisons.
func (e *Envelope) Points() []EnvelopePoint {
	return append([]EnvelopePoint(nil), e.points...)
}

// ProbeFunc measures the delivery-interval standard deviation (paper-scale
// milliseconds) of a fabric at the given load and real-time share. The
// experiment harness provides one backed by the simulator; internal/calculus
// provides a closed-form one backed by network-calculus bounds.
type ProbeFunc func(load, rtShare float64) (sdMs float64, err error)

// InvalidParamError reports a Calibrate parameter outside its domain.
type InvalidParamError struct {
	Param string
	Value float64
}

func (e *InvalidParamError) Error() string {
	return fmt.Sprintf("admission: %s must be positive, got %g", e.Param, e.Value)
}

// MonotonicityError reports a calibrated envelope whose MaxLoad increases
// with RTShare — physically impossible for a fabric where real-time traffic
// is the harder class to serve, so it flags a broken or noisy probe. A and B
// are the offending pair of points (A.RTShare < B.RTShare but
// A.MaxLoad < B.MaxLoad).
type MonotonicityError struct {
	A, B EnvelopePoint
}

func (e *MonotonicityError) Error() string {
	return fmt.Sprintf(
		"admission: calibrated envelope is not monotone: MaxLoad %.4f at RTShare %.2f rises to %.4f at RTShare %.2f",
		e.A.MaxLoad, e.A.RTShare, e.B.MaxLoad, e.B.RTShare)
}

// Calibrate builds an envelope empirically: for each real-time share it
// binary-searches the highest load whose σd stays below jitterBudgetMs.
// steps controls the bisection depth (5 gives ~0.01 load resolution) and
// must be positive, as must jitterBudgetMs; violations return
// *InvalidParamError. The calibrated MaxLoad must be non-increasing in
// RTShare (more real-time traffic never raises the safe load); a violating
// pair of points returns *MonotonicityError naming them.
func Calibrate(probe ProbeFunc, shares []float64, jitterBudgetMs float64, steps int) (*Envelope, error) {
	if len(shares) == 0 {
		return nil, fmt.Errorf("admission: no shares to calibrate")
	}
	if steps <= 0 {
		return nil, &InvalidParamError{Param: "steps", Value: float64(steps)}
	}
	if jitterBudgetMs <= 0 {
		return nil, &InvalidParamError{Param: "jitterBudgetMs", Value: jitterBudgetMs}
	}
	var points []EnvelopePoint
	for _, share := range shares {
		lo, hi := 0.4, 1.0
		for s := 0; s < steps; s++ {
			mid := (lo + hi) / 2
			sd, err := probe(mid, share)
			if err != nil {
				return nil, fmt.Errorf("admission: probe(%.2f, %.2f): %w", mid, share, err)
			}
			if sd <= jitterBudgetMs {
				lo = mid
			} else {
				hi = mid
			}
		}
		points = append(points, EnvelopePoint{RTShare: share, MaxLoad: lo})
	}
	env, err := NewEnvelope(points)
	if err != nil {
		return nil, err
	}
	// Bisection quantizes loads to (hi−lo)/2^steps; treat sub-quantum
	// wobble as flat rather than rising.
	tol := 0.6 / float64(int64(1)<<uint(min(steps, 62)))
	for i := 1; i < len(env.points); i++ {
		a, b := env.points[i-1], env.points[i]
		if b.MaxLoad > a.MaxLoad+tol/2 {
			return nil, &MonotonicityError{A: a, B: b}
		}
	}
	return env, nil
}

// Controller admits streams against an envelope. It tracks the accepted
// real-time bandwidth and the standing best-effort load on the most loaded
// link (a conservative single-link model, matching the paper's per-link
// load accounting).
type Controller struct {
	env *Envelope
	// LinkBps is the physical channel bandwidth; StreamBps the per-stream
	// bandwidth (4 Mb/s MPEG-2 in the paper).
	linkBps   float64
	streamBps float64

	accepted int
	beLoad   float64

	// scale is the fraction of nominal capacity currently available
	// (1 when the fabric is healthy; SetCapacityScale lowers it on faults).
	scale float64
	// beShed is the fraction of the standing best-effort load currently
	// shed to keep the envelope satisfied under degraded capacity.
	beShed float64
	// streams holds identity records for streams admitted via AdmitStream,
	// in admission order, so degradation can pick revocation victims.
	streams []streamRecord
	seq     int

	// Admitted and Rejected count decisions; Revoked counts streams
	// forcibly released by capacity degradation.
	Admitted, Rejected, Revoked int
}

// streamRecord identifies one admitted stream for revocation ordering.
type streamRecord struct {
	id       int
	priority int
	seq      int // admission order; higher = newer
}

// NewController builds a controller for one link.
func NewController(env *Envelope, linkBps, streamBps float64) (*Controller, error) {
	if env == nil || linkBps <= 0 || streamBps <= 0 || streamBps > linkBps {
		return nil, fmt.Errorf("admission: invalid controller parameters")
	}
	return &Controller{env: env, linkBps: linkBps, streamBps: streamBps, scale: 1}, nil
}

// SetBestEffortLoad records the standing best-effort load (fraction of link
// bandwidth). It panics if outside [0, 1].
func (c *Controller) SetBestEffortLoad(l float64) {
	if l < 0 || l > 1 {
		panic("admission: best-effort load out of range")
	}
	c.beLoad = l
}

// Accepted returns the number of currently admitted streams.
func (c *Controller) Accepted() int { return c.accepted }

// Load returns the projected total load on the degraded link with n admitted
// streams: fixed bandwidths become larger fractions as capacity shrinks.
func (c *Controller) load(n int) (total, rtShare float64) {
	rt := float64(n) * c.streamBps / (c.linkBps * c.scale)
	total = rt + (c.beLoad-c.beShed)/c.scale
	if total <= 0 {
		return 0, 0
	}
	return total, rt / total
}

// fits reports whether n admitted streams (plus the standing best-effort
// load) stay inside the envelope at the current capacity.
func (c *Controller) fits(n int) bool {
	total, share := c.load(n)
	return total <= c.env.MaxLoad(share)
}

// RequestStream decides whether one more stream fits inside the envelope.
// Admitted streams count against the link until Release.
func (c *Controller) RequestStream() bool {
	total, share := c.load(c.accepted + 1)
	if total > c.env.MaxLoad(share) {
		c.Rejected++
		return false
	}
	c.accepted++
	c.Admitted++
	return true
}

// Release returns one admitted stream's bandwidth. It panics if no stream
// is admitted.
func (c *Controller) Release() {
	if c.accepted == 0 {
		panic("admission: release without an admitted stream")
	}
	c.accepted--
}

// Capacity returns the maximum number of streams admissible from the
// current state (without mutating it).
func (c *Controller) Capacity() int {
	n := c.accepted
	for {
		total, share := c.load(n + 1)
		if total > c.env.MaxLoad(share) {
			return n
		}
		n++
	}
}

// AdmitStream is RequestStream with an identity: the admitted stream is
// recorded (with its priority) so capacity degradation can revoke it later.
// Higher priority survives longer; ties are broken newest-first.
func (c *Controller) AdmitStream(id, priority int) bool {
	if !c.fits(c.accepted + 1) {
		c.Rejected++
		return false
	}
	c.accepted++
	c.Admitted++
	c.seq++
	c.streams = append(c.streams, streamRecord{id: id, priority: priority, seq: c.seq})
	return true
}

// BestEffortShed returns the fraction of link bandwidth of standing
// best-effort load currently shed by degradation.
func (c *Controller) BestEffortShed() float64 { return c.beShed }

// SetCapacityScale records that only the given fraction of nominal link
// capacity is available (e.g. live transit links / total transit links) and
// restores the envelope by graceful degradation: standing best-effort load
// is shed first (it is elastic), and only if that is not enough are admitted
// streams revoked — lowest priority first, newest first within a priority.
// It returns the IDs of the revoked streams, in revocation order. Raising
// the scale un-sheds best-effort load automatically; revoked streams stay
// revoked until the caller re-admits them against the recovered Capacity.
func (c *Controller) SetCapacityScale(scale float64) (revoked []int) {
	if scale <= 0 || scale > 1 {
		panic("admission: capacity scale outside (0, 1]")
	}
	c.scale = scale
	c.beShed = 0
	if c.fits(c.accepted) {
		return nil
	}
	if c.beLoad > 0 {
		// Shed the least best-effort load that restores the envelope
		// (bisection: fits is monotone in beShed).
		lo, hi := 0.0, c.beLoad
		c.beShed = hi
		if c.fits(c.accepted) {
			for i := 0; i < 40; i++ {
				mid := (lo + hi) / 2
				c.beShed = mid
				if c.fits(c.accepted) {
					hi = mid
				} else {
					lo = mid
				}
			}
			c.beShed = hi
			return nil
		}
		// Even zero best-effort is not enough; keep it all shed.
	}
	for !c.fits(c.accepted) && len(c.streams) > 0 {
		victim := 0
		for i := 1; i < len(c.streams); i++ {
			v, w := c.streams[i], c.streams[victim]
			if v.priority < w.priority || (v.priority == w.priority && v.seq > w.seq) {
				victim = i
			}
		}
		revoked = append(revoked, c.streams[victim].id)
		c.streams = append(c.streams[:victim], c.streams[victim+1:]...)
		c.accepted--
		c.Revoked++
	}
	// Revocation is quantized, so it may overshoot: un-shed whatever
	// best-effort load fits again.
	if c.beLoad > 0 && c.fits(c.accepted) {
		lo, hi := 0.0, c.beShed
		for i := 0; i < 40; i++ {
			mid := (lo + hi) / 2
			c.beShed = mid
			if c.fits(c.accepted) {
				hi = mid
			} else {
				lo = mid
			}
		}
		c.beShed = hi
	}
	return revoked
}
