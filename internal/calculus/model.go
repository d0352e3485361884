package calculus

import (
	"fmt"
	"math"

	"mediaworm/internal/core"
	"mediaworm/internal/sched"
	"mediaworm/internal/topology"
)

// Params captures the slice of a simulator configuration the analytic model
// needs, in plain numbers so the package stays free of the simulator.
type Params struct {
	// Spec is the fabric the model composes routes over, resolved against
	// its routers' port count (topology.Spec.ForRadix): a fully connected
	// cluster (one router is the paper's single switch) or a mesh (the
	// paper's fat-mesh is "mesh2x2l2"). Routes follow the fabric's own
	// fault-free routing walk, and each channel's lanes are modeled as one
	// Lanes-times-rate server whose per-stream rate stays capped at one
	// link. New rejects fabrics it cannot price soundly: tori (dateline
	// routing halves the VC classes) and Clos (multipath routing).
	Spec topology.Spec
	// LinkBandwidthBps and FlitBits set the cycle time; MsgFlits the
	// wormhole message size (header included).
	LinkBandwidthBps float64
	FlitBits         int
	MsgFlits         int
	// VCs and RTVCs give the virtual-channel partition; Policy the
	// scheduling discipline at the contention points.
	VCs, RTVCs int
	Policy     sched.Kind
	// RTWeight, BEWeight and Quantum parameterize the weighted disciplines
	// (WRR/DRR/WF²Q+/SP+WRR): the per-VC weight of the real-time and
	// best-effort partitions and the DRR quantum, all defaulting to 1 when
	// zero. Ignored by FIFO/RoundRobin/VirtualClock.
	RTWeight, BEWeight, Quantum int
	// FrameBytes, FrameBytesSD and IntervalSec shape the per-stream video
	// arrival process (16666 B ± 3333 B every 33 ms in the paper).
	FrameBytes, FrameBytesSD float64
	IntervalSec              float64
	// BestEffortLoad is the standing best-effort load per source, as a
	// fraction of link bandwidth. Under FIFO it is cross traffic; under
	// RoundRobin and VirtualClock the discipline isolates it.
	BestEffortLoad float64
	// SigmaFactor is the effective-envelope quantile k: a stream's rate
	// envelope is mean + k·σ, and a link aggregate pools as
	// Σmean + k·√(Σσ²). The paper's VBR frames are normal draws with
	// unbounded support, so absolute worst-case envelopes do not exist;
	// k = 5 (the default when 0) puts a single-frame exceedance below
	// 3·10⁻⁷. See DESIGN.md §16.
	SigmaFactor float64
	// HopDelayBudgetSec is θ, the per-link sojourn budget that closes the
	// burst-propagation recursion: a stream's burst at a link with u
	// upstream hops is inflated by u·θ worth of its arrival envelope,
	// which is a valid envelope as long as every link's aggregate sojourn
	// stays ≤ θ — and the model reports +Inf whenever that check fails, so
	// the bound is never silently optimistic. Smaller θ tightens the
	// bounds but certifies less load. 0 (the default) resolves θ to the
	// self-consistent fixed point: every link's sojourn is affine in θ,
	// h(θ) = a + s·θ with slope s < 1 on feasible links, so the smallest
	// sound budget is θ* = max over populated links of a/(1−s),
	// recomputed as streams come and go (HopBudgetSec reports it). Set a
	// positive value only to pin the trade-off by hand.
	HopDelayBudgetSec float64
	// DeadlineSec is the end-to-end delay bound a stream must meet to be
	// admitted by Admit. 0 selects IntervalSec/2.
	DeadlineSec float64
}

// DefaultParams mirrors the paper's Table 1 single-switch configuration:
// 8 ports, 400 Mb/s links, 32-bit flits, 20-flit messages, 16 VCs with a
// 12:4 real-time split, Virtual Clock scheduling, and the 16666 B ± 3333 B
// per 33 ms VBR video workload.
func DefaultParams() Params {
	return Params{
		Spec:             topology.Spec{Kind: topology.KindFull, Dims: []int{1}, Concentration: 8},
		LinkBandwidthBps: 400e6,
		FlitBits:         32,
		MsgFlits:         20,
		VCs:              16,
		RTVCs:            12,
		Policy:           sched.VirtualClock,
		FrameBytes:       16666,
		FrameBytesSD:     3333,
		IntervalSec:      0.033,
	}
}

func (p Params) normalized() Params {
	if p.SigmaFactor == 0 {
		p.SigmaFactor = 5
	}
	if p.DeadlineSec == 0 {
		p.DeadlineSec = p.IntervalSec / 2
	}
	return p
}

func (p Params) validate() error {
	switch {
	case p.Spec.Kind == topology.KindTorus || p.Spec.Kind == topology.KindClos:
		return fmt.Errorf("calculus: cannot price %s soundly: the model has no dateline VC split or multipath routing", p.Spec)
	case p.Spec.Endpoints() < 2:
		return fmt.Errorf("calculus: %s needs at least 2 endpoints, has %d", p.Spec, p.Spec.Endpoints())
	case p.LinkBandwidthBps <= 0 || p.FlitBits <= 0 || p.MsgFlits < 1:
		return fmt.Errorf("calculus: invalid link/flit parameters")
	case p.FrameBytes <= 0 || p.FrameBytesSD < 0 || p.IntervalSec <= 0:
		return fmt.Errorf("calculus: invalid frame parameters")
	case p.BestEffortLoad < 0 || p.BestEffortLoad > 1:
		return fmt.Errorf("calculus: best-effort load %v outside [0, 1]", p.BestEffortLoad)
	case p.SigmaFactor < 0 || p.HopDelayBudgetSec < 0 || p.DeadlineSec < 0:
		return fmt.Errorf("calculus: negative envelope parameters")
	case p.RTWeight < 0 || p.BEWeight < 0 || p.Quantum < 0:
		return fmt.Errorf("calculus: negative scheduler parameters")
	}
	return nil
}

// maxHops bounds route length in links: injection, up to six router-to-
// router channels, delivery. New rejects fabrics with longer routes.
const maxHops = 8

// routeEntry is one precomputed source→destination route: the link ids the
// stream crosses and, per link, how many links precede it on the route (the
// burst-inflation hop count).
type routeEntry struct {
	links [maxHops]int32
	ups   [maxHops]uint8
	n     uint8
}

// link is one modeled unidirectional server plus the admitted real-time
// aggregate flowing through it.
type link struct {
	// baseR and baseT are the rate-latency service left for real-time
	// traffic after the scheduling discipline and (under FIFO) the standing
	// best-effort cross traffic: baseR in bits/s, baseT in seconds.
	baseR, baseT float64
	// streamCap caps a single stream's service rate: one physical link,
	// even on a double-rate fat channel.
	streamCap float64

	// Admitted aggregate: stream count, Σ mean rate, Σ rate variance, and
	// the θ-independent burst-inflation moments — Σ upstream-hop counts
	// and Σ squared hop counts. The pooled burst at budget θ is
	// n·b0 + θ·(μ·sumU + k·σ·√sumU2).
	n     int
	rate  float64
	var_  float64
	sumU  float64
	sumU2 float64
}

// Controller is the incremental analytic admission controller: it keeps
// per-link arrival aggregates for every admitted stream and answers
// admit/reject in O(route length) — constant for a fixed topology — with
// zero allocations. It is the closed-form counterpart of the simulator
// probe behind admission.Calibrate.
//
// The controller is not safe for concurrent use.
type Controller struct {
	p     Params
	svc   sched.ServiceModel
	cycle float64 // seconds per flit transmission

	// Per-stream arrival parameters (every stream shares Params' shape):
	// mean and σ of the wire-bit rate, and the entry burst (one message
	// dumped into the NI at once).
	mu, sigma, b0 float64
	// pace is the scheduling discipline's intra-class reordering window in
	// seconds: how far a message's service eligibility can lag its arrival
	// relative to FIFO order within the real-time class. Zero for FIFO
	// (exact FIFO within class); (MsgFlits−1) nominal Vticks for
	// VirtualClock (stamp skew across a message, with the traffic layer's
	// nominal-rate clock floor); one rotation of the wheel, a message per
	// VC, for RoundRobin and WRR (quantum messages per VC under DRR). A
	// link's sojourn bound charges pace worth of extra aggregate arrivals:
	// h = T + (B + r_agg·pace)/R.
	pace float64
	// theta caches the resolved per-link sojourn budget; thetaDirty marks
	// it stale after Register/Release. Manual budgets (HopDelayBudgetSec
	// > 0) bypass the cache entirely.
	theta      float64
	thetaDirty bool

	links  []link
	nodes  int          // endpoint count
	routes []routeEntry // nodes×nodes, row-major

	// dmin is the uncontended end-to-end latency of one message (pipeline
	// + serialization), the baseline for jitter estimates.
	dmin float64

	// Admitted and Rejected count Admit decisions.
	Admitted, Rejected int
}

// New builds the analytic model of a fabric. All curves and aggregates are
// preallocated here; admission-time operations allocate nothing.
func New(p Params) (*Controller, error) {
	p = p.normalized()
	if err := p.validate(); err != nil {
		return nil, err
	}
	svc, err := sched.ServiceCurve(p.Policy, sched.ServiceConfig{
		VCs: p.VCs, RTVCs: p.RTVCs,
		RTWeight: p.RTWeight, BEWeight: p.BEWeight, Quantum: p.Quantum,
	})
	if err != nil {
		return nil, err
	}
	c := &Controller{p: p, svc: svc}
	c.cycle = float64(p.FlitBits) / p.LinkBandwidthBps

	// Arrival envelope of one stream (§4.2.1 workload): frames of
	// Normal(FrameBytes, FrameBytesSD) bytes every IntervalSec, segmented
	// into MsgFlits-flit messages spread evenly over the interval, one
	// header flit per message.
	hdr := 1.0
	if p.MsgFlits > 1 {
		hdr = float64(p.MsgFlits) / float64(p.MsgFlits-1)
	}
	c.mu = p.FrameBytes * 8 * hdr / p.IntervalSec
	c.sigma = p.FrameBytesSD * 8 * hdr / p.IntervalSec
	c.b0 = float64(p.MsgFlits * p.FlitBits)
	switch p.Policy {
	case sched.VirtualClock:
		// Nominal Vtick = IntervalSec / wire flits of a mean frame; the
		// traffic layer floors every connection's clock at this rate.
		nomWire := math.Ceil(p.FrameBytes*8/float64(p.FlitBits)) * hdr
		c.pace = float64(p.MsgFlits-1) * p.IntervalSec / nomWire
	case sched.RoundRobin, sched.WRR, sched.DRR:
		// A message can sit out one full rotation of the wheel before its
		// VC's next turn; a DRR turn is quantum messages long, the others
		// one.
		q := 1.0
		if p.Policy == sched.DRR && p.Quantum > 1 {
			q = float64(p.Quantum)
		}
		c.pace = q * float64(p.MsgFlits*p.FlitBits) * float64(p.VCs) / p.LinkBandwidthBps
	case sched.WF2Q:
		// WF²Q+ stays within two packets of the fluid GPS reference, so the
		// intra-class reordering window is two message serializations.
		c.pace = 2 * float64(p.MsgFlits*p.FlitBits) / p.LinkBandwidthBps
	case sched.SPWRR:
		// The real-time tier preempts best-effort outright; the window is
		// one WRR rotation over the real-time VCs alone.
		c.pace = float64(p.MsgFlits*p.FlitBits) * float64(p.RTVCs) / p.LinkBandwidthBps
	case sched.FIFO:
		// FIFO serves the class in arrival order: no reordering window.
	}
	c.thetaDirty = true

	if err := c.buildTopology(); err != nil {
		return nil, err
	}
	c.applyBestEffort()
	return c, nil
}

// Params returns the normalized model parameters.
func (c *Controller) Params() Params { return c.p }

// NumLinks returns the number of modeled unidirectional links.
func (c *Controller) NumLinks() int { return len(c.links) }

// MinLatencySec returns the uncontended end-to-end latency of one message:
// the floor every delay bound sits on.
func (c *Controller) MinLatencySec() float64 { return c.dmin }

// HopBudgetSec returns the per-link sojourn budget θ in force: the manual
// HopDelayBudgetSec when set, otherwise the self-consistent fixed point for
// the currently registered streams (+Inf when no fixed point exists — some
// populated link's burst-inflation slope has reached 1).
func (c *Controller) HopBudgetSec() float64 { return c.thetaSec() }

// buildTopology lays out the link inventory and the route table.
//
// Link id space: [0, nodes) injection links (NI → router), [nodes, 2·nodes)
// delivery links (router → node), then one server per directed
// router-to-router channel, numbered in the fabric's transit-inventory
// order (each link's A→B, then B→A).
func (c *Controller) buildTopology() error {
	lay, err := c.p.Spec.Layout(c.p.Spec.Radix())
	if err != nil {
		return fmt.Errorf("calculus: %w", err)
	}
	n := lay.Endpoints()
	c.nodes = n
	routers := c.p.Spec.Routers()
	channel := make([]int, routers*routers) // a·routers+b → link id, 0 = none
	nLinks := 2 * n
	for _, t := range lay.TransitLinks() {
		for _, ab := range [2][2]int{{t.A, t.B}, {t.B, t.A}} {
			if k := ab[0]*routers + ab[1]; channel[k] == 0 {
				channel[k] = nLinks
				nLinks++
			}
		}
	}
	c.links = make([]link, nLinks)
	C := c.p.LinkBandwidthBps

	// Scheduling latency: the configured discipline arbitrates at two
	// policy contention points per hop (crossbar input multiplexer and
	// output link multiplexer), so the worst-case scheduling latency
	// applies twice per link.
	schedT := 2 * c.svc.LatencyFlits * c.cycle
	for i := range c.links {
		l := &c.links[i]
		l.streamCap = C
		switch {
		case i < n: // injection: feeds a router — full header pipeline
			l.baseR = c.svc.Share * C
			l.baseT = schedT + float64(core.HeaderPipelineCycles)*c.cycle
		case i < 2*n: // delivery: router output to the sink
			l.baseR = c.svc.Share * C
			l.baseT = schedT + c.cycle
		default: // channel: its parallel lanes as one multi-rate server
			l.baseR = c.svc.Share * float64(c.p.Spec.Lanes) * C
			l.baseT = schedT + float64(core.HeaderPipelineCycles)*c.cycle
		}
	}

	c.routes = make([]routeEntry, n*n)
	longest := 1 // routers on the longest route
	var path []int
	for src := 0; src < n; src++ {
		for dst := 0; dst < n; dst++ {
			if src == dst {
				continue
			}
			path = lay.Path(src, dst, path[:0])
			if len(path)+1 > maxHops {
				return fmt.Errorf("calculus: %s route %d→%d crosses %d links, more than the model's %d",
					c.p.Spec, src, dst, len(path)+1, maxHops)
			}
			longest = max(longest, len(path))
			r := &c.routes[src*n+dst]
			add := func(link int) {
				r.links[r.n] = int32(link)
				r.ups[r.n] = r.n
				r.n++
			}
			add(src) // injection
			for i := 1; i < len(path); i++ {
				add(channel[path[i-1]*routers+path[i]])
			}
			add(n + dst) // delivery
		}
	}

	// Uncontended latency: serialization of one message plus the header
	// pipeline of every router on the longest route and one delivery cycle.
	c.dmin = float64(c.p.MsgFlits)*c.cycle +
		float64(longest*core.HeaderPipelineCycles)*c.cycle + c.cycle
	return nil
}

// applyBestEffort folds the standing best-effort load into the base service
// curves. Under FIFO best-effort flits share the queue, so every link's
// service turns into the leftover after the expected best-effort cross
// traffic (uniform random destinations, §4.2.2); RoundRobin and
// VirtualClock isolate best-effort by construction (sched.ServiceCurve),
// so their base curves already account for it.
func (c *Controller) applyBestEffort() {
	if !c.svc.CrossBestEffort || c.p.BestEffortLoad == 0 {
		return
	}
	n := c.nodes
	beC := c.p.BestEffortLoad * c.p.LinkBandwidthBps
	msgBits := float64(c.p.MsgFlits * c.p.FlitBits)
	rate := make([]float64, len(c.links))
	srcs := make([]int, len(c.links)) // sources whose routes cross the link
	var seen []int32
	for src := 0; src < n; src++ {
		seen = seen[:0]
		for dst := 0; dst < n; dst++ {
			if src == dst {
				continue
			}
			r := &c.routes[src*n+dst]
			for i := 0; i < int(r.n); i++ {
				l := r.links[i]
				rate[l] += beC / float64(n-1)
				fresh := true
				for _, s := range seen {
					if s == l {
						fresh = false
						break
					}
				}
				if fresh {
					seen = append(seen, l)
					srcs[l]++
				}
			}
		}
	}
	for i := range c.links {
		l := &c.links[i]
		// Leftover service after a token-bucket cross flow (r, b):
		// rate R−r, latency (R·T + b)/(R−r).
		r, b := rate[i], float64(srcs[i])*msgBits
		if r >= l.baseR {
			l.baseR, l.baseT = 0, math.Inf(1)
			continue
		}
		l.baseT = (l.baseR*l.baseT + b) / (l.baseR - r)
		l.baseR -= r
	}
}
