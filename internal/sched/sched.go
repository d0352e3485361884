// Package sched implements the resource-scheduling disciplines that multiplex
// router bandwidth among virtual channels: the conventional rate-agnostic
// FIFO and round-robin schedulers, and the paper's contribution — the
// Virtual Clock rate-based scheduler (Zhang, ACM TOCS 1991) that turns a
// vanilla wormhole router into the MediaWorm router (§3.3).
//
// A contention point (crossbar input multiplexer, output VC multiplexer, or
// the source NI's link multiplexer) presents the arbiter with one Candidate
// per virtual channel that has a flit ready; the arbiter picks the winner.
package sched

import (
	"fmt"
	"strings"

	"mediaworm/internal/sim"
)

// Kind selects a scheduling discipline.
type Kind uint8

const (
	// FIFO serves flits in arrival order at the contention point — the
	// scheduler of a conventional wormhole router and the paper's baseline.
	FIFO Kind = iota
	// RoundRobin cycles over virtual channels, one flit per grant: WRR's
	// rotation at unit weights.
	RoundRobin
	// VirtualClock serves the flit with the lowest virtual-clock timestamp,
	// giving each message bandwidth proportional to its request (1/Vtick).
	// Best-effort flits (timestamp sim.Forever) are served FIFO among
	// themselves and only when no real-time flit is ready.
	VirtualClock
	// WRR is weighted round-robin: each virtual channel holds the grant for
	// Params.Weights[vc] consecutive flits per rotation, forfeiting the rest
	// of its turn when it runs dry (work conserving).
	WRR
	// DRR is deficit round-robin (Shreedhar–Varghese): each visited VC is
	// credited Quantum·weight flits of deficit and serves while the deficit
	// lasts. Flits cost one unit each, so a visit either spends its deficit
	// or forfeits the rest when the VC runs dry, and none carries to the next
	// rotation: DRR is WRR at weights Quantum·weight.
	DRR
	// WF2Q is worst-case-fair weighted fair queueing (WF²Q+): a virtual-time
	// scheduler that serves, among the eligible VCs (start tag ≤ virtual
	// time), the one with the smallest finish tag. It tracks GPS within one
	// flit — the tightest fairness of the zoo.
	WF2Q
	// SPWRR is the hierarchical strict-priority + WRR hybrid of production
	// QoS fabrics: VCs are grouped into priority tiers (Params.Tiers), the
	// lowest-numbered tier with a ready flit always wins, and WRR arbitrates
	// within the winning tier.
	SPWRR
)

// numKinds sizes the discipline registry. It is an int, not a Kind, so it
// stays out of the enum for exhaustiveness analysis.
const numKinds = int(SPWRR) + 1

// kinds is the discipline registry, in Kind order. Kinds() exposes it and
// the conformance harness iterates it, so a new Kind that is not added here
// escapes the contract battery — the registry-completeness test fails first.
var kinds = [numKinds]Kind{FIFO, RoundRobin, VirtualClock, WRR, DRR, WF2Q, SPWRR}

// Kinds returns every registered discipline, in Kind order. The conformance
// harness runs its whole property battery over this slice, so registering a
// kind here is what buys it the contract check.
func Kinds() []Kind {
	out := make([]Kind, numKinds)
	copy(out, kinds[:])
	return out
}

// String implements fmt.Stringer. Every spelling it returns round-trips
// through ParseKind (tested exhaustively over Kinds()).
func (k Kind) String() string {
	switch k {
	case FIFO:
		return "fifo"
	case RoundRobin:
		return "round-robin"
	case VirtualClock:
		return "virtual-clock"
	case WRR:
		return "wrr"
	case DRR:
		return "drr"
	case WF2Q:
		return "wf2q"
	case SPWRR:
		return "sp+wrr"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// ParseKind converts a policy name to a Kind. Accepted spellings are exact:
// "fifo"/"FIFO", "round-robin"/"rr", "virtual-clock"/"vc"/"virtualclock",
// "wrr", "drr", "wf2q"/"wf2q+"/"wfq", and "sp+wrr"/"sp-wrr"/"spwrr".
// Near-miss junk — stray whitespace or mixed case like "Fifo " — is rejected
// with an error that names the canonical spelling instead of an opaque
// "unknown policy".
func ParseKind(s string) (Kind, error) {
	switch s {
	case "fifo", "FIFO":
		return FIFO, nil
	case "round-robin", "rr":
		return RoundRobin, nil
	case "virtual-clock", "vc", "virtualclock":
		return VirtualClock, nil
	case "wrr":
		return WRR, nil
	case "drr":
		return DRR, nil
	case "wf2q", "wf2q+", "wfq":
		return WF2Q, nil
	case "sp+wrr", "sp-wrr", "spwrr":
		return SPWRR, nil
	}
	if norm := strings.ToLower(strings.TrimSpace(s)); norm != s {
		if k, err := ParseKind(norm); err == nil {
			return 0, fmt.Errorf("sched: unknown policy %q (policy names are lowercase without surrounding space: did you mean %q?)", s, k)
		}
	}
	return 0, fmt.Errorf("sched: unknown policy %q (valid: fifo, round-robin, rr, virtual-clock, vc, virtualclock, wrr, drr, wf2q, sp+wrr)", s)
}

// Candidate describes one virtual channel competing at a contention point.
type Candidate struct {
	// VC identifies the channel (an index meaningful to the caller).
	VC int
	// TS is the head flit's Virtual Clock timestamp; sim.Forever for
	// best-effort traffic.
	TS sim.Time
	// Enq is the head flit's arrival instant at this point (the FIFO key
	// and the best-effort tie-break).
	Enq sim.Time
	// Seq is a strictly increasing arrival sequence number used to break
	// exact ties deterministically.
	Seq uint64
}

// Arbiter picks one winner among candidates. Implementations may keep state
// (round-robin position), so use one Arbiter instance per contention point.
// Pick returns the index into cands of the winner; cands must be non-empty.
type Arbiter interface {
	Pick(cands []Candidate) int
	Kind() Kind
}

// MaxVCs is the most virtual channels a contention point multiplexes: a
// set of VCs is one 64-bit word, in WF²Q+'s presence map here and in every
// per-port mask of the router and NI. core.Config validates VCs against
// it, and topology.Build refuses a fabric above it before allocating.
const MaxVCs = 64

// Params configures the weighted disciplines (WRR, DRR, WF²Q+, SP+WRR); the
// classic three ignore it. The zero value means "every VC has weight 1 and
// tier 0", under which the weighted kinds degenerate to fair round-robin
// shapes — still valid arbiters, just without differentiation.
type Params struct {
	// VCs sizes the per-VC state once, at construction, so Pick never
	// allocates; candidates' VC ids must lie below it. 0 means MaxVCs.
	VCs int
	// Weights[v] is VC v's scheduling weight. Out-of-range or non-positive
	// entries count as 1.
	Weights []int
	// Tiers[v] is VC v's strict-priority tier for SP+WRR; lower tiers are
	// served first. Out-of-range entries count as tier 0 (highest).
	Tiers []int
	// Quantum is DRR's base deficit credit in flits per weight unit per
	// rotation. Non-positive means 1. The other disciplines ignore it.
	Quantum int
}

// weight returns VC v's effective weight.
func (p *Params) weight(v int) int {
	if v >= 0 && v < len(p.Weights) && p.Weights[v] > 0 {
		return p.Weights[v]
	}
	return 1
}

// tier returns VC v's effective strict-priority tier.
func (p *Params) tier(v int) int {
	if v >= 0 && v < len(p.Tiers) && p.Tiers[v] > 0 {
		return p.Tiers[v]
	}
	return 0
}

// turn returns VC v's turn length in flits on a rotation: its weight times
// the quantum (non-positive → 1).
func (p *Params) turn(v int) int {
	return max(p.Quantum, 1) * p.weight(v)
}

// NewArbiter returns a fresh arbiter of the given kind, parameterized with
// per-VC weights and tiers and sized for p.VCs VCs, at most MaxVCs. Use one
// instance per contention point. RoundRobin, WRR and DRR share one
// rotation; only their turn lengths differ, so each is handed just the
// Params its turns read.
func NewArbiter(k Kind, p Params) Arbiter {
	if p.VCs < 0 || p.VCs > MaxVCs {
		panic(fmt.Sprintf("sched: %d VCs, outside [0, %d]", p.VCs, MaxVCs))
	}
	if p.VCs == 0 {
		p.VCs = MaxVCs
	}
	switch k {
	case FIFO:
		return &fifoArbiter{}
	case RoundRobin:
		return newRotation(k, Params{})
	case VirtualClock:
		return &vcArbiter{}
	case WRR:
		p.Quantum = 0
		return newRotation(k, p)
	case DRR:
		return newRotation(k, p)
	case WF2Q:
		return newWF2Q(p)
	case SPWRR:
		p.Quantum = 0
		return newSPWRR(p)
	default:
		panic(fmt.Sprintf("sched: unknown kind %d", k))
	}
}

type fifoArbiter struct{}

func (*fifoArbiter) Kind() Kind { return FIFO }

func (*fifoArbiter) Pick(cands []Candidate) int {
	best := 0
	for i := 1; i < len(cands); i++ {
		if earlier(cands[i], cands[best]) {
			best = i
		}
	}
	return best
}

// earlier orders by (Enq, Seq).
func earlier(a, b Candidate) bool {
	if a.Enq != b.Enq {
		return a.Enq < b.Enq
	}
	return a.Seq < b.Seq
}

type vcArbiter struct{}

func (*vcArbiter) Kind() Kind { return VirtualClock }

// Pick serves the lowest finite timestamp; among best-effort-only candidates
// it falls back to FIFO order, implementing Vtick = ∞ (§3.3: best-effort has
// maximum slack).
func (*vcArbiter) Pick(cands []Candidate) int {
	best := -1
	for i, c := range cands {
		if c.TS == sim.Forever {
			continue
		}
		if best == -1 || less(c, cands[best]) {
			best = i
		}
	}
	if best >= 0 {
		return best
	}
	// All best-effort: arrival order.
	best = 0
	for i := 1; i < len(cands); i++ {
		if earlier(cands[i], cands[best]) {
			best = i
		}
	}
	return best
}

// less orders by (TS, Enq, Seq).
func less(a, b Candidate) bool {
	if a.TS != b.TS {
		return a.TS < b.TS
	}
	return earlier(a, b)
}

// Better reports whether a should be served before b under policy k,
// as a stateless pairwise comparison. RoundRobin has no meaningful
// pairwise order and falls back to arrival order.
func Better(k Kind, a, b Candidate) bool {
	if k == VirtualClock {
		return less(a, b)
	}
	return earlier(a, b)
}

// VClock is the per-connection virtual clock state kept at a contention
// point (§3.3): two registers, auxVC and Vtick. In MediaWorm each *message*
// acts as a connection, so a fresh VClock is used per message per point and
// discarded when the tail leaves.
type VClock struct {
	aux sim.Time
}

// Stamp implements the Virtual Clock update for one flit arriving at time
// now on a connection with the given vtick:
//
//	auxVC ← max(clock, auxVC); auxVC ← auxVC + Vtick
//
// and returns the flit's timestamp (the updated auxVC). Best-effort flits
// (vtick == sim.Forever) are stamped sim.Forever and do not advance the
// clock.
func (v *VClock) Stamp(now, vtick sim.Time) sim.Time {
	if vtick == sim.Forever {
		return sim.Forever
	}
	if now > v.aux {
		v.aux = now
	}
	v.aux += vtick
	return v.aux
}

// Aux returns the current auxVC value (for tests and instrumentation).
func (v *VClock) Aux() sim.Time { return v.aux }

// Reset clears the clock for reuse by a new message.
func (v *VClock) Reset() { v.aux = 0 }

// ServiceConfig carries the contention-point parameters a worst-case service
// characterization depends on: the virtual-channel partition at the point
// and, for the weighted disciplines, the per-partition weights.
type ServiceConfig struct {
	// VCs is the number of virtual channels multiplexed at the point;
	// RTVCs of them carry real-time traffic.
	VCs, RTVCs int
	// RTWeight and BEWeight are the per-VC weights of the real-time and
	// best-effort partitions under WRR/DRR/WF²Q+/SP+WRR (non-positive → 1).
	RTWeight, BEWeight int
	// Quantum is DRR's base deficit credit in flits per weight unit
	// (non-positive → 1).
	Quantum int
}

// partitionWeights returns the aggregate real-time and best-effort weights
// of the partition.
func (cfg ServiceConfig) partitionWeights() (rt, be float64) {
	rtw, bew := cfg.RTWeight, cfg.BEWeight
	if rtw <= 0 {
		rtw = 1
	}
	if bew <= 0 {
		bew = 1
	}
	return float64(cfg.RTVCs * rtw), float64((cfg.VCs - cfg.RTVCs) * bew)
}

// ServiceModel is the worst-case rate-latency characterization of one
// scheduling discipline at one contention point, in link-rate and flit-slot
// units so it stays independent of the physical channel speed: the
// real-time aggregate is guaranteed at least a Share fraction of the link
// bandwidth after at most LatencyFlits flit-transmission times of
// scheduling delay. internal/calculus turns this into a rate-latency
// service curve β(t) = Share·C·(t − LatencyFlits·cycle)⁺.
type ServiceModel struct {
	// Share is the guaranteed long-run fraction of link bandwidth available
	// to the real-time aggregate.
	Share float64
	// LatencyFlits is the worst-case scheduling latency, in flit slots,
	// before that share applies (non-preemption blocking, rotation turns).
	LatencyFlits float64
	// CrossBestEffort reports whether best-effort traffic must be counted
	// as cross traffic when computing leftover real-time service: true when
	// the discipline gives best-effort flits equal standing (FIFO), false
	// when its guarantee already isolates them (RoundRobin's slots, Virtual
	// Clock's strict timestamp priority).
	CrossBestEffort bool
}

// ServiceCurve returns the per-kind worst-case service characterization of
// a contention point for the real-time aggregate:
//
//   - FIFO serves in arrival order, so real-time flits get the whole link
//     but queue behind every best-effort flit that arrived earlier: full
//     share, no extra latency, best-effort counted as cross traffic.
//   - RoundRobin is WRR at unit weights: each VC gets one flit per
//     rotation, so the real-time VCs jointly hold RTVCs/VCs of the link and
//     wait at most the best-effort VCs' slots (VCs − RTVCs flit times) per
//     rotation; best-effort is isolated by construction.
//   - VirtualClock serves finite timestamps strictly before best-effort
//     (timestamp ∞), so the aggregate holds the full link minus one flit of
//     non-preemption blocking — wormhole transmission is not preempted
//     mid-flit. This is the Nikolić–Indrusiak priority-preemptive shape.
func ServiceCurve(k Kind, cfg ServiceConfig) (ServiceModel, error) {
	if cfg.VCs <= 0 || cfg.RTVCs < 0 || cfg.RTVCs > cfg.VCs {
		return ServiceModel{}, fmt.Errorf("sched: invalid service config %+v", cfg)
	}
	switch k {
	case FIFO:
		return ServiceModel{Share: 1, LatencyFlits: 0, CrossBestEffort: true}, nil
	case VirtualClock:
		return ServiceModel{Share: 1, LatencyFlits: 1}, nil
	case RoundRobin, WRR:
		// One rotation grants each VC weight flits: the real-time aggregate
		// holds Wrt/(Wrt+Wbe) of the link and waits at most the best-effort
		// partition's full rotation allowance before its turns come around.
		if k == RoundRobin {
			cfg.RTWeight, cfg.BEWeight = 1, 1
		}
		rt, be, err := rtShare(k, cfg)
		if err != nil {
			return ServiceModel{}, err
		}
		return ServiceModel{Share: rt / (rt + be), LatencyFlits: be}, nil
	case DRR:
		// Like WRR scaled by the quantum, plus general DRR's residue of one
		// carried flit of deficit per best-effort VC before a real-time
		// visit. Unit-cost flits never carry deficit, so here that term is
		// slack.
		rt, be, err := rtShare(k, cfg)
		if err != nil {
			return ServiceModel{}, err
		}
		q := float64(cfg.Quantum)
		if q <= 0 {
			q = 1
		}
		return ServiceModel{
			Share:        rt / (rt + be),
			LatencyFlits: q*be + float64(cfg.VCs-cfg.RTVCs),
		}, nil
	case WF2Q:
		// WF²Q+ tracks the GPS fluid schedule within one maximum service
		// unit: weight-proportional share after at most one flit of
		// scheduling slack plus one flit of non-preemption blocking.
		rt, be, err := rtShare(k, cfg)
		if err != nil {
			return ServiceModel{}, err
		}
		return ServiceModel{Share: rt / (rt + be), LatencyFlits: 2}, nil
	case SPWRR:
		// The real-time partition occupies the top priority tier (that is
		// how the simulator wires it), so like Virtual Clock the aggregate
		// holds the whole link behind one flit of non-preemption blocking;
		// WRR only arbitrates within the tier.
		if cfg.RTVCs == 0 {
			return ServiceModel{}, fmt.Errorf("sched: sp+wrr service with no real-time VCs")
		}
		return ServiceModel{Share: 1, LatencyFlits: 1}, nil
	}
	return ServiceModel{}, fmt.Errorf("sched: unknown kind %d", k)
}

// rtShare returns the partition weight aggregates, rejecting an empty
// real-time partition (the weighted guarantee would be for nobody).
func rtShare(k Kind, cfg ServiceConfig) (rt, be float64, err error) {
	rt, be = cfg.partitionWeights()
	if cfg.RTVCs == 0 {
		return 0, 0, fmt.Errorf("sched: %v service with no real-time VCs", k)
	}
	return rt, be, nil
}
