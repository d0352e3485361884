// Package fault injects link and router failures into a MediaWorm fabric.
// Faults are either scheduled (an exact instant, for scripted scenarios and
// tests) or stochastic (exponential up/down churn driven by a dedicated RNG
// substream), and both ride the sim engine's event calendar, so every fault
// scenario is exactly reproducible from a seed: same seed, same fault trace,
// same simulation — byte for byte.
//
// The injector only breaks things. Recovery is owned by the layers the
// faults land on: routers reap dead worms and reroute (core, topology), NIs
// retransmit lost messages (network.Retransmitter), and the admission
// controller sheds load (admission.Controller.SetCapacityScale).
package fault

import (
	"mediaworm/internal/core"
	"mediaworm/internal/flit"
	"mediaworm/internal/network"
	"mediaworm/internal/obs"
	"mediaworm/internal/rng"
	"mediaworm/internal/sim"
)

// Link is one bidirectional channel between two routers: A's output APort
// feeds B, and B's output BPort feeds A. Taking a Link down severs both
// directions, the way a cut cable would.
type Link struct {
	A     *core.Router
	APort int
	B     *core.Router
	BPort int
}

// Injector schedules faults against one fabric.
type Injector struct {
	engine *sim.Engine
	fab    *network.Fabric
	src    *rng.Source
	splits uint64

	// LinkDowns and LinkUps count bidirectional link transitions (a Link
	// going down is one LinkDown, not two).
	LinkDowns, LinkUps uint64
	// Stalls counts port-stall intervals begun.
	Stalls uint64

	// OnFault, if set, observes every state change for tracing: kind is
	// "link-down", "link-up", "stall", or "unstall".
	OnFault func(at sim.Time, kind string, router, port int)
}

// NewInjector creates an injector for the fabric. src seeds the stochastic
// faults; derive it as rng.NewStream(seed, "fault") so fault draws never
// perturb traffic draws. A nil src is fine for purely scheduled scenarios.
func NewInjector(engine *sim.Engine, fab *network.Fabric, src *rng.Source) *Injector {
	if engine == nil || fab == nil {
		panic("fault: nil engine or fabric")
	}
	return &Injector{engine: engine, fab: fab, src: src}
}

// split hands out child RNG streams so each stochastic process (one per
// churned link, one per corrupting router) is independent: adding one never
// shifts another's draws.
func (in *Injector) split() *rng.Source {
	if in.src == nil {
		panic("fault: stochastic faults need an RNG source")
	}
	in.splits++
	return in.src.Split(in.splits)
}

// note counts a fault transition in the port block of (r, port) and
// reports it to the observers: OnFault, and r's tracer, which records it
// as an obs.EvFault event (Cause link-down or stalled; Arg 1 = onset,
// 0 = lift).
func (in *Injector) note(kind string, r *core.Router, port int) {
	r.PortCounters()[port].Faults++
	if in.OnFault != nil {
		in.OnFault(in.engine.Now(), kind, r.ID(), port)
	}
	if t := r.Config().Tracer; t != nil {
		cause, onset := obs.CauseLinkDown, int64(1)
		switch kind {
		case "link-down":
		case "link-up":
			onset = 0
		case "stall":
			cause = obs.CauseStalled
		case "unstall":
			cause, onset = obs.CauseStalled, 0
		}
		t.Emit(obs.Event{At: in.engine.Now(), Kind: obs.EvFault,
			Cause: cause, Router: int16(r.ID()), Port: int16(port), VC: -1,
			Arg: onset})
	}
}

// downLink severs both directions now.
func (in *Injector) downLink(l Link) {
	l.A.SetLinkUp(l.APort, false)
	l.B.SetLinkUp(l.BPort, false)
	in.LinkDowns++
	in.note("link-down", l.A, l.APort)
	// The kill may leave worms to unravel; make sure the driver runs.
	in.fab.Wake()
}

// upLink restores both directions now.
func (in *Injector) upLink(l Link) {
	l.A.SetLinkUp(l.APort, true)
	l.B.SetLinkUp(l.BPort, true)
	in.LinkUps++
	in.note("link-up", l.A, l.APort)
	in.fab.Wake()
}

// LinkDownAt schedules the bidirectional link to fail at the given instant.
// Flits in flight on the link are dropped, their messages killed, and the
// buffers they held reclaimed as the dead worms unravel.
func (in *Injector) LinkDownAt(at sim.Time, l Link) {
	in.engine.At(at, func() { in.downLink(l) })
}

// LinkUpAt schedules the bidirectional link to recover at the given instant.
func (in *Injector) LinkUpAt(at sim.Time, l Link) {
	in.engine.At(at, func() { in.upLink(l) })
}

// OutageAt schedules a link outage covering [at, at+duration).
func (in *Injector) OutageAt(at, duration sim.Time, l Link) {
	if duration <= 0 {
		panic("fault: non-positive outage duration")
	}
	in.LinkDownAt(at, l)
	in.LinkUpAt(at+duration, l)
}

// StallAt freezes a router output port for [at, at+duration): the port
// transmits nothing but, unlike a dead link, loses nothing — flits wait.
// A long enough stall on a loaded fabric is the cheapest way to trip the
// progress watchdog in tests.
func (in *Injector) StallAt(at, duration sim.Time, r *core.Router, port int) {
	if duration <= 0 {
		panic("fault: non-positive stall duration")
	}
	in.engine.At(at, func() {
		r.SetPortStalled(port, true)
		in.Stalls++
		in.note("stall", r, port)
	})
	in.engine.At(at+duration, func() {
		r.SetPortStalled(port, false)
		in.note("unstall", r, port)
		in.fab.Wake()
	})
}

// Churn runs stochastic fail/repair cycles on the link until the horizon:
// up-times are exponential with mean mtbf, down-times exponential with mean
// mttr. Each churned link gets its own RNG substream. No fault is scheduled
// at or beyond until, so a bounded run always terminates.
func (in *Injector) Churn(l Link, mtbf, mttr, until sim.Time) {
	if mtbf <= 0 || mttr <= 0 {
		panic("fault: non-positive MTBF or MTTR")
	}
	src := in.split()
	draw := func(mean sim.Time) sim.Time {
		d := sim.Time(src.Exp(float64(mean)))
		if d < 1 {
			d = 1
		}
		return d
	}
	var fail, repair func()
	now := in.engine.Now()
	fail = func() {
		in.downLink(l)
		if at := in.engine.Now() + draw(mttr); at < until {
			in.engine.At(at, repair)
		}
	}
	repair = func() {
		in.upLink(l)
		if at := in.engine.Now() + draw(mtbf); at < until {
			in.engine.At(at, fail)
		}
	}
	if at := now + draw(mtbf); at < until {
		in.engine.At(at, fail)
	}
}

// CorruptFlits arms per-flit corruption on every router in the fabric: each
// transmitted flit is independently corrupted (and its whole message killed)
// with the given probability. Each router draws from its own substream.
// Probability 0 disarms.
func (in *Injector) CorruptFlits(prob float64) {
	if prob < 0 || prob > 1 {
		panic("fault: corruption probability outside [0, 1]")
	}
	for _, r := range in.fab.Routers {
		if prob == 0 {
			r.SetCorruption(nil)
			continue
		}
		src := in.split()
		r.SetCorruption(func(int, flit.Flit) bool {
			return src.Float64() < prob
		})
	}
}
