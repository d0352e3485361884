package calculus

import (
	"math"
	"testing"

	"mediaworm/internal/sched"
	"mediaworm/internal/topology"
)

func mustNew(t *testing.T, p Params) *Controller {
	t.Helper()
	c, err := New(p)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return c
}

func TestNewValidatesParams(t *testing.T) {
	bad := []func(*Params){
		func(p *Params) { p.Spec = mustSpec(t, "full1c1") },
		func(p *Params) { p.Spec = mustSpec(t, "full1") },    // unresolved: no endpoints
		func(p *Params) { p.Spec = mustSpec(t, "torus4x4") }, // dateline-halved VC classes
		func(p *Params) { p.Spec = mustSpec(t, "clos4x2") },  // multipath
		func(p *Params) { p.Spec = mustSpec(t, "mesh8x2") },  // 8-router routes overflow the hop array
		func(p *Params) { p.LinkBandwidthBps = 0 },
		func(p *Params) { p.MsgFlits = 0 },
		func(p *Params) { p.FrameBytes = 0 },
		func(p *Params) { p.IntervalSec = 0 },
		func(p *Params) { p.BestEffortLoad = 1.5 },
		func(p *Params) { p.RTVCs = 99 }, // rejected by sched.ServiceCurve
	}
	for i, mutate := range bad {
		p := DefaultParams()
		mutate(&p)
		if _, err := New(p); err == nil {
			t.Fatalf("case %d: New accepted invalid params", i)
		}
	}
}

func TestNormalizedDefaults(t *testing.T) {
	p := DefaultParams().normalized()
	if p.SigmaFactor != 5 {
		t.Fatalf("SigmaFactor default %v, want 5", p.SigmaFactor)
	}
	if got, want := p.DeadlineSec, p.IntervalSec/2; got != want {
		t.Fatalf("DeadlineSec default %v, want %v", got, want)
	}
	// θ resolves dynamically: with nothing registered the fixed point is
	// trivial, and each registered stream raises it. A manual budget wins.
	c := mustNew(t, DefaultParams())
	if got := c.HopBudgetSec(); got != 0 {
		t.Fatalf("empty-fabric θ %v, want 0", got)
	}
	c.Register(0, 1)
	if got := c.HopBudgetSec(); got <= 0 || math.IsInf(got, 1) {
		t.Fatalf("one-stream θ %v, want finite positive", got)
	}
	manual := DefaultParams()
	manual.HopDelayBudgetSec = 1e-3
	if got := mustNew(t, manual).HopBudgetSec(); got != 1e-3 {
		t.Fatalf("manual θ %v, want 1e-3", got)
	}
}

func TestRegisterReleaseRoundTrip(t *testing.T) {
	c := mustNew(t, DefaultParams())
	pairs := [][2]int{{0, 1}, {0, 1}, {2, 5}, {7, 0}}
	for _, p := range pairs {
		c.Register(p[0], p[1])
	}
	for _, p := range pairs {
		c.Release(p[0], p[1])
	}
	for i := range c.links {
		l := &c.links[i]
		if l.n != 0 || l.rate != 0 || l.var_ != 0 || l.sumU != 0 || l.sumU2 != 0 {
			t.Fatalf("link %d not empty after release: %+v", i, *l)
		}
	}
}

// The scalar hot path must agree with the general curve algebra: per link,
// sojourn and backlog are the horizontal and vertical deviations between
// the aggregate token bucket and the rate-latency service; end to end, the
// bound is the deviation against the convolved leftover services.
func TestControllerMatchesCurveAlgebra(t *testing.T) {
	c := mustNew(t, DefaultParams())
	for src := 0; src < 8; src++ {
		for k := 0; k < 3; k++ {
			c.Register(src, (src+1+k)%8)
		}
	}
	theta := c.HopBudgetSec()
	if theta <= 0 || math.IsInf(theta, 1) {
		t.Fatalf("resolved θ %v", theta)
	}
	// The sojourn's arrival curve carries the pacing allowance as extra
	// burst (pace seconds of aggregate arrivals); the backlog's does not —
	// reordering within the class moves bits' departure order, not how
	// many are queued.
	for id := 0; id < c.NumLinks(); id++ {
		l := &c.links[id]
		paced := TokenBucket(c.aggBurst(l, theta)+c.aggRate(l)*c.pace, c.aggRate(l))
		alpha := TokenBucket(c.aggBurst(l, theta), c.aggRate(l))
		beta := RateLatency(l.baseR, l.baseT)
		if got, want := c.LinkSojournSec(id), DelayBound(paced, beta); math.Abs(got-want) > 1e-12 {
			t.Fatalf("link %d sojourn %v, curve algebra %v", id, got, want)
		}
		if got, want := c.BacklogBoundBits(id), BacklogBound(alpha, beta); math.Abs(got-want) > 1e-6 {
			t.Fatalf("link %d backlog %v, curve algebra %v", id, got, want)
		}
	}

	// End to end for stream 0→1: the bound sums the per-link horizontal
	// deviations (plus the own-serialization correction, zero on a single
	// switch where stream cap equals link rate).
	r := &c.routes[0*8+1]
	want := 0.0
	for i := 0; i < int(r.n); i++ {
		l := &c.links[r.links[i]]
		paced := TokenBucket(c.aggBurst(l, theta)+c.aggRate(l)*c.pace, c.aggRate(l))
		beta := RateLatency(l.baseR, l.baseT)
		want += DelayBound(paced, beta) + c.b0*(1/l.streamCap-1/l.baseR)
	}
	got := c.DelayBoundSec(0, 1)
	if math.IsInf(got, 1) || math.Abs(got-want)/want > 1e-12 {
		t.Fatalf("e2e bound %v, curve algebra %v", got, want)
	}
}

func TestDelayBoundMonotoneInPopulation(t *testing.T) {
	c := mustNew(t, DefaultParams())
	c.Register(0, 1)
	prev := c.DelayBoundSec(0, 1)
	if math.IsInf(prev, 1) || prev <= 0 {
		t.Fatalf("single-stream bound %v", prev)
	}
	for k := 0; k < 10; k++ {
		c.Register(2+k%6, 1) // pile cross traffic onto node 1's delivery link
		d := c.DelayBoundSec(0, 1)
		if d < prev {
			t.Fatalf("bound shrank from %v to %v as cross traffic grew", prev, d)
		}
		prev = d
	}
}

func TestDelayBoundInfiniteWhenOverloaded(t *testing.T) {
	c := mustNew(t, DefaultParams())
	// 4 Mb/s nominal per stream with bursts: ~100 streams swamp a 400 Mb/s
	// delivery link.
	for k := 0; k < 100; k++ {
		c.Register(k%7, 7)
	}
	if d := c.DelayBoundSec(0, 7); !math.IsInf(d, 1) {
		t.Fatalf("overloaded bound %v, want +Inf", d)
	}
	if b := c.BacklogBoundBits(8 + 7); !math.IsInf(b, 1) {
		t.Fatalf("overloaded backlog %v, want +Inf", b)
	}
}

func TestAdmitGuardsDeadline(t *testing.T) {
	p := DefaultParams()
	c := mustNew(t, p)
	const attempts = 1600
	admitted := 0
	for k := 0; k < attempts; k++ {
		src := k % 8
		dst := (k + 1 + k/8) % 8
		if src == dst {
			dst = (dst + 1) % 8
		}
		if c.Admit(src, dst) {
			admitted++
		}
	}
	if admitted == 0 || admitted == attempts {
		t.Fatalf("admitted %d of %d, want a real admission boundary", admitted, attempts)
	}
	if c.Admitted != admitted || c.Rejected != attempts-admitted {
		t.Fatalf("counters %d/%d, want %d/%d", c.Admitted, c.Rejected, admitted, attempts-admitted)
	}
	// Rejections must have been rolled back: total registered streams on
	// injection links equals the admitted count.
	registered := 0
	for i := 0; i < 8; i++ {
		registered += c.links[i].n
	}
	if registered != admitted {
		t.Fatalf("%d streams registered after %d admissions", registered, admitted)
	}
}

func TestAdmitRollbackLeavesStateClean(t *testing.T) {
	p := DefaultParams()
	p.DeadlineSec = 1e-9 // impossible deadline: everything rejected
	c := mustNew(t, p)
	if c.Admit(0, 1) {
		t.Fatal("admitted a stream that cannot meet a 1 ns deadline")
	}
	for i := range c.links {
		if c.links[i].n != 0 {
			t.Fatalf("rollback left link %d populated", i)
		}
	}
}

func mustSpec(t *testing.T, name string) topology.Spec {
	t.Helper()
	s, err := topology.ParseSpec(name)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestFatMeshRoutesAndBounds(t *testing.T) {
	p := DefaultParams()
	p.Spec = mustSpec(t, "fat-mesh-2x2")
	c := mustNew(t, p)
	if got, want := c.NumLinks(), 2*16+8; got != want {
		t.Fatalf("fat-mesh links %d, want %d", got, want)
	}
	// Endpoint 0 (switch 0) to endpoint 15 (switch 3): XY route crosses an
	// X fat channel then a Y fat channel — 4 links total.
	r := &c.routes[0*16+15]
	if r.n != 4 {
		t.Fatalf("route 0→15 has %d links, want 4", r.n)
	}
	if r.links[0] != 0 || r.links[3] != 16+15 {
		t.Fatalf("route 0→15 endpoints wrong: %v", r.links[:r.n])
	}
	for i := 0; i < 4; i++ {
		if int(r.ups[i]) != i {
			t.Fatalf("upstream counts %v", r.ups[:r.n])
		}
	}
	// Same-switch route stays two links.
	if r := &c.routes[0*16+1]; r.n != 2 {
		t.Fatalf("route 0→1 has %d links, want 2", r.n)
	}
	c.Register(0, 15)
	if d := c.DelayBoundSec(0, 15); math.IsInf(d, 1) || d <= c.MinLatencySec() {
		t.Fatalf("lone fat-mesh stream bound %v (dmin %v)", d, c.MinLatencySec())
	}
}

func TestFIFOBestEffortDegradesService(t *testing.T) {
	base := DefaultParams()
	base.Policy = sched.FIFO
	base.RTVCs = 12
	quiet := mustNew(t, base)
	loaded := base
	loaded.BestEffortLoad = 0.5
	noisy := mustNew(t, loaded)
	quiet.Register(0, 1)
	noisy.Register(0, 1)
	dq, dn := quiet.DelayBoundSec(0, 1), noisy.DelayBoundSec(0, 1)
	if !(dn > dq) {
		t.Fatalf("FIFO bound with BE cross %v not above quiet %v", dn, dq)
	}

	// VirtualClock isolates best-effort: the same BE load must not move
	// the bound at all.
	vcBase := DefaultParams()
	vcQuiet := mustNew(t, vcBase)
	vcLoadedP := vcBase
	vcLoadedP.BestEffortLoad = 0.5
	vcNoisy := mustNew(t, vcLoadedP)
	vcQuiet.Register(0, 1)
	vcNoisy.Register(0, 1)
	if a, b := vcQuiet.DelayBoundSec(0, 1), vcNoisy.DelayBoundSec(0, 1); a != b {
		t.Fatalf("VirtualClock bound moved with BE load: %v vs %v", a, b)
	}
}

func TestMaxBacklogBits(t *testing.T) {
	c := mustNew(t, DefaultParams())
	for k := 0; k < 6; k++ {
		c.Register(k, 7) // converge on node 7's delivery link
	}
	bits, id := c.MaxBacklogBits()
	if id != 8+7 {
		t.Fatalf("max backlog at link %d, want delivery link %d", id, 8+7)
	}
	if bits <= 0 || math.IsInf(bits, 1) {
		t.Fatalf("backlog bound %v", bits)
	}
}
