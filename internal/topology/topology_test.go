package topology

import (
	"testing"

	"mediaworm/internal/core"
	"mediaworm/internal/flit"
	"mediaworm/internal/sched"
	"mediaworm/internal/sim"
)

func base() core.Config {
	return core.Config{
		Ports: 8, VCs: 4, RTVCs: 2,
		BufferDepth: 20, StageDepth: 4,
		Policy: sched.VirtualClock, Period: 80,
	}
}

// buildPaper builds one of the paper's fabrics by name on base() routers.
func buildPaper(t *testing.T, name string, cfg core.Config) (*sim.Engine, *Net) {
	t.Helper()
	spec, err := ParseSpec(name)
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.NewEngine()
	net, err := Build(eng, spec, cfg)
	if err != nil {
		t.Fatalf("Build(%s): %v", name, err)
	}
	return eng, net
}

// routeOf asks router r's installed routing function for msg's candidates.
func routeOf(net *Net, r int, msg *flit.Message) []int {
	return net.Routers[r].Config().Route(r, msg, nil)
}

func TestSingleSwitchShape(t *testing.T) {
	_, net := buildPaper(t, "single-switch", base())
	if len(net.Routers) != 1 {
		t.Fatalf("routers %d", len(net.Routers))
	}
	if net.Endpoints() != 8 || len(net.Sinks) != 8 {
		t.Fatalf("endpoints %d sinks %d", net.Endpoints(), len(net.Sinks))
	}
	for i, ni := range net.NIs {
		if ni.Node != i {
			t.Fatalf("NI %d has node %d", i, ni.Node)
		}
	}
	// Routing: direct to the destination port.
	for dst := 0; dst < 8; dst++ {
		ports := routeOf(net, 0, &flit.Message{Dst: dst})
		if len(ports) != 1 || ports[0] != dst {
			t.Fatalf("route to %d = %v", dst, ports)
		}
	}
	// The switch takes its size from the router config.
	small := base()
	small.Ports = 4
	if _, net := buildPaper(t, "single-switch", small); net.Endpoints() != 4 {
		t.Fatalf("4-port single switch has %d endpoints", net.Endpoints())
	}
}

func TestSingleSwitchPropagatesConfigError(t *testing.T) {
	spec, err := ParseSpec("single-switch")
	if err != nil {
		t.Fatal(err)
	}
	bad := base()
	bad.VCs = 0
	if _, err := Build(sim.NewEngine(), spec, bad); err == nil {
		t.Fatal("invalid config accepted")
	}
}

func TestFatMeshShape(t *testing.T) {
	_, net := buildPaper(t, "fat-mesh-2x2", base())
	if len(net.Routers) != 4 {
		t.Fatalf("routers %d, want 4", len(net.Routers))
	}
	if net.Endpoints() != 16 {
		t.Fatalf("endpoints %d, want 16", net.Endpoints())
	}
	// Endpoint ep sits on switch ep/4, port ep%4: that switch delivers it
	// locally on that port.
	for ep := 0; ep < 16; ep++ {
		if got := routeOf(net, ep/4, &flit.Message{Dst: ep}); len(got) != 1 || got[0] != ep%4 {
			t.Fatalf("endpoint %d: switch %d delivers on %v, want [%d]", ep, ep/4, got, ep%4)
		}
	}
}

// TestFatMeshPortPlan checks that mesh2x2l2 lays out exactly the paper's
// fat-mesh port plan whatever port count the router config carries: 8-port
// routers, endpoints on 0–3, the X lanes on 4–5, the Y lanes on 6–7, with
// the links wired X first, (0,1) and (2,3), then Y, (0,2) and (1,3).
func TestFatMeshPortPlan(t *testing.T) {
	for _, ports := range []int{0, 6, 8} {
		cfg := base()
		cfg.Ports = ports
		_, net := buildPaper(t, "fat-mesh-2x2", cfg)
		for i, r := range net.Routers {
			if got := r.Config().Ports; got != 8 {
				t.Fatalf("Ports %d: router %d has %d ports, want 8", ports, i, got)
			}
		}
		want := []TransitLink{
			{0, 1, 4, 4}, {0, 1, 5, 5}, {2, 3, 4, 4}, {2, 3, 5, 5},
			{0, 2, 6, 6}, {0, 2, 7, 7}, {1, 3, 6, 6}, {1, 3, 7, 7},
		}
		got := net.TransitLinks()
		if len(got) != len(want) {
			t.Fatalf("transit inventory %v, want %v", got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("transit inventory %v, want %v", got, want)
			}
		}
	}
}

func TestFatMeshRouting(t *testing.T) {
	_, net := buildPaper(t, "fat-mesh-2x2", base())
	// Switch layout: 0 (0,0), 1 (1,0), 2 (0,1), 3 (1,1).
	cases := []struct {
		router int
		dstEp  int
		want   []int
	}{
		{0, 2, []int{2}},     // local delivery on port 2
		{0, 5, []int{4, 5}},  // 0→1: X fat pair
		{0, 9, []int{6, 7}},  // 0→2: Y fat pair
		{0, 13, []int{4, 5}}, // 0→3 diagonal: X first
		{1, 14, []int{6, 7}}, // 1→3: Y
		{3, 1, []int{4, 5}},  // 3→0 diagonal: X first
		{2, 8, []int{0}},     // local
		{1, 4, []int{0}},     // local port 0
	}
	for _, c := range cases {
		got := routeOf(net, c.router, &flit.Message{Dst: c.dstEp})
		if len(got) != len(c.want) {
			t.Fatalf("route(%d → ep%d) = %v, want %v", c.router, c.dstEp, got, c.want)
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Fatalf("route(%d → ep%d) = %v, want %v", c.router, c.dstEp, got, c.want)
			}
		}
	}
}

func TestFatMeshRoutingConverges(t *testing.T) {
	// Property: following the first candidate port from any switch reaches
	// the destination in at most two hops (XY on a 2×2 mesh).
	_, net := buildPaper(t, "fat-mesh-2x2", base())
	for src := 0; src < 4; src++ {
		for ep := 0; ep < 16; ep++ {
			at := src
			hops := 0
			for {
				ports := routeOf(net, at, &flit.Message{Dst: ep})
				if len(ports) == 1 && ports[0] < 4 {
					break // delivered
				}
				hops++
				if hops > 2 {
					t.Fatalf("routing loop from switch %d to endpoint %d", src, ep)
				}
				// Move to the neighbour the fat pair reaches.
				if ports[0] == 4 {
					at = at ^ 1 // flip X
				} else {
					at = at ^ 2 // flip Y
				}
			}
		}
	}
}

func TestFatMeshEndToEnd(t *testing.T) {
	// A message from endpoint 0 (switch 0) to endpoint 15 (switch 3) must
	// traverse two fat links and arrive intact.
	eng, net := buildPaper(t, "fat-mesh-2x2", base())
	var deliveredAt sim.Time
	var deliveredTo int
	for i, s := range net.Sinks {
		i := i
		s.OnMessage = func(m *flit.Message, at sim.Time) {
			deliveredAt = at
			deliveredTo = i
		}
	}
	m := &flit.Message{
		ID: 1, StreamID: 1, Class: flit.VBR, MsgsInFrame: 1,
		Flits: 20, Vtick: 100, Src: 0, Dst: 15, DstVC: 0, Injected: 0,
	}
	net.NIs[0].Inject(0, m)
	eng.Drain()
	if deliveredTo != 15 {
		t.Fatalf("message delivered to %d, want 15", deliveredTo)
	}
	// Three hops (switch 0 → 1 → 3 → endpoint): ≥ 20 flits + 3×pipeline.
	if deliveredAt < 30*80 {
		t.Fatalf("multi-hop delivery implausibly fast: %v", deliveredAt)
	}
	if err := net.Fabric.CheckDrained(); err != nil {
		t.Fatal(err)
	}
}

func TestTetrahedralShape(t *testing.T) {
	_, net := buildPaper(t, "tetrahedral", base())
	if len(net.Routers) != 4 || net.Endpoints() != 16 {
		t.Fatalf("routers %d endpoints %d", len(net.Routers), net.Endpoints())
	}
	for i, r := range net.Routers {
		if got := r.Config().Ports; got != 8 {
			t.Fatalf("router %d has %d ports, want the config's 8", i, got)
		}
	}
	spec, err := ParseSpec("tetrahedral")
	if err != nil {
		t.Fatal(err)
	}
	bad := base()
	bad.Ports = 6 // four endpoints plus three neighbours need seven
	if _, err := Build(sim.NewEngine(), spec, bad); err == nil {
		t.Fatal("6-port tetrahedral accepted")
	}
}

func TestTetraPortSymmetry(t *testing.T) {
	// Every ordered pair maps to a transit port in [4,7); the mapping is a
	// bijection per switch, and the inventory wires it both ways.
	_, net := buildPaper(t, "tetrahedral", base())
	ends := linkEnds(t, net)
	for s := 0; s < 4; s++ {
		seen := map[int]bool{}
		for d := 0; d < 4; d++ {
			if d == s {
				continue
			}
			ports := routeOf(net, s, &flit.Message{Dst: 4 * d})
			if len(ports) != 1 || ports[0] < 4 || ports[0] > 6 {
				t.Fatalf("switch %d toward %d routes %v", s, d, ports)
			}
			p := ports[0]
			if seen[p] {
				t.Fatalf("switch %d reuses port %d", s, p)
			}
			seen[p] = true
			if far := ends[portID{s, p}]; far.router != d {
				t.Fatalf("switch %d port %d reaches switch %d, want %d", s, p, far.router, d)
			}
		}
	}
}

func TestTetrahedralRoutingIsOneHop(t *testing.T) {
	_, net := buildPaper(t, "tetrahedral", base())
	ends := linkEnds(t, net)
	for sw := 0; sw < 4; sw++ {
		for ep := 0; ep < 16; ep++ {
			ports := routeOf(net, sw, &flit.Message{Dst: ep})
			if len(ports) != 1 {
				t.Fatalf("route(%d, ep%d) = %v", sw, ep, ports)
			}
			if ep/4 == sw {
				if ports[0] != ep%4 {
					t.Fatalf("local route(%d, ep%d) = %v", sw, ep, ports)
				}
				continue
			}
			// One transit hop, then local delivery.
			next := routeOf(net, ends[portID{sw, ports[0]}].router, &flit.Message{Dst: ep})
			if len(next) != 1 || next[0] != ep%4 {
				t.Fatalf("second hop from %d to ep%d = %v", sw, ep, next)
			}
		}
	}
}

func TestTetrahedralEndToEnd(t *testing.T) {
	eng, net := buildPaper(t, "tetrahedral", base())
	delivered := map[int]int{}
	for i, s := range net.Sinks {
		i := i
		s.OnMessage = func(m *flit.Message, at sim.Time) { delivered[i]++ }
	}
	// One message from every endpoint to the "opposite" endpoint.
	for ep := 0; ep < 16; ep++ {
		m := &flit.Message{
			ID: uint64(ep + 1), StreamID: ep, Class: flit.VBR, MsgsInFrame: 1,
			Flits: 20, Vtick: 100, Src: ep, Dst: 15 - ep, DstVC: 0, Injected: 0,
		}
		net.NIs[ep].Inject(0, m)
	}
	eng.Drain()
	for ep := 0; ep < 16; ep++ {
		if delivered[ep] != 1 {
			t.Fatalf("endpoint %d received %d messages", ep, delivered[ep])
		}
	}
	if err := net.Fabric.CheckDrained(); err != nil {
		t.Fatal(err)
	}
}

func TestFatMeshBidirectionalLinks(t *testing.T) {
	// Reverse direction of the previous test: 15 → 0.
	eng, net := buildPaper(t, "fat-mesh-2x2", base())
	done := false
	net.Sinks[0].OnMessage = func(m *flit.Message, at sim.Time) { done = true }
	m := &flit.Message{
		ID: 1, StreamID: 1, Class: flit.BestEffort, MsgsInFrame: 1,
		Flits: 20, Vtick: sim.Forever, Src: 15, Dst: 0, DstVC: 2, Injected: 0,
	}
	net.NIs[15].Inject(2, m)
	eng.Drain()
	if !done {
		t.Fatal("reverse-direction message not delivered")
	}
}

// TestLiveRouteDetoursAroundDeadLinks checks the fault-aware route every
// multi-router fabric runs: with both X lanes between fat-mesh switches 0
// and 1 down, switch 0 reaches switch 1 the long way (Y first), switch 1's
// own traffic to switch 0 detours too, untouched pairs keep their route,
// and restoring the links restores the fault-free route.
func TestLiveRouteDetoursAroundDeadLinks(t *testing.T) {
	_, net := buildPaper(t, "fat-mesh-2x2", base())
	toSw1 := &flit.Message{Dst: 5}
	if got := routeOf(net, 0, toSw1); len(got) != 2 || got[0] != 4 {
		t.Fatalf("fault-free 0→1 = %v, want the X pair", got)
	}
	for _, p := range []int{4, 5} {
		net.Routers[0].SetLinkUp(p, false)
		net.Routers[1].SetLinkUp(p, false)
	}
	if got := routeOf(net, 0, toSw1); len(got) != 2 || got[0] != 6 || got[1] != 7 {
		t.Fatalf("0→1 with X down = %v, want the Y pair [6 7]", got)
	}
	if got := routeOf(net, 1, &flit.Message{Dst: 0}); len(got) != 2 || got[0] != 6 {
		t.Fatalf("1→0 with X down = %v, want the Y pair", got)
	}
	if got := routeOf(net, 2, &flit.Message{Dst: 13}); len(got) != 2 || got[0] != 4 {
		t.Fatalf("2→3 with 0–1 down = %v, want the X pair", got)
	}
	// One lane back: the route offers only the live lane.
	net.Routers[0].SetLinkUp(5, true)
	net.Routers[1].SetLinkUp(5, true)
	if got := routeOf(net, 0, toSw1); len(got) != 1 || got[0] != 5 {
		t.Fatalf("0→1 with one X lane = %v, want [5]", got)
	}
	net.Routers[0].SetLinkUp(4, true)
	net.Routers[1].SetLinkUp(4, true)
	if got := routeOf(net, 0, toSw1); len(got) != 2 || got[0] != 4 {
		t.Fatalf("restored 0→1 = %v, want the X pair", got)
	}
	// A fully partitioned destination has no route at all.
	for _, p := range []int{4, 5, 6, 7} {
		net.Routers[1].SetLinkUp(p, false)
	}
	for _, p := range []int{4, 5} {
		net.Routers[0].SetLinkUp(p, false)   // 0–1 is an X channel
		net.Routers[3].SetLinkUp(p+2, false) // 3–1 is a Y channel
	}
	if got := routeOf(net, 0, toSw1); len(got) != 0 {
		t.Fatalf("route into an isolated switch = %v, want none", got)
	}
}
