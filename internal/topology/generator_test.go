package topology

import (
	"fmt"
	"runtime"
	"slices"
	"testing"

	"mediaworm/internal/core"
	"mediaworm/internal/flit"
	"mediaworm/internal/sched"
	"mediaworm/internal/sim"
)

func TestParseSpecRoundTrip(t *testing.T) {
	cases := []string{
		"full1", "full4c4", "full3l2", "full1c8",
		"mesh4x4", "mesh2x3x4", "torus8x8", "torus4x4c2",
		"mesh4x4l2", "torus16x16l2", "torus5x3c1l3",
		"clos8x4", "clos8x4x16", "clos4x2l2",
	}
	for _, name := range cases {
		s, err := ParseSpec(name)
		if err != nil {
			t.Fatalf("ParseSpec(%q): %v", name, err)
		}
		if got := s.String(); got != name {
			t.Fatalf("ParseSpec(%q).String() = %q", name, got)
		}
	}
	// Canonicalization: an explicit default suffix renders without it.
	s, err := ParseSpec("torus8x8c4l1")
	if err != nil {
		t.Fatal(err)
	}
	if got := s.String(); got != "torus8x8" {
		t.Fatalf("torus8x8c4l1 canonicalizes to %q", got)
	}
	if s, err := ParseSpec("clos8x4x4"); err != nil || s.String() != "clos8x4" {
		t.Fatalf("clos8x4x4 → %v, %v", s, err)
	}
	// The paper's fabrics are aliases for generator specs.
	for alias, want := range map[string]string{
		"single-switch": "full1", "fat-mesh-2x2": "mesh2x2l2", "tetrahedral": "full4c4",
	} {
		if s, err := ParseSpec(alias); err != nil || s.String() != want {
			t.Fatalf("%s → %v, %v; want %s", alias, s, err, want)
		}
	}
	// A cluster's default concentration fills the ports its lanes leave.
	if s, _ := ParseSpec("full4"); s.ForRadix(8).Concentration != 5 || s.ForRadix(8).String() != "full4c5" {
		t.Fatalf("full4 on 8 ports resolves to %v", s.ForRadix(8))
	}
}

func TestParseSpecRejects(t *testing.T) {
	for _, name := range []string{
		"", "ring8", "mesh", "meshx", "mesh4x", "mesh4y4", "mesh1x4",
		"torus4x4c0", "torus4x4l0", "clos8", "clos8x4x2x1", "clos8x4c2",
		"clos1x4", "mesh4x4cx", "full", "full0", "full2x2", "full4c0",
	} {
		if _, err := ParseSpec(name); err == nil {
			t.Errorf("ParseSpec(%q) accepted", name)
		}
	}
}

// specUnderTest is the shared property-test grid: the paper's three
// fabrics, every generated kind, multiple dimensionality, odd radixes,
// concentration and lane variants — resolved against base()'s 8-port
// routers.
func specsUnderTest(t *testing.T) []Spec {
	t.Helper()
	var specs []Spec
	for _, name := range []string{
		"single-switch", "fat-mesh-2x2", "tetrahedral", "full3l2",
		"mesh4x4", "mesh2x3x4", "mesh3x3c2l2",
		"torus4x4", "torus5x3", "torus2x2x2c1", "torus4x4c2l2",
		"clos4x2", "clos4x2x8", "clos3x3l2",
	} {
		s, err := ParseSpec(name)
		if err != nil {
			t.Fatal(err)
		}
		specs = append(specs, s.ForRadix(base().Ports))
	}
	return specs
}

// linkEnds maps each directed transit-port occupancy (router, port) to the
// (router, port) at the other end of the physical link, from the Net's
// TransitLinks inventory.
type portID struct{ router, port int }

func linkEnds(t *testing.T, net *Net) map[portID]portID {
	t.Helper()
	ends := make(map[portID]portID, 2*len(net.TransitLinks()))
	for _, l := range net.TransitLinks() {
		a, b := portID{l.A, l.APort}, portID{l.B, l.BPort}
		if _, dup := ends[a]; dup {
			t.Fatalf("transit inventory lists port %v twice", a)
		}
		if _, dup := ends[b]; dup {
			t.Fatalf("transit inventory lists port %v twice", b)
		}
		ends[a], ends[b] = b, a
	}
	return ends
}

func buildSpec(t *testing.T, spec Spec) *Net {
	t.Helper()
	net, err := Build(sim.NewEngine(), spec, base())
	if err != nil {
		t.Fatalf("Build(%s): %v", spec, err)
	}
	return net
}

func TestGeneratedShapeAndAnalyticLinkCount(t *testing.T) {
	for _, spec := range specsUnderTest(t) {
		net := buildSpec(t, spec)
		if got, want := len(net.Routers), spec.Routers(); got != want {
			t.Fatalf("%s: %d routers, want %d", spec, got, want)
		}
		if got, want := net.Endpoints(), spec.Endpoints(); got != want {
			t.Fatalf("%s: %d endpoints, want %d", spec, got, want)
		}
		if got, want := len(net.TransitLinks()), spec.AnalyticTransitLinks(); got != want {
			t.Fatalf("%s: transit inventory has %d links, analytic count %d", spec, got, want)
		}
		// Every inventoried port must be a transit port on a live router,
		// and the two directions must be consistent (linkEnds also rejects
		// double-booked ports).
		ends := linkEnds(t, net)
		for a, b := range ends {
			if ends[b] != a {
				t.Fatalf("%s: link %v↔%v not symmetric", spec, a, b)
			}
		}
	}
}

// followRoute walks a message from srcEp to dstEp by repeatedly invoking the
// builder's routing function and crossing the first candidate link, checking
// at every hop that all candidates are lanes of one physical channel (or the
// single delivery port). It returns the router-to-router hop count.
func followRoute(t *testing.T, net *Net, spec Spec, ends map[portID]portID, srcEp, dstEp int) int {
	t.Helper()
	msg := &flit.Message{Src: srcEp, Dst: dstEp}
	at, hops := routerOfEndpoint(net, spec, srcEp), 0
	dstRouter := routerOfEndpoint(net, spec, dstEp)
	for {
		cfg := net.Routers[at].Config()
		ports := cfg.Route(at, msg, nil)
		if len(ports) == 0 {
			t.Fatalf("%s: no route at router %d for %d→%d", spec, at, srcEp, dstEp)
		}
		if at == dstRouter {
			want := localPortOfEndpoint(net, spec, dstEp)
			if len(ports) != 1 || ports[0] != want {
				t.Fatalf("%s: delivery at router %d for ep %d routes %v, want [%d]",
					spec, at, dstEp, ports, want)
			}
			return hops
		}
		// All candidates must be lanes of channels that exist in the
		// transit inventory.
		next, ok := ends[portID{at, ports[0]}]
		if !ok {
			t.Fatalf("%s: router %d offers port %d with no link (%d→%d)",
				spec, at, ports[0], srcEp, dstEp)
		}
		for _, p := range ports[1:] {
			if _, ok := ends[portID{at, p}]; !ok {
				t.Fatalf("%s: router %d candidate port %d has no link", spec, at, p)
			}
		}
		at = next.router
		hops++
		if hops > 64 {
			t.Fatalf("%s: routing loop %d→%d", spec, srcEp, dstEp)
		}
	}
}

func routerOfEndpoint(net *Net, spec Spec, ep int) int {
	if spec.Kind == KindClos {
		return ep / spec.Down
	}
	return ep / spec.Concentration
}

func localPortOfEndpoint(net *Net, spec Spec, ep int) int {
	if spec.Kind == KindClos {
		return ep % spec.Down
	}
	return ep % spec.Concentration
}

// shortestHops is the analytic minimal router-to-router distance.
func shortestHops(spec Spec, srcR, dstR int) int {
	if spec.Kind == KindClos || spec.Kind == KindFull {
		if srcR == dstR {
			return 0
		}
		if spec.Kind == KindFull {
			return 1
		}
		return 2 // leaf → spine → leaf
	}
	g := newGrid(spec)
	total := 0
	for d, k := range spec.Dims {
		c, tc := g.coord(srcR, d), g.coord(dstR, d)
		dist := c - tc
		if dist < 0 {
			dist = -dist
		}
		if g.torus && k-dist < dist {
			dist = k - dist
		}
		total += dist
	}
	return total
}

func TestGeneratedRoutesConnectAndAreMinimal(t *testing.T) {
	for _, spec := range specsUnderTest(t) {
		net := buildSpec(t, spec)
		ends := linkEnds(t, net)
		eps := net.Endpoints()
		for src := 0; src < eps; src++ {
			for dst := 0; dst < eps; dst++ {
				hops := followRoute(t, net, spec, ends, src, dst)
				want := shortestHops(spec,
					routerOfEndpoint(net, spec, src), routerOfEndpoint(net, spec, dst))
				if hops != want {
					t.Fatalf("%s: route %d→%d takes %d hops, shortest is %d",
						spec, src, dst, hops, want)
				}
			}
		}
	}
}

// chanNode is a directed-channel node of the channel dependency graph: the
// physical channel leaving `router` through `port`, restricted to the VC
// half `half` (0 = pre-dateline / only half, 1 = post-dateline).
type chanNode struct{ router, port, half int }

func hasCycle(adj map[chanNode][]chanNode) (bool, []chanNode) {
	const (
		white = 0
		grey  = 1
		black = 2
	)
	color := make(map[chanNode]int, len(adj))
	var stack []chanNode
	var visit func(n chanNode) bool
	visit = func(n chanNode) bool {
		color[n] = grey
		stack = append(stack, n)
		for _, m := range adj[n] {
			switch color[m] {
			case grey:
				stack = append(stack, m)
				return true
			case white:
				if visit(m) {
					return true
				}
			}
		}
		color[n] = black
		stack = stack[:len(stack)-1]
		return false
	}
	for n := range adj {
		if color[n] == white && visit(n) {
			return true, stack
		}
	}
	return false, nil
}

// TestGeneratedRoutingDeadlockFree builds the channel dependency graph each
// spec's routing induces — every (src, dst) walk contributes an edge from
// each channel to its successor, with torus channels split into dateline
// halves exactly as the builder's VCSel partitions the VCs — and asserts it
// is acyclic. An acyclic CDG is the classical sufficient condition for
// wormhole deadlock freedom (Dally–Seitz), which is what the dateline
// scheme buys on the wraparound rings.
func TestGeneratedRoutingDeadlockFree(t *testing.T) {
	for _, spec := range specsUnderTest(t) {
		net := buildSpec(t, spec)
		ends := linkEnds(t, net)
		cfgOf := func(r int) core.Config { return net.Routers[r].Config() }
		adj := map[chanNode][]chanNode{}
		addEdge := func(a, b chanNode) {
			adj[a] = append(adj[a], b)
		}
		eps := net.Endpoints()
		for src := 0; src < eps; src++ {
			for dst := 0; dst < eps; dst++ {
				msg := &flit.Message{Src: src, Dst: dst}
				at := routerOfEndpoint(net, spec, src)
				dstR := routerOfEndpoint(net, spec, dst)
				prev := chanNode{router: -1}
				for at != dstR {
					cfg := cfgOf(at)
					ports := cfg.Route(at, msg, nil)
					// Each candidate channel the router may claim becomes a
					// CDG successor of the channel the worm occupies.
					var chosen chanNode
					for i, p := range ports {
						half := 0
						if cfg.VCSel != nil {
							lo, _ := cfg.VCSel(at, p, msg, 0, 2)
							half = lo // [0,1) pre-dateline, [1,2) post
						}
						n := chanNode{at, p, half}
						if i == 0 {
							chosen = n
						}
						if prev.router >= 0 {
							addEdge(prev, n)
						}
					}
					prev = chosen
					at = ends[portID{at, chosen.port}].router
				}
			}
		}
		if cyclic, path := hasCycle(adj); cyclic {
			t.Fatalf("%s: channel dependency cycle: %v", spec, path)
		}
	}
}

// TestTorusWithoutDatelineWouldCycle is the negative control for the CDG
// test: collapsing the dateline halves (as routing without VC dating would)
// must produce a cyclic dependency graph on every torus ring, proving the
// acyclicity above is the dateline's doing rather than an artifact of the
// test's construction.
func TestTorusWithoutDatelineWouldCycle(t *testing.T) {
	spec, err := ParseSpec("torus4x4")
	if err != nil {
		t.Fatal(err)
	}
	net := buildSpec(t, spec)
	ends := linkEnds(t, net)
	adj := map[chanNode][]chanNode{}
	eps := net.Endpoints()
	for src := 0; src < eps; src++ {
		for dst := 0; dst < eps; dst++ {
			msg := &flit.Message{Src: src, Dst: dst}
			at := routerOfEndpoint(net, spec, src)
			dstR := routerOfEndpoint(net, spec, dst)
			prev := chanNode{router: -1}
			for at != dstR {
				ports := net.Routers[at].Config().Route(at, msg, nil)
				n := chanNode{at, ports[0], 0} // dateline halves collapsed
				if prev.router >= 0 {
					adj[prev] = append(adj[prev], n)
				}
				prev = n
				at = ends[portID{at, ports[0]}].router
			}
		}
	}
	if cyclic, _ := hasCycle(adj); !cyclic {
		t.Fatal("torus CDG with collapsed VC classes is acyclic; negative control broken")
	}
}

func TestBuildRejectsInvalidSpecs(t *testing.T) {
	eng := sim.NewEngine()
	// Torus with a single-VC class partition cannot host dateline classes.
	spec, err := ParseSpec("torus4x4")
	if err != nil {
		t.Fatal(err)
	}
	cfg := base()
	cfg.VCs, cfg.RTVCs = 3, 1
	if _, err := Build(eng, spec, cfg); err == nil {
		t.Fatal("torus with 1-VC real-time partition accepted")
	}
	// The same config is fine for a mesh (no dateline needed).
	mesh, err := ParseSpec("mesh4x4")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Build(eng, mesh, cfg); err != nil {
		t.Fatalf("mesh rejects 1-VC partition: %v", err)
	}
	if err := (Spec{Kind: KindMesh, Dims: []int{1, 4}}).Validate(); err == nil {
		t.Fatal("radix-1 dimension accepted")
	}
	if err := (Spec{Kind: KindClos, Leaves: 1, Spines: 2}).Validate(); err == nil {
		t.Fatal("single-leaf clos accepted")
	}
}

func TestBuildPaperAliases(t *testing.T) {
	for _, tc := range []struct {
		name              string
		routers, endpoint int
	}{
		{"single-switch", 1, 8},
		{"fat-mesh-2x2", 4, 16},
		{"tetrahedral", 4, 16},
	} {
		spec, err := ParseSpec(tc.name)
		if err != nil {
			t.Fatal(err)
		}
		net, err := Build(sim.NewEngine(), spec, base())
		if err != nil {
			t.Fatalf("Build(%s): %v", tc.name, err)
		}
		if len(net.Routers) != tc.routers || net.Endpoints() != tc.endpoint {
			t.Fatalf("%s: %d routers / %d endpoints, want %d / %d",
				tc.name, len(net.Routers), net.Endpoints(), tc.routers, tc.endpoint)
		}
	}
}

func TestGeneratedEndToEnd(t *testing.T) {
	for _, spec := range specsUnderTest(t) {
		spec := spec
		t.Run(spec.String(), func(t *testing.T) {
			eng := sim.NewEngine()
			net, err := Build(eng, spec, base())
			if err != nil {
				t.Fatal(err)
			}
			// Corner-to-corner (maximum distance) message must arrive intact.
			src, dst := 0, net.Endpoints()-1
			delivered := -1
			net.Sinks[dst].OnMessage = func(m *flit.Message, at sim.Time) {
				delivered = m.Dst
			}
			m := &flit.Message{
				ID: 1, StreamID: 1, Class: flit.VBR, MsgsInFrame: 1,
				Flits: 20, Vtick: 100, Src: src, Dst: dst, DstVC: 0,
			}
			net.NIs[src].Inject(0, m)
			eng.Drain()
			if delivered != dst {
				t.Fatalf("message not delivered to endpoint %d", dst)
			}
			if err := net.Fabric.CheckDrained(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestGeneratedFabricSharesArena asserts every router of every spec under
// test carves from its fabric's one shared arena. Arenas are sized up
// front and carving past a slab panics, so a build that returns at all
// proves the sizing — including the Clos's mixed leaf and spine shapes —
// and a router carved from a full arena must panic.
func TestGeneratedFabricSharesArena(t *testing.T) {
	for _, spec := range specsUnderTest(t) {
		buildSpec(t, spec)
	}
	cfg := base()
	cfg.Route = func(_ int, msg *flit.Message, buf []int) []int { return append(buf, msg.Dst) }
	cfg.Arena = core.NewArena(1, cfg)
	if _, err := core.New(cfg); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("second router carved from a one-router arena")
		}
	}()
	core.New(cfg)
}

// TestLayoutPathMatchesRouting checks that Layout.Path — the walk the
// analytic model prices — visits exactly the routers the installed routing
// takes, hop by hop, for every endpoint pair of every spec under test.
func TestLayoutPathMatchesRouting(t *testing.T) {
	for _, spec := range specsUnderTest(t) {
		lay, err := spec.Layout(base().Ports)
		if err != nil {
			t.Fatal(err)
		}
		net := buildSpec(t, spec)
		ends := linkEnds(t, net)
		eps := net.Endpoints()
		if lay.Endpoints() != eps {
			t.Fatalf("%s: layout has %d endpoints, fabric %d", spec, lay.Endpoints(), eps)
		}
		for src := 0; src < eps; src++ {
			for dst := 0; dst < eps; dst++ {
				msg := &flit.Message{Src: src, Dst: dst}
				at := routerOfEndpoint(net, spec, src)
				walked := []int{at}
				for at != routerOfEndpoint(net, spec, dst) {
					ports := routeOf(net, at, msg)
					at = ends[portID{at, ports[0]}].router
					walked = append(walked, at)
				}
				if got := lay.Path(src, dst, nil); !slices.Equal(got, walked) {
					t.Fatalf("%s: Path(%d, %d) = %v, routing walks %v", spec, src, dst, got, walked)
				}
			}
		}
	}
}

func ExampleParseSpec() {
	s, _ := ParseSpec("torus8x8l2")
	fmt.Println(s.Kind, s.Dims, s.Lanes, s.Routers(), s.AnalyticTransitLinks())
	// Output: torus [8 8] 2 64 256
}

// TestBuildAllocationsIndependentOfVCs holds the fabric to its
// struct-of-arrays layout: every router carves its per-VC state, flit
// rings included, from the fabric's shared arena, so building a torus8x8
// with 32 VCs per channel takes as many heap allocations as with 4. One
// allocation per input VC would add 64 routers × 8 ports × 28 VCs, about
// 14k. A collection first starts the collector's workers, whose start
// would otherwise land in the first measurement; the slack absorbs any
// other allocation of the runtime's own.
func TestBuildAllocationsIndependentOfVCs(t *testing.T) {
	const slack = 8
	spec, err := ParseSpec("torus8x8")
	if err != nil {
		t.Fatal(err)
	}
	build := func(cfg core.Config) float64 {
		return testing.AllocsPerRun(1, func() {
			if _, err := Build(sim.NewEngine(), spec, cfg); err != nil {
				t.Fatal(err)
			}
		})
	}
	runtime.GC()
	for _, policy := range []sched.Kind{sched.VirtualClock, sched.WF2Q, sched.DRR} {
		for _, full := range []bool{false, true} {
			cfg := base()
			cfg.Policy, cfg.FullCrossbar = policy, full
			narrow := build(cfg)
			cfg.VCs, cfg.RTVCs = 32, 16
			wide := build(cfg)
			t.Logf("%v, full crossbar %v: %.0f allocations at 4 VCs, %.0f at 32", policy, full, narrow, wide)
			if wide > narrow+slack || narrow > wide+slack {
				t.Errorf("%v, full crossbar %v: Build allocates %.0f objects at 4 VCs but %.0f at 32",
					policy, full, narrow, wide)
			}
		}
	}
}
