// Package topology builds MediaWorm fabrics from one parameterized
// generator: fully connected clusters (one router is the paper's 8-port
// switch, four the tetrahedral cluster of §3.4), k-ary n-meshes and tori
// under deterministic dimension-order routing (tori deadlock-free via
// dateline VC classes), and leaf-spine Clos fabrics under up/down routing —
// all with multi-lane ("fat") physical channels, of which the paper's 2×2
// fat-mesh (§3.4/§5.7) is the two-lane case, and all carving router state
// from one shared struct-of-arrays arena. Every multi-router fabric runs the
// same fault-aware route (route.go). See DESIGN.md §18.
package topology

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"mediaworm/internal/core"
	"mediaworm/internal/flit"
	"mediaworm/internal/network"
	"mediaworm/internal/sched"
	"mediaworm/internal/sim"
)

// Kind enumerates the buildable fabric shapes.
type Kind uint8

const (
	// KindFull is a fully connected cluster: every router pair one hop
	// apart over a direct channel. One router is the paper's single switch
	// (§5.1–§5.6); four are Horst's tetrahedral TNet cluster (§3.4).
	KindFull Kind = iota
	// KindMesh is a k-ary n-mesh under dimension-order routing.
	KindMesh
	// KindTorus is a k-ary n-torus under dimension-order routing with
	// dateline VC classes on the wraparound rings.
	KindTorus
	// KindClos is a two-level leaf-spine Clos (folded three-stage Clos /
	// 2-level fat-tree) under deadlock-free up/down routing.
	KindClos
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindFull:
		return "full"
	case KindMesh:
		return "mesh"
	case KindTorus:
		return "torus"
	case KindClos:
		return "clos"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Spec parameterizes a fabric. The zero values of the optional fields mean
// "default": Lanes 1, Concentration 4 on a mesh or torus (a fully connected
// cluster instead fills every port its transit lanes leave free; see
// ForRadix), Down = Spines.
type Spec struct {
	Kind Kind
	// Dims is the per-dimension radix of a mesh/torus ({4, 4} is a 4×4), or
	// the router count of a fully connected cluster ({4}).
	Dims []int
	// Lanes is the number of parallel physical links per channel — the
	// fat-link width. Routing returns every lane and the router picks the
	// least-loaded, as across the fat-mesh's duplicated channels (§3.4).
	Lanes int
	// Concentration is the number of endpoints per mesh, torus or
	// fully connected router.
	Concentration int
	// Leaves, Spines, Down shape a Clos: Leaves leaf switches each with
	// Down endpoints, fully connected to Spines spine switches.
	Leaves, Spines, Down int
}

const defaultConcentration = 4

// paperAliases names the paper's fabrics as generator specs: the single
// switch is one router whose every port is an endpoint, the fat-mesh a 2×2
// mesh of two-lane channels, and the tetrahedral cluster four fully
// connected routers with four endpoints each.
var paperAliases = map[string]string{
	"single-switch": "full1",
	"fat-mesh-2x2":  "mesh2x2l2",
	"tetrahedral":   "full4c4",
}

// normalized returns the spec with defaults filled in.
func (s Spec) normalized() Spec {
	if s.Lanes == 0 {
		s.Lanes = 1
	}
	if s.Concentration == 0 && (s.Kind == KindMesh || s.Kind == KindTorus) {
		s.Concentration = defaultConcentration
	}
	if s.Kind == KindClos && s.Down == 0 {
		s.Down = s.Spines
	}
	return s
}

// ForRadix resolves a fully connected cluster's default concentration
// against its routers' port count: every port its transit lanes leave free
// carries an endpoint, so "full1" on 8-port routers is the paper's 8-port
// switch. Other specs, and clusters with an explicit concentration, come
// back normalized but otherwise unchanged.
func (s Spec) ForRadix(ports int) Spec {
	s = s.normalized()
	if s.Kind == KindFull && s.Concentration == 0 && len(s.Dims) == 1 {
		s.Concentration = ports - (s.Dims[0]-1)*s.Lanes
	}
	return s
}

// String renders the spec in the canonical form ParseSpec accepts:
// "full1", "full4c4", "mesh4x4", "torus8x8", "clos8x4x8", with "c<n>"
// appended for a non-default concentration and "l<n>" for multi-lane
// links.
func (s Spec) String() string {
	s = s.normalized()
	var b strings.Builder
	switch s.Kind {
	case KindFull, KindMesh, KindTorus:
		b.WriteString(s.Kind.String())
		for i, k := range s.Dims {
			if i > 0 {
				b.WriteByte('x')
			}
			fmt.Fprintf(&b, "%d", k)
		}
		if def := (Spec{Kind: s.Kind}).normalized().Concentration; s.Concentration != def {
			fmt.Fprintf(&b, "c%d", s.Concentration)
		}
	case KindClos:
		fmt.Fprintf(&b, "clos%dx%d", s.Leaves, s.Spines)
		if s.Down != s.Spines {
			fmt.Fprintf(&b, "x%d", s.Down)
		}
	default:
		return s.Kind.String()
	}
	if s.Lanes != 1 {
		fmt.Fprintf(&b, "l%d", s.Lanes)
	}
	return b.String()
}

// ParseSpec parses a topology name: one of the paper's fabrics
// ("single-switch", "fat-mesh-2x2", "tetrahedral", which expand to the
// generator specs "full1", "mesh2x2l2" and "full4c4") or a generator spec —
// "full<routers>", "mesh<k>x<k>…", "torus<k>x<k>…",
// "clos<leaves>x<spines>[x<down>]", each optionally suffixed with "c<n>"
// (endpoints per full/mesh/torus router) and "l<n>" (lanes per channel,
// default 1). Examples: "full4", "mesh4x4", "torus8x8c2", "clos8x4x8",
// "torus16x16l2".
func ParseSpec(name string) (Spec, error) {
	if spec, ok := paperAliases[name]; ok {
		name = spec
	}
	var s Spec
	rest := ""
	switch {
	case strings.HasPrefix(name, "full"):
		s.Kind, rest = KindFull, name[len("full"):]
	case strings.HasPrefix(name, "mesh"):
		s.Kind, rest = KindMesh, name[len("mesh"):]
	case strings.HasPrefix(name, "torus"):
		s.Kind, rest = KindTorus, name[len("torus"):]
	case strings.HasPrefix(name, "clos"):
		s.Kind, rest = KindClos, name[len("clos"):]
	default:
		return Spec{}, fmt.Errorf("topology: unknown topology %q", name)
	}
	if i := strings.IndexByte(rest, 'l'); i >= 0 {
		lanes, err := strconv.Atoi(rest[i+1:])
		if err != nil || lanes < 1 {
			return Spec{}, fmt.Errorf("topology: bad lane suffix in %q", name)
		}
		s.Lanes, rest = lanes, rest[:i]
	}
	if i := strings.IndexByte(rest, 'c'); i >= 0 {
		if s.Kind == KindClos {
			return Spec{}, fmt.Errorf("topology: %q: clos takes no concentration suffix", name)
		}
		conc, err := strconv.Atoi(rest[i+1:])
		if err != nil || conc < 1 {
			return Spec{}, fmt.Errorf("topology: bad concentration suffix in %q", name)
		}
		s.Concentration, rest = conc, rest[:i]
	}
	var dims []int
	for _, part := range strings.Split(rest, "x") {
		k, err := strconv.Atoi(part)
		if err != nil {
			return Spec{}, fmt.Errorf("topology: bad dimension %q in %q", part, name)
		}
		dims = append(dims, k)
	}
	if s.Kind == KindClos {
		switch len(dims) {
		case 2:
			s.Leaves, s.Spines = dims[0], dims[1]
		case 3:
			s.Leaves, s.Spines, s.Down = dims[0], dims[1], dims[2]
		default:
			return Spec{}, fmt.Errorf("topology: clos wants <leaves>x<spines>[x<down>], got %q", name)
		}
	} else {
		s.Dims = dims
	}
	s = s.normalized()
	return s, s.Validate()
}

// Validate checks the spec's shape (not the router config it will be
// combined with; Build checks the combination).
func (s Spec) Validate() error {
	s = s.normalized()
	if s.Lanes < 1 {
		return fmt.Errorf("topology: lanes = %d", s.Lanes)
	}
	switch s.Kind {
	case KindFull:
		if len(s.Dims) != 1 || s.Dims[0] < 1 {
			return fmt.Errorf("topology: full wants one router count ≥ 1, got %v", s.Dims)
		}
		if s.Concentration < 0 {
			return fmt.Errorf("topology: concentration = %d", s.Concentration)
		}
		return nil
	case KindMesh, KindTorus:
		if len(s.Dims) == 0 {
			return fmt.Errorf("topology: %s needs at least one dimension", s.Kind)
		}
		for _, k := range s.Dims {
			if k < 2 {
				return fmt.Errorf("topology: %s dimension radix %d < 2", s.Kind, k)
			}
		}
		if s.Concentration < 1 {
			return fmt.Errorf("topology: concentration = %d", s.Concentration)
		}
		return nil
	case KindClos:
		if s.Leaves < 2 || s.Spines < 1 || s.Down < 1 {
			return fmt.Errorf("topology: clos %dx%dx%d needs ≥2 leaves, ≥1 spine, ≥1 endpoint per leaf",
				s.Leaves, s.Spines, s.Down)
		}
		return nil
	default:
		return fmt.Errorf("topology: unknown kind %d", s.Kind)
	}
}

// Routers returns the fabric's router count.
func (s Spec) Routers() int {
	if s.Kind == KindClos {
		return s.Leaves + s.Spines
	}
	n := 1
	for _, k := range s.Dims {
		n *= k
	}
	return n
}

// Endpoints returns the fabric's endpoint count. A fully connected cluster
// with the default concentration has none until ForRadix resolves it.
func (s Spec) Endpoints() int {
	s = s.normalized()
	if s.Kind == KindClos {
		return s.Leaves * s.Down
	}
	return s.Routers() * s.Concentration
}

// Radix returns the router port count the spec's port plan occupies: the
// larger of leaf and spine on a Clos. A fully connected cluster's routers
// take their port count from the router config instead, and must have at
// least this many.
func (s Spec) Radix() int {
	s = s.normalized()
	switch s.Kind {
	case KindFull:
		return s.Concentration + (s.Routers()-1)*s.Lanes
	case KindMesh, KindTorus:
		ports := s.Concentration
		for _, k := range s.Dims {
			ports += directions(s.Kind == KindTorus, k) * s.Lanes
		}
		return ports
	case KindClos:
		return max(s.Down+s.Spines*s.Lanes, s.Leaves*s.Lanes)
	}
	return 0
}

// AnalyticTransitLinks is the closed-form switch-to-switch link count the
// TransitLinks inventory must match: lanes × directed-channel pairs. A full
// cluster of n routers has n(n−1)/2 pairs; a mesh dimension of radix k
// contributes (k−1) neighbour pairs per row; a torus dimension contributes
// k (the wrap closes the ring); a Clos connects every leaf to every spine.
func (s Spec) AnalyticTransitLinks() int {
	s = s.normalized()
	switch s.Kind {
	case KindFull:
		n := s.Routers()
		return n * (n - 1) / 2 * s.Lanes
	case KindMesh, KindTorus:
		routers := s.Routers()
		total := 0
		for _, k := range s.Dims {
			per := routers / k * (k - 1) // neighbour pairs in this dimension
			if s.Kind == KindTorus {
				per = routers // the wrap link closes each of the routers/k rings
			}
			total += per
		}
		return total * s.Lanes
	case KindClos:
		return s.Leaves * s.Spines * s.Lanes
	}
	return 0
}

// geometry is a fabric shape's endpoint placement and deterministic,
// fault-free routing. step is the single next-hop rule both the routers'
// routing and Layout.Path follow.
type geometry interface {
	// endpoint maps an endpoint to its router and local port.
	endpoint(ep int) (router, port int)
	// step returns the first lane of the channel router at takes toward
	// router dst (at ≠ dst), and the router that channel reaches.
	step(at, dst int) (port, next int)
	// route is the routers' fault-free core.RoutingFunc.
	route(at int, msg *flit.Message, buf []int) []int
}

// appendLanes appends the lanes-wide channel starting at port p.
func appendLanes(buf []int, p, lanes int) []int {
	for l := 0; l < lanes; l++ {
		buf = append(buf, p+l)
	}
	return buf
}

// Layout is a spec's wiring and fault-free routing, fixed before any router
// exists: Build wires it into a fabric, and the analytic model
// (internal/calculus) prices the same routes through Path.
type Layout struct {
	spec    Spec
	geo     geometry
	ports   []int         // port count per router
	transit []TransitLink // switch-to-switch inventory, in wiring order
	vcSel   core.VCSelFunc
}

// Layout lays the spec out on routers of the given port count, which only a
// fully connected cluster uses; the other kinds size their routers from the
// spec.
func (s Spec) Layout(ports int) (*Layout, error) {
	s = s.ForRadix(ports)
	if err := s.Validate(); err != nil {
		return nil, err
	}
	l := &Layout{spec: s}
	switch s.Kind {
	case KindFull:
		if s.Concentration < 1 || ports < s.Radix() {
			return nil, fmt.Errorf("topology: %s needs at least %d-port routers, got %d",
				s, max(s.Radix(), (s.Routers()-1)*s.Lanes+1), ports)
		}
		c := &clique{n: s.Routers(), conc: s.Concentration, lanes: s.Lanes}
		l.geo, l.transit = c, c.transit()
		l.ports = uniform(c.n, ports)
	case KindMesh, KindTorus:
		g := newGrid(s)
		l.geo, l.transit = g, g.transit()
		l.ports = uniform(g.routers, s.Radix())
		if g.torus {
			l.vcSel = g.datelineSel
		}
	case KindClos:
		c := &closGeom{leaves: s.Leaves, spines: s.Spines, down: s.Down, lanes: s.Lanes}
		l.geo, l.transit = c, c.transit()
		l.ports = append(uniform(c.leaves, c.down+c.spines*c.lanes), uniform(c.spines, c.leaves*c.lanes)...)
	}
	return l, nil
}

func uniform(n, v int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = v
	}
	return out
}

// Endpoints returns the endpoint count.
func (l *Layout) Endpoints() int { return l.spec.Endpoints() }

// arenaShape returns the router count Build sizes the shared arena for and
// base at the largest router's port count: the larger Clos router shape,
// smaller routers carving less.
func (l *Layout) arenaShape(base core.Config) (int, core.Config) {
	base.Ports = slices.Max(l.ports)
	return len(l.ports), base
}

// ArenaBytes estimates the router state Build allocates for this layout
// with routers configured by base (core.ArenaBytes).
func (l *Layout) ArenaBytes(base core.Config) float64 {
	return core.ArenaBytes(l.arenaShape(base))
}

// TransitLinks returns the switch-to-switch link inventory in wiring order.
func (l *Layout) TransitLinks() []TransitLink { return l.transit }

// Path appends to buf the routers a fault-free message from endpoint src
// crosses on its way to endpoint dst, both end routers included: the walk
// the routers' own routing takes, following its first candidate lane at
// every hop.
func (l *Layout) Path(src, dst int, buf []int) []int {
	at, _ := l.geo.endpoint(src)
	to, _ := l.geo.endpoint(dst)
	buf = append(buf, at)
	for at != to {
		_, at = l.geo.step(at, to)
		buf = append(buf, at)
	}
	return buf
}

// clique is a fully connected cluster: n routers with conc endpoints on
// their first ports, then one lanes-wide channel per other router in
// ascending router order. Every pair is one hop apart, so deterministic
// routing is trivially deadlock-free.
type clique struct{ n, conc, lanes int }

func (c *clique) endpoint(ep int) (int, int) { return ep / c.conc, ep % c.conc }

// toward returns the first lane's port on router s of the channel to t.
func (c *clique) toward(s, t int) int {
	rank := t
	if t > s {
		rank--
	}
	return c.conc + rank*c.lanes
}

func (c *clique) step(at, dst int) (int, int) { return c.toward(at, dst), dst }

// route delivers locally or crosses the direct channel.
func (c *clique) route(at int, msg *flit.Message, buf []int) []int {
	dst, port := c.endpoint(msg.Dst)
	if dst == at {
		return append(buf, port)
	}
	return appendLanes(buf, c.toward(at, dst), c.lanes)
}

func (c *clique) transit() []TransitLink {
	links := make([]TransitLink, 0, c.n*(c.n-1)/2*c.lanes)
	for s := 0; s < c.n; s++ {
		for t := s + 1; t < c.n; t++ {
			for l := 0; l < c.lanes; l++ {
				links = append(links, TransitLink{A: s, B: t, APort: c.toward(s, t) + l, BPort: c.toward(t, s) + l})
			}
		}
	}
	return links
}

// grid is the port/coordinate geometry of a mesh or torus: router index =
// Σ coord[d]·stride[d] with dimension 0 fastest, endpoints on the first
// Concentration ports, then per dimension its lane groups.
type grid struct {
	dims    []int
	stride  []int
	first   []int // first[d] is dimension d's first lane port
	conc    int
	lanes   int
	torus   bool
	routers int
}

func newGrid(s Spec) *grid {
	g := &grid{dims: s.Dims, conc: s.Concentration, lanes: s.Lanes, torus: s.Kind == KindTorus}
	g.stride = make([]int, len(s.Dims))
	g.first = make([]int, len(s.Dims))
	g.routers = 1
	port := g.conc
	for d, k := range s.Dims {
		g.stride[d] = g.routers
		g.routers *= k
		g.first[d] = port
		port += directions(g.torus, k) * g.lanes
	}
	return g
}

// directions is the number of lane groups a dimension of radix k gives each
// router: a plus and a minus group, except on a radix-2 mesh dimension,
// where every router has its one neighbour on a single group. That is what
// lays "mesh2x2l2" out as the paper's fat-mesh port plan: endpoints on
// ports 0–3, the two X lanes on 4–5, the two Y lanes on 6–7. Tori keep both
// groups, because datelineSel decodes the direction from a uniform stride.
func directions(torus bool, k int) int {
	if !torus && k == 2 {
		return 1
	}
	return 2
}

// coord extracts the router's coordinate in dimension d.
func (g *grid) coord(router, d int) int { return router / g.stride[d] % g.dims[d] }

// port returns the first lane's port for dimension d, direction dir
// (0 = plus, 1 = minus); lanes are consecutive.
func (g *grid) port(d, dir int) int {
	if directions(g.torus, g.dims[d]) == 1 {
		return g.first[d]
	}
	return g.first[d] + dir*g.lanes
}

func (g *grid) endpoint(ep int) (int, int) { return ep / g.conc, ep % g.conc }

// step is the dimension-order move: the first dimension (lowest index
// first) whose coordinate differs, along the mesh row, or the shorter way
// around the torus ring (ties, k even at distance k/2, go plus).
func (g *grid) step(at, dst int) (int, int) {
	for d, k := range g.dims {
		c, t := g.coord(at, d), g.coord(dst, d)
		if c == t {
			continue
		}
		plus := t > c
		if g.torus {
			fwd := (t - c + k) % k
			plus = fwd <= k-fwd
		}
		if plus {
			if c == k-1 { // torus wrap
				return g.port(d, 0), at - (k-1)*g.stride[d]
			}
			return g.port(d, 0), at + g.stride[d]
		}
		if c == 0 { // torus wrap
			return g.port(d, 1), at + (k-1)*g.stride[d]
		}
		return g.port(d, 1), at - g.stride[d]
	}
	panic("topology: step at the destination router")
}

// route is deterministic dimension-order routing: correct dimension 0,
// then 1, …; at the destination router, deliver on the endpoint port. All
// lanes of the chosen channel are returned so the router picks the
// least-loaded (§3.4).
func (g *grid) route(at int, msg *flit.Message, buf []int) []int {
	dst, port := g.endpoint(msg.Dst)
	if dst == at {
		return append(buf, port)
	}
	p, _ := g.step(at, dst)
	return appendLanes(buf, p, g.lanes)
}

// transit wires each router's plus side to its neighbour's minus side,
// dimension-major: every X link, then every Y link. A mesh row's last
// router has no plus neighbour; a torus wraps. The fault injector gives
// each link its own random substream in this order.
func (g *grid) transit() []TransitLink {
	links := make([]TransitLink, 0, len(g.dims)*g.routers*g.lanes) // a torus's count; a mesh needs fewer
	for d, k := range g.dims {
		for r := 0; r < g.routers; r++ {
			c := g.coord(r, d)
			if c == k-1 && !g.torus {
				continue
			}
			nb := r + g.stride[d]
			if c == k-1 {
				nb = r - (k-1)*g.stride[d] // wrap
			}
			for l := 0; l < g.lanes; l++ {
				links = append(links, TransitLink{A: r, B: nb, APort: g.port(d, 0) + l, BPort: g.port(d, 1) + l})
			}
		}
	}
	return links
}

// datelineSel is the torus deadlock-freedom hook (core.VCSelFunc): each
// class partition is split into a pre-dateline and a post-dateline half,
// and a ring channel's half is a pure function of the router coordinate c,
// the message's source coordinate s in the ring's dimension, and the travel
// direction — under dimension-order routing a message's coordinate in
// dimension d stays at its source's until d is corrected, so "has the worm
// crossed the wrap link" needs no per-message state. Plus-direction channel
// c→c+1 is post-dateline iff it is the wrap itself (c = k−1) or lies past
// it (c < s); minus-direction c→c−1 mirrors. Within each half the channel
// dependency chain is strictly monotone, so no cycle survives.
func (g *grid) datelineSel(routerID, outPort int, msg *flit.Message, lo, hi int) (int, int) {
	if outPort < g.conc || hi-lo < 2 {
		return lo, hi // endpoint port, or a partition too narrow to split
	}
	rel := outPort - g.conc
	d := rel / (2 * g.lanes)
	dir := rel / g.lanes % 2
	c := g.coord(routerID, d)
	srcRouter, _ := g.endpoint(msg.Src)
	s := g.coord(srcRouter, d)
	k := g.dims[d]
	var post bool
	if dir == 0 {
		post = c == k-1 || c < s
	} else {
		post = c == 0 || c > s
	}
	mid := lo + (hi-lo)/2
	if post {
		return mid, hi
	}
	return lo, mid
}

// closGeom is the leaf-spine geometry: leaves are routers [0, L), spines
// [L, L+S). A leaf's ports are its Down endpoints then S uplink lane
// groups; a spine's ports are L downlink lane groups.
type closGeom struct {
	leaves, spines, down, lanes int
}

// leafUp returns the first lane's uplink port on a leaf toward spine sp.
func (c *closGeom) leafUp(sp int) int { return c.down + sp*c.lanes }

// spineDown returns the first lane's downlink port on a spine toward leaf l.
func (c *closGeom) spineDown(l int) int { return l * c.lanes }

func (c *closGeom) endpoint(ep int) (int, int) { return ep / c.down, ep % c.down }

// step follows route's first candidate: a leaf climbs to the first spine, a
// spine descends to the destination leaf.
func (c *closGeom) step(at, dst int) (int, int) {
	if at >= c.leaves {
		return c.spineDown(dst), dst
	}
	return c.leafUp(0), c.leaves
}

// route is up/down routing: a leaf delivers locally or offers every spine
// uplink lane (the router load-balances over all of them — the Clos
// generalization of the fat-link pick); a spine has exactly one leaf group
// down. Up channels precede down channels in every path, so the channel
// dependency graph is acyclic and the routing deadlock-free with no VC
// dating.
func (c *closGeom) route(at int, msg *flit.Message, buf []int) []int {
	dstLeaf, dstPort := c.endpoint(msg.Dst)
	if at >= c.leaves { // spine: down to the destination leaf
		return appendLanes(buf, c.spineDown(dstLeaf), c.lanes)
	}
	if at == dstLeaf {
		return append(buf, dstPort)
	}
	for sp := 0; sp < c.spines; sp++ { // up: any spine, any lane
		buf = appendLanes(buf, c.leafUp(sp), c.lanes)
	}
	return buf
}

func (c *closGeom) transit() []TransitLink {
	links := make([]TransitLink, 0, c.leaves*c.spines*c.lanes)
	for leaf := 0; leaf < c.leaves; leaf++ {
		for sp := 0; sp < c.spines; sp++ {
			for l := 0; l < c.lanes; l++ {
				links = append(links, TransitLink{A: leaf, B: c.leaves + sp,
					APort: c.leafUp(sp) + l, BPort: c.spineDown(leaf) + l})
			}
		}
	}
	return links
}

// Net is a wired fabric plus its endpoint handles, indexed by endpoint id.
type Net struct {
	Fabric  *network.Fabric
	Routers []*core.Router
	NIs     []*network.NI
	Sinks   []*network.Sink

	transit []TransitLink
}

// TransitLink is one bidirectional switch-to-switch channel lane: switch
// A's port APort wired to switch B's port BPort (and back). The fault
// injector uses this inventory to pick fault targets, and experiments use
// its length to convert dead links into a capacity fraction.
type TransitLink struct {
	A, B         int // switch indices
	APort, BPort int
}

// TransitLinks returns the switch-to-switch link inventory (empty for a
// single switch).
func (n *Net) TransitLinks() []TransitLink { return n.transit }

// LiveTransitLinks counts transit links whose both directions are up.
func (n *Net) LiveTransitLinks() int {
	live := 0
	for _, l := range n.transit {
		if n.Routers[l.A].LinkUp(l.APort) && n.Routers[l.B].LinkUp(l.BPort) {
			live++
		}
	}
	return live
}

// Endpoints returns the number of endpoint nodes.
func (n *Net) Endpoints() int { return len(n.NIs) }

// classPartitions returns the sizes of the non-empty VC class partitions.
func classPartitions(cfg core.Config) []int {
	var parts []int
	if cfg.RTVCs > 0 {
		parts = append(parts, cfg.RTVCs)
	}
	if cfg.VCs-cfg.RTVCs > 0 {
		parts = append(parts, cfg.VCs-cfg.RTVCs)
	}
	return parts
}

// Build constructs the fabric spec describes — the only fabric constructor.
// base configures every router; Build overwrites its ID, Route, VCSel and
// Arena, and its Ports everywhere but on a fully connected cluster, whose
// routers take their port count from it. All router state is carved from
// one shared struct-of-arrays arena, endpoint state from the fabric's
// endpoint arena, and every port the layout leaves unwired is terminated
// with a network.DeadEnd so a route there fails loudly. Before it allocates,
// Build refuses a fabric whose routers exceed a router's limits,
// sched.MaxVCs VCs per physical channel and core.MaxPorts ports.
func Build(engine *sim.Engine, spec Spec, base core.Config) (*Net, error) {
	if base.VCs > sched.MaxVCs {
		return nil, fmt.Errorf("topology: %d VCs per physical channel, but a router supports at most %d",
			base.VCs, sched.MaxVCs)
	}
	l, err := spec.Layout(base.Ports)
	if err != nil {
		return nil, err
	}
	if l.vcSel != nil {
		// Dateline deadlock freedom needs ≥2 VCs in every class partition
		// that transit traffic can use.
		for _, p := range classPartitions(base) {
			if p < 2 {
				return nil, fmt.Errorf(
					"topology: torus needs ≥2 VCs per class partition for dateline routing (VCs %d, RTVCs %d)",
					base.VCs, base.RTVCs)
			}
		}
	}
	radix := slices.Max(l.ports)
	if radix > core.MaxPorts {
		return nil, fmt.Errorf("topology: %s needs %d-port routers, but a router supports at most %d",
			l.spec, radix, core.MaxPorts)
	}
	base.Arena = core.NewArena(l.arenaShape(base))
	base.VCSel = l.vcSel
	base.Route = l.geo.route
	var live *liveRoute
	if len(l.transit) > 0 {
		live = newLiveRoute(l, base.Arena)
		base.Route = live.route
	}
	eps := l.Endpoints()
	f := network.NewFabric(engine, base.Period, eps, base.VCs)
	net := &Net{Fabric: f, transit: l.transit}
	for r, ports := range l.ports {
		cfg := base
		cfg.ID, cfg.Ports = r, ports
		rt, err := core.New(cfg)
		if err != nil {
			return nil, err
		}
		net.Routers = append(net.Routers, rt)
		f.AddRouter(rt)
	}
	if live != nil {
		live.routers = net.Routers
	}
	wired := make([]bool, len(l.ports)*radix)
	for ep := 0; ep < eps; ep++ {
		r, port := l.geo.endpoint(ep)
		ni, sink := f.AttachEndpoint(net.Routers[r], port, ep)
		net.NIs = append(net.NIs, ni)
		net.Sinks = append(net.Sinks, sink)
		wired[r*radix+port] = true
	}
	for _, t := range l.transit {
		f.Link(net.Routers[t.A], t.APort, net.Routers[t.B], t.BPort)
		f.Link(net.Routers[t.B], t.BPort, net.Routers[t.A], t.APort)
		wired[t.A*radix+t.APort], wired[t.B*radix+t.BPort] = true, true
	}
	for r, ports := range l.ports {
		for p := 0; p < ports; p++ {
			if !wired[r*radix+p] {
				net.Routers[r].Connect(p, network.DeadEnd{}, true)
			}
		}
	}
	return net, nil
}
