package topology

import (
	"cmp"
	"slices"

	"mediaworm/internal/core"
	"mediaworm/internal/flit"
)

// liveRoute is the fault-aware routing every multi-router fabric runs. While
// every transit port is up — one read of the fabric arena's dead-port count
// — it is exactly the layout's fault-free route. Once a link is down it
// BFSes the router graph over live links and steers each message toward
// the next hop of a shortest live path: a *global* detour, because a local
// fallback ("X is dead, try Y") can bounce a message between two routers
// forever. Ties go to the lowest neighbour id, and all live lanes of the
// chosen channel are returned so the router still load-balances across a
// surviving lane. Detours mix dimension orders, so routing under faults is
// no longer provably deadlock-free: that is the regime the network-layer
// progress watchdog exists for.
type liveRoute struct {
	geo     geometry
	arena   *core.Arena
	routers []*core.Router // filled by Build once the routers exist
	// nbrs lists each router's neighbours in ascending router id.
	nbrs [][]neighbour
	// dist and queue are BFS scratch, reused so routing never allocates.
	dist  []int32
	queue []int32
}

// neighbour is one router-to-router channel seen from its source router.
type neighbour struct {
	router int
	back   int   // index of the reverse channel in nbrs[router]
	ports  []int // the source router's lanes to router, in port order
}

// newLiveRoute builds the neighbour lists from the layout's transit
// inventory: every lane is one port on each of its two routers, so sorting
// the ports by (router, neighbour, port) lays every list out contiguously.
func newLiveRoute(l *Layout, arena *core.Arena) *liveRoute {
	type end struct{ router, nb, port int }
	ends := make([]end, 0, 2*len(l.transit))
	for _, t := range l.transit {
		ends = append(ends, end{t.A, t.B, t.APort}, end{t.B, t.A, t.BPort})
	}
	slices.SortFunc(ends, func(x, y end) int {
		return cmp.Or(x.router-y.router, x.nb-y.nb, x.port-y.port)
	})
	n := len(l.ports)
	lr := &liveRoute{geo: l.geo, arena: arena, nbrs: make([][]neighbour, n),
		dist: make([]int32, n), queue: make([]int32, n)}
	ports := make([]int, len(ends))
	all := make([]neighbour, 0, len(ends))
	first := 0 // index into all of the current router's first neighbour
	for i, e := range ends {
		ports[i] = e.port
		if i > 0 && e.router == ends[i-1].router && e.nb == ends[i-1].nb {
			nb := &all[len(all)-1]
			nb.ports = nb.ports[:len(nb.ports)+1]
			continue
		}
		if i > 0 && e.router != ends[i-1].router {
			first = len(all)
		}
		all = append(all, neighbour{router: e.nb, ports: ports[i : i+1 : len(ports)]})
		lr.nbrs[e.router] = all[first:]
	}
	for a := range lr.nbrs {
		for i := range lr.nbrs[a] {
			b := lr.nbrs[a][i].router
			lr.nbrs[a][i].back = slices.IndexFunc(lr.nbrs[b], func(x neighbour) bool { return x.router == a })
		}
	}
	return lr
}

// route implements core.RoutingFunc.
func (lr *liveRoute) route(at int, msg *flit.Message, buf []int) []int {
	if lr.arena.DeadTransitPorts() == 0 {
		return lr.geo.route(at, msg, buf)
	}
	dst, port := lr.geo.endpoint(msg.Dst)
	if dst == at {
		return append(buf, port)
	}
	// BFS from dst backwards over live directed channels, so dist[s] is
	// the live-hop distance from s to the destination router. It stops
	// once at is reached: every router nearer than at is settled by then.
	for i := range lr.dist {
		lr.dist[i] = -1
	}
	lr.dist[dst] = 0
	lr.queue[0] = int32(dst)
	for head, tail := 0, 1; head < tail && lr.dist[at] < 0; head++ {
		t := int(lr.queue[head])
		for _, nb := range lr.nbrs[t] {
			s := nb.router
			if lr.dist[s] < 0 && lr.anyLive(s, lr.nbrs[s][nb.back].ports) {
				lr.dist[s] = lr.dist[t] + 1
				lr.queue[tail] = int32(s)
				tail++
			}
		}
	}
	if lr.dist[at] < 0 {
		return nil // unreachable: the router kills the message
	}
	for _, nb := range lr.nbrs[at] {
		if lr.dist[nb.router] != lr.dist[at]-1 || !lr.anyLive(at, nb.ports) {
			continue
		}
		for _, p := range nb.ports {
			if lr.routers[at].LinkUp(p) {
				buf = append(buf, p)
			}
		}
		return buf
	}
	return nil
}

// anyLive reports whether router r has any of ports up.
func (lr *liveRoute) anyLive(r int, ports []int) bool {
	for _, p := range ports {
		if lr.routers[r].LinkUp(p) {
			return true
		}
	}
	return false
}
