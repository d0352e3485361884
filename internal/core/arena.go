package core

import (
	"unsafe"

	"mediaworm/internal/flit"
	"mediaworm/internal/obs"
)

// Arena is a struct-of-arrays backing store for router hot state. A fabric
// builder allocates one arena sized for all of its routers, and every router
// carves its per-port/per-VC tables — input VCs, output VCs, flit buffer
// rings, its per-port words (occupancy, stage-full, phase, input-full,
// fresh-head and claimed-output target masks, stall counters and stage-4
// scratch), link-health flags and the per-VC and per-port counter blocks —
// as contiguous subslices of the shared slabs.
// The result is a handful of large allocations per fabric instead of
// O(routers × ports × VCs) small ones, and same-kind state packed
// contiguously across routers, which is what keeps a 256-router torus
// cache-friendly. See DESIGN.md §18.
//
// An arena is single-goroutine, like the routers it backs. Carving is
// construction-time only; at run time the routers keep its dead-transit-port
// count, and fault-aware routing reads it.
type Arena struct {
	inv    []inVC             // backing slab; the owning routers serialize their views
	outv   []outVC            // backing slab; the owning routers serialize their views
	flits  []flit.Flit        // backing slab; ring contents serialize through the owning routers
	words  []uint64           // backing slab; the owning routers serialize their stall counters and rebuild the masks on restore
	health []bool             // backing slab; the owning routers serialize their views
	vcc    []obs.VCCounters   // backing slab; the owning routers serialize their views
	pc     []obs.PortCounters // backing slab; the owning routers serialize their views
	// deadTransit is derived from the routers' link-health flags: it is
	// kept by Router.SetLinkUp and rebuilt as RestoreState rewrites them.
	deadTransit int
}

// arenaShape returns the per-router slab demand for a config.
func arenaShape(cfg Config) (pv, flits, words, health int) {
	pv = cfg.Ports * cfg.VCs
	flits = pv * (cfg.BufferDepth + cfg.StageDepth)
	// Per port, the input, output, stage-full, active, requested,
	// input-full and fresh-head masks, the stall counter and stage 4's
	// scratch word; per (input port, output port) pair, the claimed-output
	// target mask.
	words = 9*cfg.Ports + cfg.Ports*cfg.Ports
	health = 2 * cfg.Ports // linkUp + stalled
	return
}

// ArenaBytes estimates the bytes NewArena allocates for `routers` routers
// of cfg's shape, from the same slab demand, so a fabric too large to
// build can be refused before any of it is allocated.
func ArenaBytes(routers int, cfg Config) float64 {
	pv, flits, words, health := arenaShape(cfg)
	perVC := unsafe.Sizeof(inVC{}) + unsafe.Sizeof(outVC{}) + unsafe.Sizeof(obs.VCCounters{})
	return float64(routers) * (float64(pv)*float64(perVC) + float64(flits)*float64(unsafe.Sizeof(flit.Flit{})) +
		float64(8*words+health) + float64(cfg.Ports)*float64(unsafe.Sizeof(obs.PortCounters{})))
}

// NewArena preallocates slabs for `routers` routers of identical shape.
// Routers built with cfg.Arena pointing here draw from the slabs; a router
// built without one carves its own one-router arena. Arenas are sized up
// front, so carving past a slab's capacity is a programming error and
// panics.
func NewArena(routers int, cfg Config) *Arena {
	if routers < 1 {
		routers = 1
	}
	pv, flits, words, health := arenaShape(cfg)
	return &Arena{
		inv:    make([]inVC, 0, routers*pv),
		outv:   make([]outVC, 0, routers*pv),
		flits:  make([]flit.Flit, 0, routers*flits),
		words:  make([]uint64, 0, routers*words),
		health: make([]bool, 0, routers*health),
		vcc:    make([]obs.VCCounters, 0, routers*pv),
		pc:     make([]obs.PortCounters, 0, routers*cfg.Ports),
	}
}

// DeadTransitPorts counts the router-to-router output ports currently down
// across every router carved from the arena. Fault-aware routing reads it
// to take the fault-free fast path in O(1).
func (a *Arena) DeadTransitPorts() int { return a.deadTransit }

// carve takes the next n elements of a slab, capped so the caller cannot
// grow into its neighbour's share.
func carve[T any](slab *[]T, n int) []T {
	off := len(*slab)
	*slab = (*slab)[:off+n]
	return (*slab)[off : off+n : off+n]
}
