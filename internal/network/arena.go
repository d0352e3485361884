package network

import "mediaworm/internal/sched"

// EndpointArena is the NI/sink counterpart of core.Arena: a struct-of-arrays
// backing store for endpoint state. NewFabric sizes one arena for all of the
// fabric's endpoints and AttachEndpoint carves each NI, sink, per-VC
// injection-queue table and arbitration scratch buffer as contiguous
// subslices, so a thousand-endpoint torus costs four allocations instead of
// thousands. Like core.Arena, it is sized up front: attaching more
// endpoints than the fabric was built for is a programming error and
// panics. See DESIGN.md §18.
//
// An arena is single-goroutine, like the fabric it backs.
type EndpointArena struct {
	nis   []NI              // backing slab; the fabric serializes its views
	sinks []Sink            // backing slab; the fabric serializes its views
	vcs   []niVC            // backing slab; the owning NIs serialize their views
	cands []sched.Candidate // backing slab; per-cycle scratch, never snapshotted
}

// NewEndpointArena preallocates slabs for `endpoints` endpoints whose
// injection interfaces run `vcs` virtual channels each.
func NewEndpointArena(endpoints, vcs int) *EndpointArena {
	return &EndpointArena{
		nis:   make([]NI, 0, endpoints),
		sinks: make([]Sink, 0, endpoints),
		vcs:   make([]niVC, 0, endpoints*vcs),
		cands: make([]sched.Candidate, 0, endpoints*vcs),
	}
}

// carve takes the next n elements of a slab, capped so the caller cannot
// grow into its neighbour's share.
func carve[T any](slab *[]T, n int) []T {
	off := len(*slab)
	*slab = (*slab)[:off+n]
	return (*slab)[off : off+n : off+n]
}
