package core

import (
	"testing"

	"mediaworm/internal/flit"
	"mediaworm/internal/rng"
	"mediaworm/internal/sched"
)

// TestAllocatorWalksTheRotation checks the multiplexed crossbar's
// allocation order against the rotation spelled out port by port, on
// routers of 2 to MaxPorts ports, among them port counts that do not divide
// 64. Granted worms on a random subset of the input ports all target output
// 0's shared endpoint VC, so each cycle output 0 goes to the first port of
// the subset with flits left at or after the cycle's starting port,
// (now/Period) mod Ports, wrapping. With a claimer the same must hold of
// the second allocator pass: input J, outside the subset, also holds a worm
// for output 1, and FIFO prefers its worm for output 0 on a tie, so when J
// is first in the rotation every port of the subset is blocked and the
// second pass hands output 0 to the first of them and re-points J to output
// 1. Either way J forwards to output 1 every cycle.
func TestAllocatorWalksTheRotation(t *testing.T) {
	const flits = 3 // per worm of the subset
	src := rng.New(26)
	for _, n := range []int{2, 3, 4, 5, 7, 8, 12, 20, 33, 48, 61, 63, MaxPorts} {
		for trial := 0; trial < 6; trial++ {
			claimer := trial%2 == 1
			if claimer && n < 3 {
				continue
			}
			j, need := -1, 1 // the claimer's input port, the least subset
			if claimer {
				j, need = src.Intn(n), 2
			}
			var subset []int
			for len(subset) < need {
				subset = subset[:0]
				for p := 0; p < n; p++ {
					if p != j && src.Intn(2) == 0 {
						subset = append(subset, p)
					}
				}
			}
			cfg := testConfig(sched.FIFO)
			cfg.Ports, cfg.BufferDepth = n, flits*n
			r, _ := build(t, cfg)
			worm := func(p, v, dst, k int) {
				m := msg(uint64(p*cfg.VCs+v+1), dst, 0, k, 100)
				for i := 0; i < k; i++ {
					r.Deliver(p, v, flit.Flit{Msg: m, Seq: i})
				}
			}
			left := make([]int, n)
			for _, p := range subset {
				worm(p, 0, 0, flits)
				left[p] = flits
			}
			if claimer {
				worm(j, 0, 0, flits)
				worm(j, 1, 1, flits*len(subset))
			}
			// The first cycle routes and grants every header; a grant
			// reaches the crossbar a cycle later.
			now := run(r, period, 1)
			if got := r.Stats().FlitsSwitched; got != 0 {
				t.Fatalf("%d ports, subset %v: %d flits switched in the granting cycle", n, subset, got)
			}
			for todo := flits * len(subset); todo > 0; todo-- {
				start := int(now/period) % n
				want := -1
				for k := 0; k < n && want < 0; k++ {
					if q := (start + k) % n; left[q] > 0 {
						want = q
					}
				}
				before := make([]uint64, len(r.vcc))
				for i := range r.vcc {
					before[i] = r.vcc[i].Switched
				}
				now = run(r, now, 1)
				for i := range r.vcc {
					p, v := i/cfg.VCs, i%cfg.VCs
					wantMoved := p == want && v == 0 || p == j && v == 1
					if moved := r.vcc[i].Switched != before[i]; moved != wantMoved {
						t.Fatalf("%d ports, subset %v, claimer %d, start %d: input VC %d/%d switched %v, want %v (output 0 to port %d)",
							n, subset, j, start, p, v, moved, wantMoved, want)
					}
				}
				left[want]--
			}
		}
	}
}
