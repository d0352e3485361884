package core

import (
	"math/bits"
	"testing"

	"mediaworm/internal/rng"
)

// TestPortSetRotateWalksTheRotation checks the stage-4 walk over a
// rotated port set against the allocator's rotation spelled out port by
// port, for random sets on routers of 1 to 127 ports and every start.
func TestPortSetRotateWalksTheRotation(t *testing.T) {
	src := rng.New(7)
	for trial := 0; trial < 2000; trial++ {
		n := 1 + src.Intn(127)
		var s portSet
		for p := 0; p < n; p++ {
			if src.Intn(3) == 0 {
				s.add(p)
			}
		}
		start := src.Intn(n)
		var want, got []int
		for k, p := 0, start; k < n; k, p = k+1, nextPort(p, n) {
			if s.has(p) {
				want = append(want, p)
			}
		}
		for bi, bw := range s.rotate(start) {
			for ; bw != 0; bw &= bw - 1 {
				got = append(got, (bi<<6+bits.TrailingZeros64(bw)+start)&127)
			}
		}
		if len(got) != len(want) {
			t.Fatalf("%d ports from %d, set %#x: walked %v, want %v", n, start, s, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%d ports from %d, set %#x: walked %v, want %v", n, start, s, got, want)
			}
		}
	}
}
