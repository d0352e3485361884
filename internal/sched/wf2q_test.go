package sched

import (
	"bytes"
	"math"
	"testing"

	"mediaworm/internal/rng"
	"mediaworm/internal/snapshot"
)

// twoPassWF2Q is the two-pass WF²Q+ Pick the one-pass arbiter replaced: a
// first pass stamps arrivals and finds the least start tag, a second picks
// the eligible minimum finish tag after the clamp. It is the reference
// TestWF2QOnePassMatchesTwoPass holds the arbiter to.
type twoPassWF2Q struct {
	p      Params
	v      float64
	s, f   []float64
	active uint64
}

func (a *twoPassWF2Q) Pick(cands []Candidate) int {
	var now uint64
	minS := math.Inf(1)
	wsum := 0.0
	for _, c := range cands {
		v := c.VC
		bit := uint64(1) << uint(v)
		now |= bit
		if a.active&bit == 0 {
			s := a.v
			if a.f[v] > s {
				s = a.f[v]
			}
			a.s[v] = s
			a.f[v] = s + 1/float64(a.p.weight(v))
		}
		if a.s[v] < minS {
			minS = a.s[v]
		}
		wsum += float64(a.p.weight(v))
	}
	a.active = now
	if a.v < minS {
		a.v = minS
	}
	best := -1
	for i, c := range cands {
		if a.s[c.VC] > a.v {
			continue
		}
		if best == -1 {
			best = i
			continue
		}
		fi, fb := a.f[c.VC], a.f[cands[best].VC]
		if fi < fb || (fi == fb && c.VC < cands[best].VC) {
			best = i
		}
	}
	win := cands[best].VC
	a.s[win] = a.f[win]
	a.f[win] += 1 / float64(a.p.weight(win))
	a.v += 1 / wsum
	return best
}

// sameTags reports the first bit-level difference between the arbiter's
// virtual time and tags and the reference's.
func sameTags(t *testing.T, got *wf2qArbiter, want *twoPassWF2Q) {
	t.Helper()
	if math.Float64bits(got.v) != math.Float64bits(want.v) || got.active != want.active {
		t.Fatalf("V %v active %#x, want V %v active %#x", got.v, got.active, want.v, want.active)
	}
	for v := range want.s {
		g := got.tags[v]
		if math.Float64bits(g.s) != math.Float64bits(want.s[v]) || math.Float64bits(g.f) != math.Float64bits(want.f[v]) {
			t.Fatalf("VC %d: S %v F %v, want S %v F %v", v, g.s, g.f, want.s[v], want.f[v])
		}
		if w := float64(got.p.weight(v)); g.w != w || g.inv != 1/w {
			t.Fatalf("VC %d: weight record %v, 1/w %v, want %v", v, g.w, g.inv, w)
		}
	}
}

// roundTrip encodes a and restores the state into a fresh arbiter built
// from the same Params.
func roundTrip(t *testing.T, a *wf2qArbiter) *wf2qArbiter {
	t.Helper()
	w := snapshot.NewWriter()
	if err := EncodeArbiter(w, a); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := w.Flush(&buf); err != nil {
		t.Fatal(err)
	}
	rd, err := snapshot.NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	b := newWF2Q(a.p)
	if err := RestoreArbiter(rd, b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestWF2QOnePassMatchesTwoPass holds the one-pass Pick to the two-pass
// reference over random candidate sets: unordered, tied (equal weights
// leave many finish tags equal), re-arriving as VCs drop out of the
// backlog and return, with weights 1–8, sized for the VCs in use or for
// MaxVCs, and across an encode/restore halfway through. Every grant, the
// virtual time and every tag must agree to the bit.
func TestWF2QOnePassMatchesTwoPass(t *testing.T) {
	src := rng.New(22)
	for trial := 0; trial < 300; trial++ {
		n := 1 + src.Intn(20)
		p := Params{Weights: make([]int, n)}
		tied := trial%3 == 0
		for v := range p.Weights {
			p.Weights[v] = 1 + src.Intn(8)
			if tied {
				p.Weights[v] = 2
			}
		}
		if trial%2 == 0 {
			p.VCs = n // odd trials size the records for MaxVCs
		}
		got := NewArbiter(WF2Q, p).(*wf2qArbiter)
		want := &twoPassWF2Q{p: p, s: make([]float64, n), f: make([]float64, n)}
		cands := make([]Candidate, 0, n)
		for pick := 0; pick < 200; pick++ {
			if pick == 100 {
				got = roundTrip(t, got)
			}
			cands = cands[:0]
			for _, v := range src.Perm(n) {
				if len(cands) == 0 || src.Intn(3) > 0 {
					cands = append(cands, Candidate{VC: v})
				}
			}
			if g, w := got.Pick(cands), want.Pick(cands); g != w {
				t.Fatalf("trial %d pick %d over %v: granted index %d, two-pass grants %d", trial, pick, cands, g, w)
			}
			sameTags(t, got, want)
		}
	}
}
