package core

import (
	"testing"

	"mediaworm/internal/flit"
	"mediaworm/internal/rng"
	"mediaworm/internal/sched"
	"mediaworm/internal/sim"
)

// seqCapture records delivery order per message and counts flits.
type seqCapture struct {
	nextSeq map[*flit.Message]int
	flits   int
	t       *testing.T
}

func newSeqCapture(t *testing.T) *seqCapture {
	return &seqCapture{nextSeq: map[*flit.Message]int{}, t: t}
}

func (c *seqCapture) Full() *uint64 { return &noneFull }

func (c *seqCapture) Accept(vc int, f flit.Flit) {
	if f.Seq != c.nextSeq[f.Msg] {
		c.t.Fatalf("message %d flit %d delivered out of order (want %d)",
			f.Msg.ID, f.Seq, c.nextSeq[f.Msg])
	}
	c.nextSeq[f.Msg]++
	c.flits++
}

// upstreamVC models a wormhole-correct upstream feeder: messages on one VC
// are delivered contiguously, one flit per link cycle at most.
type upstreamVC struct {
	msgs []*flit.Message
	mi   int // current message
	fi   int // next flit of the current message
}

func (u *upstreamVC) done() bool { return u.mi == len(u.msgs) }

// TestPropertyConservationAndOrder drives randomized router configurations
// with randomized wormhole traffic and checks the core invariants: every
// injected flit is delivered exactly once, per-message flit order is
// preserved, destinations are respected, and the router quiesces.
func TestPropertyConservationAndOrder(t *testing.T) {
	for trial := 0; trial < 40; trial++ {
		r := rng.NewStream(77, "core-property").Split(uint64(trial))
		ports := 2 + r.Intn(6)   // 2..7
		vcs := 1 + r.Intn(4)     // 1..4
		rtVCs := r.Intn(vcs + 1) // 0..vcs
		policy := sched.Kind(r.Intn(3))
		full := r.Intn(2) == 1
		iters := 1 + r.Intn(2)
		exclusive := r.Intn(2) == 1
		cfg := Config{
			Ports: ports, VCs: vcs, RTVCs: rtVCs,
			BufferDepth: 2 + r.Intn(30), StageDepth: 1 + r.Intn(6),
			FullCrossbar: full, Policy: policy, Period: period,
			AllocatorIterations:  iters,
			ExclusiveEndpointVCs: exclusive,
			Route:                func(_ int, m *flit.Message, buf []int) []int { return append(buf, m.Dst) },
		}
		router, err := New(cfg)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		caps := make([]*seqCapture, ports)
		for p := 0; p < ports; p++ {
			caps[p] = newSeqCapture(t)
			router.Connect(p, caps[p], true)
		}

		// Random messages spread over input (port, vc) feeders.
		feeders := make([][]upstreamVC, ports)
		for p := range feeders {
			feeders[p] = make([]upstreamVC, vcs)
		}
		totalFlits := 0
		nMsgs := 5 + r.Intn(60)
		for i := 0; i < nMsgs; i++ {
			p := r.Intn(ports)
			v := r.Intn(vcs)
			class := flit.VBR
			vtick := sim.Time(1 + r.Intn(500))
			if rtVCs == 0 || (rtVCs < vcs && r.Intn(2) == 1) {
				class = flit.BestEffort
				vtick = sim.Forever
			}
			m := &flit.Message{
				ID: uint64(i + 1), StreamID: i, Class: class, MsgsInFrame: 1,
				Flits: 1 + r.Intn(40), Vtick: vtick,
				Dst: r.Intn(ports), DstVC: r.Intn(vcs),
			}
			fv := &feeders[p][v]
			fv.msgs = append(fv.msgs, m)
			totalFlits += m.Flits
		}

		// Drive: one flit per port per cycle from a random eligible VC,
		// respecting credits; step the router; stop when drained.
		now := period
		idle := 0
		for cycle := 0; idle < 200; cycle++ {
			if cycle > 200000 {
				t.Fatalf("trial %d: no progress after %d cycles", trial, cycle)
			}
			progressed := false
			for p := 0; p < ports; p++ {
				// Gather VCs with pending flits and credit.
				var eligible []int
				for v := 0; v < vcs; v++ {
					if !feeders[p][v].done() && hasCredit(router, p, v) {
						eligible = append(eligible, v)
					}
				}
				if len(eligible) == 0 {
					continue
				}
				v := eligible[r.Intn(len(eligible))]
				fv := &feeders[p][v]
				m := fv.msgs[fv.mi]
				router.Deliver(p, v, flit.Flit{Msg: m, Seq: fv.fi, Enq: now})
				fv.fi++
				if fv.fi == m.Flits {
					fv.mi++
					fv.fi = 0
				}
				progressed = true
			}
			router.Step(now)
			if err := router.CheckOccupancy(); err != nil {
				t.Fatalf("trial %d cycle %d: %v", trial, cycle, err)
			}
			now += period
			if progressed || !router.Quiesced() {
				idle = 0
			} else {
				idle++
			}
		}

		if !router.Quiesced() {
			t.Fatalf("trial %d: router did not quiesce", trial)
		}
		delivered := 0
		for p, c := range caps {
			for m, n := range c.nextSeq {
				if m.Dst != p {
					t.Fatalf("trial %d: message %d for port %d arrived at %d",
						trial, m.ID, m.Dst, p)
				}
				if n != m.Flits {
					t.Fatalf("trial %d: message %d delivered %d/%d flits",
						trial, m.ID, n, m.Flits)
				}
			}
			delivered += c.flits
		}
		if delivered != totalFlits {
			t.Fatalf("trial %d: delivered %d flits, injected %d", trial, delivered, totalFlits)
		}
		st := router.Stats()
		if st.FlitsSwitched != uint64(totalFlits) || st.FlitsTransmitted != uint64(totalFlits) {
			t.Fatalf("trial %d: stats %+v vs %d flits", trial, st, totalFlits)
		}
	}
}
