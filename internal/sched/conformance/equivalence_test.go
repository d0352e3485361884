package conformance

import (
	"bytes"
	"fmt"
	"testing"

	"mediaworm/internal/sched"
)

// TestRotationEquivalences pins the identities that let one round-robin
// rotation serve three disciplines. Flits cost one unit each, so a DRR
// visit's deficit is spent or forfeited before the rotation moves on: DRR
// with quantum q and weights w grants exactly WRR's pick sequence at weights
// q·w, and round-robin is WRR at unit weights whatever weights and quantum
// it is handed. WRR and SP+WRR ignore the quantum. Each pair runs the same
// seeded traffic, idle gaps included, and must agree grant for grant.
func TestRotationEquivalences(t *testing.T) {
	loadSets := [][]float64{
		{0.3, 0.2, 0.25, 0.15}, // underloaded: frequent idle gaps
		{0.05, 0.9, 0.1, 0.4},  // one hog among sparse neighbours
		{0.6, 0.5, 0.4, 0.3},   // oversubscribed
	}
	weightSets := [][]int{{3, 1, 2, 1}, {1, 4, 1, 2}}
	tiers := []int{0, 0, 1, 1}
	same := func(what string, a, b Config) {
		t.Helper()
		ra, rb := Run(a), Run(b)
		if len(ra.Picks) == 0 || !bytes.Equal(ra.Picks, rb.Picks) {
			t.Fatalf("%s: pick sequences differ (seed %d, loads %v, weights %v)", what, a.Seed, a.Loads, a.Weights)
		}
	}
	for seed := uint64(1); seed <= 4; seed++ {
		for _, loads := range loadSets {
			for _, w := range weightSets {
				base := Config{VCs: len(w), Cycles: 2000, Seed: seed, Loads: loads}

				rr, unit := base, base
				rr.Kind, rr.Weights, rr.Quantum = sched.RoundRobin, w, 2
				unit.Kind = sched.WRR
				same("round-robin vs wrr at unit weights", rr, unit)

				for q := 0; q <= 3; q++ {
					drr, scaled := base, base
					drr.Kind, drr.Weights, drr.Quantum = sched.DRR, w, q
					scaled.Kind, scaled.Weights = sched.WRR, make([]int, len(w))
					for v := range w {
						scaled.Weights[v] = max(q, 1) * w[v]
					}
					same(fmt.Sprintf("drr q=%d vs wrr at q·w", q), drr, scaled)
				}

				for _, k := range []sched.Kind{sched.WRR, sched.SPWRR} {
					withQ, noQ := base, base
					withQ.Kind, withQ.Weights, withQ.Tiers, withQ.Quantum = k, w, tiers, 2
					noQ.Kind, noQ.Weights, noQ.Tiers = k, w, tiers
					same(k.String()+" quantum 2 vs 0", withQ, noQ)
				}
			}
		}
	}
}
