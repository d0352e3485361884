package experiments

import "mediaworm"

// SchedZoo experiments: the scheduler zoo beyond the paper's three
// disciplines. The paper compares FIFO, round-robin and Virtual Clock;
// internal/sched additionally implements WRR, DRR, WF²Q+ and hierarchical
// SP+WRR, and this sweep puts them side by side on the paper's workload.
// The conformance battery (internal/sched/conformance) certifies each
// discipline's scheduling properties in isolation; this experiment shows
// what those properties buy end to end.

// ZooPolicies are the disciplines the zoo sweep compares: the paper's
// Virtual Clock baseline plus the four weighted schedulers.
var ZooPolicies = []mediaworm.Policy{
	mediaworm.VirtualClock,
	mediaworm.WRR,
	mediaworm.DRR,
	mediaworm.WF2Q,
	mediaworm.SPWRR,
}

// zooConfig applies the zoo's common knobs: an 80:20 mix and a 3:1
// real-time weight bias so the weighted disciplines have something to
// express (with unit weights WRR degenerates to round-robin).
func zooConfig(cfg *mediaworm.Config, policy mediaworm.Policy) {
	cfg.RTShare = 0.8
	cfg.Policy = policy
	cfg.Sched.RTWeight = 3
	cfg.Sched.BEWeight = 1
	cfg.Sched.Quantum = 2
}

// SchedZoo sweeps every zoo discipline over the high-load operating points
// on the paper's 80:20 VBR/best-effort mix.
func SchedZoo(opt Options) (*Figure, error) {
	fig := &Figure{
		ID:     "schedzoo",
		Title:  "Scheduler zoo: weighted disciplines on the 80:20 mix (RT weight 3:1)",
		XLabel: "load",
		ShowBE: true,
	}
	return seriesSweep(opt, fig, names(ZooPolicies), AblationLoads, func(cfg *mediaworm.Config, s int) {
		zooConfig(cfg, ZooPolicies[s])
	})
}

// schedZooSmokeLoads is the reduced grid the CI gate runs: one comfortable
// and one saturating point.
var schedZooSmokeLoads = []float64{0.80, 0.90}

// SchedZooSmoke is the CI smoke grid: every zoo discipline at two loads
// with injection policing armed, so one cheap deterministic run exercises
// the scheduler zoo, the srTCM meters and the WRED droppers together. Its
// CSV rendering is pinned as a golden file
// (internal/experiments/testdata/schedzoo_smoke.csv).
func SchedZooSmoke(opt Options) (*Figure, error) {
	fig := &Figure{
		ID:     "schedzoo-smoke",
		Title:  "Scheduler zoo smoke grid (80:20 mix, RT weight 3:1, policing on)",
		XLabel: "load",
		ShowBE: true,
		Notes:  "CI gate: reduced grid with injection policing armed; pinned as a golden CSV",
	}
	return seriesSweep(opt, fig, names(ZooPolicies), schedZooSmokeLoads, func(cfg *mediaworm.Config, s int) {
		zooConfig(cfg, ZooPolicies[s])
		cfg.Policing.Enabled = true
	})
}
