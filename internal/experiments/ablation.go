package experiments

import "mediaworm"

// Ablation studies for the modeling decisions DESIGN.md §3 calls out. Each
// isolates one design choice of the MediaWorm model and shows its effect on
// the paper's operating points.

// AblationLoads are the high-load points where the design choices matter.
var AblationLoads = []float64{0.80, 0.90, 0.96}

// AblationAllocator compares one allocator iteration (greedy matching)
// against two (one-step augmentation) on a mixed 50:50 workload — the
// second iteration is what sustains the paper's 0.9+ operating points.
func AblationAllocator(opt Options) (*Figure, error) {
	fig := &Figure{
		ID:     "abl-alloc",
		Title:  "Ablation: switch-allocator iterations (50:50 mix)",
		XLabel: "load",
		ShowBE: true,
	}
	iters := []int{1, 2}
	return seriesSweep(opt, fig, []string{"1-iter", "2-iter"}, AblationLoads, func(cfg *mediaworm.Config, v int) {
		cfg.RTShare = 0.5
		cfg.AllocatorIterations = iters[v]
	})
}

// AblationEndpointVCs compares shared endpoint output VCs (the paper's
// multiple-connections-per-VC model) against exclusive per-message
// ownership, which exhausts the VC pool at high load.
func AblationEndpointVCs(opt Options) (*Figure, error) {
	fig := &Figure{
		ID:     "abl-endpointvc",
		Title:  "Ablation: shared vs exclusive endpoint output VCs (50:50 mix)",
		XLabel: "load",
		ShowBE: true,
	}
	return seriesSweep(opt, fig, []string{"shared", "exclusive"}, AblationLoads, func(cfg *mediaworm.Config, v int) {
		cfg.RTShare = 0.5
		cfg.ExclusiveEndpointVCs = v == 1
	})
}

// AblationSourcePolicy keeps Virtual Clock inside the router but varies the
// source NI's injection-link scheduler — the serialization point the paper
// leaves unspecified (DESIGN.md §7).
func AblationSourcePolicy(opt Options) (*Figure, error) {
	fig := &Figure{
		ID:     "abl-source",
		Title:  "Ablation: source NI scheduling (router uses Virtual Clock, 80:20 mix)",
		XLabel: "load",
		ShowBE: true,
	}
	policies := []mediaworm.Policy{mediaworm.VirtualClock, mediaworm.FIFO}
	labels := names(policies)
	for i := range labels {
		labels[i] = "NI " + labels[i]
	}
	return seriesSweep(opt, fig, labels, AblationLoads, func(cfg *mediaworm.Config, v int) {
		cfg.RTShare = 0.8
		cfg.SourcePolicy = policies[v]
	})
}

// AblationScheduler adds the round-robin scheduler the paper mentions as a
// "rate agnostic" alternative to FIFO, alongside both paper policies.
func AblationScheduler(opt Options) (*Figure, error) {
	fig := &Figure{
		ID:     "abl-sched",
		Title:  "Ablation: scheduling discipline (80:20 mix)",
		XLabel: "load",
		ShowBE: true,
	}
	policies := []mediaworm.Policy{mediaworm.VirtualClock, mediaworm.RoundRobin, mediaworm.FIFO}
	return seriesSweep(opt, fig, names(policies), AblationLoads, func(cfg *mediaworm.Config, v int) {
		cfg.RTShare = 0.8
		cfg.Policy = policies[v]
	})
}
