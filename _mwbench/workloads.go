package main

import (
	"fmt"
	"time"

	"mediaworm"
)

// workload is one pinned fabric the benchmark drives. config builds the
// simulation from the seed alone; the program sees nothing else.
type workload struct {
	name   string
	config func(seed uint64) mediaworm.Config
}

// window sets the warm-up and measurement window in whole frame intervals,
// the unit the paper's results are reported in.
func window(cfg mediaworm.Config, warmup, measure int) mediaworm.Config {
	cfg.Warmup = time.Duration(warmup) * cfg.FrameInterval
	cfg.Measure = time.Duration(measure) * cfg.FrameInterval
	return cfg
}

// workloads lists the benchmark's fabrics in the order BENCHMARK.json names
// them. Why each was chosen is recorded there and in README.md.
var workloads = []workload{
	{
		// The paper's §5 switch: one 8-port router, one hop per flit.
		name: "switch8",
		config: func(seed uint64) mediaworm.Config {
			cfg := mediaworm.DefaultConfig().Scale(0.05)
			cfg.Load, cfg.RTShare = 0.8, 0.8
			cfg.Seed = seed
			return window(cfg, 2, 10)
		},
	},
	{
		// The paper's 2×2 fat-mesh under WF²Q+ with srTCM/WRED policing.
		name: "fatmesh_policed",
		config: func(seed uint64) mediaworm.Config {
			cfg := mediaworm.DefaultConfig().Scale(0.05)
			cfg.Topology = mediaworm.FatMesh2x2
			cfg.Policy = mediaworm.WF2Q
			cfg.Policing.Enabled = true
			cfg.Load, cfg.RTShare = 0.9, 0.8
			cfg.Seed = seed
			return window(cfg, 2, 5)
		},
	},
	{
		// A generated 8×8 torus, lightly loaded: 64 routers, 256 endpoints.
		name: "torus8x8_sparse",
		config: func(seed uint64) mediaworm.Config {
			cfg := mediaworm.DefaultConfig().Scale(0.02)
			cfg.Topology = "torus8x8"
			cfg.Load, cfg.RTShare = 0.15, 0.8
			cfg.Seed = seed
			return window(cfg, 1, 1)
		},
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}
