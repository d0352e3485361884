package experiments

import "mediaworm"

// Scale experiments: the paper stops at four switches (§5.7); the topology
// generator keeps the router model fixed and grows the fabric — k-ary
// meshes and tori under dimension-order routing with dateline VC classes,
// and leaf-spine Clos — so the QoS question ("does Virtual Clock hold frame
// jitter as the fabric scales?") can be asked at datacenter-relevant sizes.

// ScaleTopologies are the fabrics the scale sweep compares, smallest to
// largest: the paper's single switch and fat-mesh as anchors, then
// generated meshes, tori and a Clos.
// Meshes and tori run at concentration 1 (one endpoint per router): with
// the paper's 4-endpoint concentration a 4×4 mesh's bisection is ~5×
// oversubscribed under uniform traffic at any interesting load, and every
// point would just measure backlog growth.
var ScaleTopologies = []mediaworm.Topology{
	mediaworm.SingleSwitch,
	mediaworm.FatMesh2x2,
	"mesh4x4c1",
	"torus4x4c1",
	"clos4x4",
	"torus8x8c1",
}

// scaleLoads are the sweep's operating points: one comfortable everywhere,
// one where the meshes' center channels approach saturation.
var scaleLoads = []float64{0.40, 0.60}

// ScaleSweep runs the 80:20 mix across ScaleTopologies. Every fabric keeps
// the paper's router configuration (16 VCs, Virtual Clock, 20-flit
// messages); only the wiring between routers changes, so differences in d
// and σd are attributable to path length, transit contention and the
// dateline VC split.
func ScaleSweep(opt Options) (*Figure, error) {
	fig := &Figure{
		ID:     "scale",
		Title:  "Topology scale sweep: frame jitter across generated fabrics (80:20 mix)",
		XLabel: "load",
		ShowBE: true,
		Notes:  "mesh/torus routers carry one endpoint each; torus routing adds dateline VC classes",
	}
	return seriesSweep(opt, fig, names(ScaleTopologies), scaleLoads, func(cfg *mediaworm.Config, s int) {
		cfg.Topology = ScaleTopologies[s]
		cfg.RTShare = 0.8
	})
}

// scaleSmokeTopologies is the reduced grid the CI gate runs: one generated
// fabric per routing discipline (mesh dimension-order, torus dateline,
// Clos up/down).
var scaleSmokeTopologies = []mediaworm.Topology{"mesh4x4c1", "torus4x4c1", "clos4x2"}

// ScaleSmoke is the CI smoke grid: the generated topologies at a single
// comfortable load, cheap enough to run on every change and pinned as a
// golden CSV (internal/experiments/testdata/scale_smoke.csv), so any drift
// in the generator's wiring, routing or VC dating shows up as a byte diff.
func ScaleSmoke(opt Options) (*Figure, error) {
	fig := &Figure{
		ID:     "scale-smoke",
		Title:  "Topology generator smoke grid (80:20 mix, load 0.40)",
		XLabel: "load",
		ShowBE: true,
		Notes:  "CI gate: generated mesh/torus/Clos fabrics; pinned as a golden CSV",
	}
	return seriesSweep(opt, fig, names(scaleSmokeTopologies), []float64{0.40}, func(cfg *mediaworm.Config, s int) {
		cfg.Topology = scaleSmokeTopologies[s]
		cfg.RTShare = 0.8
	})
}
