package experiments

import (
	"context"
	"fmt"
	"io"
	"math"

	"mediaworm"
	"mediaworm/internal/flit"
	"mediaworm/internal/network"
	"mediaworm/internal/runner"
	"mediaworm/internal/sim"
	"mediaworm/internal/stats"
	"mediaworm/internal/topology"
	"mediaworm/internal/traffic"
)

// Extension experiments beyond the paper's evaluation, along its §6 future
// directions: structured MPEG GoP traffic, the tetrahedral cluster, and
// dynamic VC partitioning under a shifting mix.

// ExtGoP compares the paper's normal-draw VBR against MPEG
// Group-of-Pictures structured VBR (periodic large I frames).
func ExtGoP(opt Options) (*Figure, error) {
	fig := &Figure{
		ID:     "ext-gop",
		Title:  "Extension: normal-draw VBR vs MPEG GoP VBR (100:0)",
		XLabel: "load",
		Notes:  "GoP = IBBPBBPBBPBB pattern, 5:3:1 I:P:B sizes, random per-stream phase",
	}
	models := []mediaworm.VBRModel{mediaworm.VBRNormal, mediaworm.VBRGoP}
	return seriesSweep(opt, fig, names(models), []float64{0.60, 0.80, 0.90}, func(cfg *mediaworm.Config, s int) {
		cfg.VBRModel = models[s]
	})
}

// ExtTetrahedral compares the paper's 2×2 fat-mesh with the tetrahedral
// (fully connected) 4-switch cluster of §3.4 at an 80:20 mix.
func ExtTetrahedral(opt Options) (*Figure, error) {
	fig := &Figure{
		ID:     "ext-tetra",
		Title:  "Extension: fat-mesh vs tetrahedral cluster (80:20 mix)",
		XLabel: "load",
	}
	topos := []mediaworm.Topology{mediaworm.FatMesh2x2, mediaworm.Tetrahedral}
	return seriesSweep(opt, fig, names(topos), []float64{0.60, 0.70, 0.80}, func(cfg *mediaworm.Config, s int) {
		cfg.Topology = topos[s]
		cfg.RTShare = 0.8
	})
}

// DynPartResult reports the shifting-mix experiment: the workload's
// real-time share jumps mid-run, and a statically partitioned fabric is
// compared with a dynamically repartitioned one (§6).
type DynPartResult struct {
	Variant   string
	DMs, SDMs float64
	// Phase1/Phase2 split the best-effort metrics at the mix shift, since
	// the two phases stress opposite sides of the partition. A phase that
	// delivered no best-effort message after warmup has a NaN latency.
	Phase1BEUs, Phase2BEUs   float64
	Phase1BESat, Phase2BESat bool
	Adjustments              int
	FinalRTVCs, InitialRTVCs int
}

// ExtDynamicPartition runs the shifting-mix workload (20:80 then 70:30 at
// the same total load) under a static 50:50 VC split and under the dynamic
// partition controller, and reports both. The two variants are independent
// closed-loop simulations and run through the shared worker pool.
func ExtDynamicPartition(opt Options) ([]DynPartResult, error) {
	opt = opt.normalized()
	return runner.Map(context.Background(), 2,
		runner.Options{Workers: opt.Parallel},
		func(_ context.Context, i int) (DynPartResult, error) {
			return runShiftingMix(opt, i == 1)
		})
}

func runShiftingMix(opt Options, dynamic bool) (DynPartResult, error) {
	base := baseConfig(opt)
	const load = 0.85
	eng := sim.NewEngine()
	vcs := base.VCs
	staticRT := vcs / 2 // a 50:50 compromise split
	spec, err := base.TopologySpec()
	if err != nil {
		return DynPartResult{}, err
	}
	net, err := topology.Build(eng, spec, base.RouterConfig(staticRT))
	if err != nil {
		return DynPartResult{}, err
	}

	warmup := sim.Time(base.Warmup.Nanoseconds())
	stop := warmup + sim.Time(base.Measure.Nanoseconds())
	half := stop / 2
	intervals := stats.NewIntervalTracker(warmup)
	// Per-phase best-effort accounting: phase 2's tracker warms up at the
	// mix shift so transition traffic lands in the right bucket.
	be1 := stats.NewBestEffort(warmup)
	be2 := stats.NewBestEffort(half)
	beFor := func(t sim.Time) *stats.BestEffort {
		if t < half {
			return be1
		}
		return be2
	}
	for _, s := range net.Sinks {
		s.OnFrame = func(stream, frame int, at sim.Time) { intervals.Observe(stream, at) }
		s.OnMessage = func(m *flit.Message, at sim.Time) {
			if m.Class == flit.BestEffort {
				beFor(m.Injected).Delivered(m.Injected, at)
			}
		}
	}

	res := DynPartResult{Variant: "static 50:50 split", InitialRTVCs: staticRT, FinalRTVCs: staticRT}
	var dp *network.DynamicPartition
	var part traffic.Partition
	if dynamic {
		dp = network.NewDynamicPartition(net.Fabric, sim.Time(base.FrameInterval.Nanoseconds())/4, stop, staticRT)
		part = dp
		res.Variant = "dynamic partition"
	}

	interval := sim.Time(base.FrameInterval.Nanoseconds())
	mix := func(rtShare float64, rtVCs int, from, to sim.Time) traffic.MixConfig {
		return traffic.MixConfig{
			Load: load, RTShare: rtShare, Class: flit.VBR,
			LinkBitsPerSec: base.LinkBandwidthBps,
			FlitBits:       base.FlitBits, MsgFlits: base.MsgFlits,
			FrameBytes: base.FrameBytes, FrameBytesSD: base.FrameBytesSD,
			Interval: interval, VCs: vcs, RTVCs: rtVCs,
			Start: from, Stop: to, Seed: opt.Seed, Partition: part,
		}
	}
	// Static fabric: streams must live inside the fixed boundary. Dynamic:
	// streams use each phase's natural split — the controller converges the
	// routers and best-effort sources to it.
	rt1, rt2 := staticRT, staticRT
	if dynamic {
		rt1 = traffic.PartitionVCs(vcs, 0.2)
		rt2 = traffic.PartitionVCs(vcs, 0.7)
	}
	w, err := traffic.ApplyPhases(eng, net, []traffic.MixConfig{
		mix(0.2, rt1, 0, half),
		mix(0.7, rt2, half, stop),
	})
	if err != nil {
		return DynPartResult{}, err
	}
	for _, src := range w.BESources {
		src.OnInject = func(m *flit.Message) { beFor(m.Injected).Injected(m.Injected) }
	}
	// Snapshot phase 1's backlog at the shift, phase 2's at stop.
	var sat1 bool
	eng.At(half, func() {
		inj, del := be1.Counts()
		sat1 = stats.Saturated(inj, del)
	})
	eng.Run(stop)
	inj2, del2 := be2.Counts()
	sat2 := stats.Saturated(inj2, del2)
	eng.Drain()
	if err := net.Fabric.CheckDrained(); err != nil {
		return DynPartResult{}, err
	}

	res.DMs = intervals.MeanMs() * paperIntervalMs / (base.FrameInterval.Seconds() * 1000)
	res.SDMs = intervals.StdDevMs() * paperIntervalMs / (base.FrameInterval.Seconds() * 1000)
	res.Phase1BEUs = be1.MeanLatencyUs()
	res.Phase2BEUs = be2.MeanLatencyUs()
	res.Phase1BESat = sat1
	res.Phase2BESat = sat2
	if dp != nil {
		res.Adjustments = dp.Adjustments
		res.FinalRTVCs = dp.RTVCs()
	}
	return res, nil
}

// FprintDynPart renders the shifting-mix comparison.
func FprintDynPart(results []DynPartResult, w io.Writer) {
	fmt.Fprintln(w, "== ext-dynpart: shifting mix (20:80 → 70:30 at load 0.85) ==")
	rows := [][]string{{"variant", "d(ms)", "σd(ms)", "BE ph1 (µs)", "BE ph2 (µs)", "adjustments", "final RT VCs"}}
	cell := func(us float64, sat bool) string {
		switch {
		case sat:
			return "Sat."
		case math.IsNaN(us): // no best-effort delivery after warmup
			return "-"
		}
		return fmt.Sprintf("%.1f", us)
	}
	for _, r := range results {
		rows = append(rows, []string{
			r.Variant,
			fmt.Sprintf("%.2f", r.DMs),
			fmt.Sprintf("%.3f", r.SDMs),
			cell(r.Phase1BEUs, r.Phase1BESat),
			cell(r.Phase2BEUs, r.Phase2BESat),
			fmt.Sprintf("%d", r.Adjustments),
			fmt.Sprintf("%d", r.FinalRTVCs),
		})
	}
	writeAligned(w, rows)
	fmt.Fprintln(w)
}
