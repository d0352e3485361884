package experiments

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"

	"mediaworm"
	"mediaworm/internal/calculus"
	"mediaworm/internal/flit"
	"mediaworm/internal/runner"
	"mediaworm/internal/sim"
	"mediaworm/internal/traffic"
)

// BoundsSweep cross-validates the closed-form network-calculus bounds of
// internal/calculus against the simulator: for every cell of the paper's
// figure grids it simulates the workload, prices every realized stream's
// analytic end-to-end delay bound, and compares the bound against the
// stream's worst observed message latency. A sound model shows zero
// violations — no stream's observed worst case above its finite bound —
// and the slack ratio (bound / observed) quantifies how conservative the
// analysis is.

// BoundsPoint is one grid cell's bound-versus-observed comparison.
type BoundsPoint struct {
	// Fabric names the topology: "single-switch", "fat-mesh" (the paper's
	// fat-mesh-2x2) or the Topology name of any other fabric.
	Fabric string
	// Load and RTShare locate the cell on the paper's grid.
	Load, RTShare float64
	// Streams is the realized real-time stream count; Certified how many
	// received a finite analytic bound (the rest are ∞ — the model
	// declines to certify an unstable or θ-violating operating point,
	// which dominates any observation trivially).
	Streams, Certified int
	// Compared counts certified streams that delivered at least one
	// message; Violations how many of those observed a message latency
	// above their bound. Soundness means zero.
	Compared, Violations int
	// WorstBoundMs is the largest finite per-stream bound and
	// WorstObservedMs the largest observed worst-case latency among
	// compared streams, both in paper-scale milliseconds.
	WorstBoundMs, WorstObservedMs float64
	// MedianSlack is the median over compared streams of bound/observed —
	// the headline looseness metric. 0 when nothing was compared.
	MedianSlack float64
	// MaxBacklogKbits is the analytic worst per-link backlog bound in
	// kilobits (∞ when some link is uncertifiable).
	MaxBacklogKbits float64
}

// BoundsReport is the BoundsSweep output.
type BoundsReport struct {
	Cells []BoundsPoint
	Notes string
}

// Violations sums soundness violations across all cells.
func (r *BoundsReport) Violations() int {
	total := 0
	for _, c := range r.Cells {
		total += c.Violations
	}
	return total
}

// MedianSlack returns the median of the per-cell median slack ratios over
// cells that compared at least one stream.
func (r *BoundsReport) MedianSlack() float64 {
	var meds []float64
	for _, c := range r.Cells {
		if c.Compared > 0 {
			meds = append(meds, c.MedianSlack)
		}
	}
	return median(meds)
}

// Fprint renders the bound-versus-observed grid.
func (r *BoundsReport) Fprint(w io.Writer) {
	fmt.Fprintln(w, "== bounds: analytic delay bound vs observed worst case ==")
	rows := [][]string{{"fabric", "load", "x:y", "streams", "certified", "compared", "viol", "bound ms", "observed ms", "slack med", "backlog kb"}}
	for _, c := range r.Cells {
		boundCell := "inf"
		if c.Certified > 0 {
			boundCell = fmt.Sprintf("%.3f", c.WorstBoundMs)
		}
		slackCell, backlogCell := "-", "inf"
		if c.Compared > 0 {
			slackCell = fmt.Sprintf("%.1f", c.MedianSlack)
		}
		if !math.IsInf(c.MaxBacklogKbits, 1) {
			backlogCell = fmt.Sprintf("%.1f", c.MaxBacklogKbits)
		}
		rows = append(rows, []string{
			c.Fabric,
			fmt.Sprintf("%.2f", c.Load),
			fmt.Sprintf("%d:%d", int(c.RTShare*100+0.5), int((1-c.RTShare)*100+0.5)),
			fmt.Sprintf("%d", c.Streams),
			fmt.Sprintf("%d", c.Certified),
			fmt.Sprintf("%d", c.Compared),
			fmt.Sprintf("%d", c.Violations),
			boundCell,
			fmt.Sprintf("%.3f", c.WorstObservedMs),
			slackCell,
			backlogCell,
		})
	}
	writeAligned(w, rows)
	if r.Notes != "" {
		fmt.Fprintf(w, "note: %s\n", r.Notes)
	}
	fmt.Fprintf(w, "total violations: %d, median slack: %.1f\n\n", r.Violations(), r.MedianSlack())
}

// gridConfig is one simulation of the sweep: the base configuration on the
// given fabric at the given load and real-time share.
func gridConfig(opt Options, topo mediaworm.Topology, load, mix float64) mediaworm.Config {
	cfg := baseConfig(opt)
	cfg.Topology = topo
	cfg.Load = load
	cfg.RTShare = mix
	return cfg
}

func boundsGrid(opt Options, full bool) []mediaworm.Config {
	var cells []mediaworm.Config
	if full {
		for _, load := range Table2Loads {
			for _, mix := range Fig5Mixes {
				cells = append(cells, gridConfig(opt, mediaworm.SingleSwitch, load, mix))
			}
		}
		for _, load := range Fig9Loads {
			for _, mix := range Fig9Mixes {
				cells = append(cells, gridConfig(opt, mediaworm.FatMesh2x2, load, mix))
			}
		}
		return cells
	}
	// Smoke grid: corners that exercise both fabrics — certifiable mixed
	// and pure-RT single-switch cells, a saturating pure-RT cell the model
	// must decline, and a certifiable plus a declining fat-mesh cell.
	return []mediaworm.Config{
		gridConfig(opt, mediaworm.SingleSwitch, 0.60, 0.5),
		gridConfig(opt, mediaworm.SingleSwitch, 0.60, 1.0),
		gridConfig(opt, mediaworm.SingleSwitch, 0.90, 1.0),
		gridConfig(opt, mediaworm.FatMesh2x2, 0.70, 0.4),
		gridConfig(opt, mediaworm.FatMesh2x2, 0.90, 0.8),
	}
}

// BoundsSweep runs the full figure grid: Table 2 loads × Fig. 5 mixes on
// the single switch plus the Fig. 9 load/mix grid on the 2×2 fat-mesh.
func BoundsSweep(opt Options) (*BoundsReport, error) {
	opt = opt.normalized()
	return boundsSweep(opt, boundsGrid(opt, true),
		"bound is the per-stream network-calculus delay bound (internal/calculus); "+
			"observed is the worst delivered message latency per stream; "+
			"uncertified streams carry an infinite bound (model declines the operating point)")
}

// BoundsSmoke runs a reduced five-cell grid — both fabrics, certifiable and
// saturating corners — sized for CI.
func BoundsSmoke(opt Options) (*BoundsReport, error) {
	opt = opt.normalized()
	return boundsSweep(opt, boundsGrid(opt, false), "reduced CI grid; see BoundsSweep for the full one")
}

// boundsSweep simulates each cell through mediaworm.NewSim, so a cell runs
// the fabric, policy and weights its configuration names and is priced
// from that same configuration.
func boundsSweep(opt Options, cells []mediaworm.Config, notes string) (*BoundsReport, error) {
	// A fabric the model cannot price fails here, before any cell runs.
	for _, c := range cells {
		if _, err := boundsModel(c); err != nil {
			return nil, fmt.Errorf("bounds sweep on %s: %w", c.Topology, err)
		}
	}
	pts, err := runner.Map(context.Background(), len(cells),
		runner.Options{Workers: opt.Parallel},
		func(_ context.Context, i int) (BoundsPoint, error) {
			return runBoundsPoint(cells[i])
		})
	if err != nil {
		var re *runner.Error
		if errors.As(err, &re) {
			c := cells[re.Index]
			return nil, fmt.Errorf("bounds sweep at load %.2f mix %.2f: %w", c.Load, c.RTShare, re.Err)
		}
		return nil, fmt.Errorf("bounds sweep: %w", err)
	}
	return &BoundsReport{Cells: pts, Notes: notes}, nil
}

// CalculusParams maps a simulator configuration onto the analytic model's
// parameters: the fabric cfg.Topology builds, the VC partition and
// best-effort load that cfg.Load and cfg.RTShare give, and the discipline
// NewSim resolves from cfg.Policy with the weights and quantum of
// cfg.Sched. A configuration Validate rejects is refused. Exported so CLIs
// and examples price the exact configuration they simulate.
func CalculusParams(cfg mediaworm.Config) (calculus.Params, error) {
	if err := cfg.Validate(); err != nil {
		return calculus.Params{}, err
	}
	spec, _ := cfg.TopologySpec() // Validate resolved it
	rtVCs := traffic.PartitionVCs(cfg.VCs, cfg.RTShare)
	return calculus.Params{
		Spec:             spec,
		LinkBandwidthBps: cfg.LinkBandwidthBps,
		FlitBits:         cfg.FlitBits,
		MsgFlits:         cfg.MsgFlits,
		VCs:              cfg.VCs,
		RTVCs:            rtVCs,
		Policy:           cfg.RouterConfig(rtVCs).Policy,
		RTWeight:         cfg.Sched.RTWeight,
		BEWeight:         cfg.Sched.BEWeight,
		Quantum:          cfg.Sched.Quantum,
		FrameBytes:       cfg.FrameBytes,
		FrameBytesSD:     cfg.FrameBytesSD,
		IntervalSec:      cfg.FrameInterval.Seconds(),
		BestEffortLoad:   cfg.Load * (1 - cfg.RTShare),
	}, nil
}

// boundsModel builds the analytic model of one sweep cell.
func boundsModel(cfg mediaworm.Config) (*calculus.Controller, error) {
	params, err := CalculusParams(cfg)
	if err != nil {
		return nil, err
	}
	return calculus.New(params)
}

func runBoundsPoint(cfg mediaworm.Config) (BoundsPoint, error) {
	cfg.Trace = mediaworm.TraceConfig{} // cells deliver no capture to TraceSink
	s, err := mediaworm.NewSim(cfg)
	if err != nil {
		return BoundsPoint{}, err
	}

	// Per-stream worst observed message latency, injection to tail
	// delivery. The bound claims every message, warmup included: an
	// initially empty fabric only helps, so no window filtering. The hook
	// chains after NewSim's own, which feeds the Result.
	observed := map[int]sim.Time{}
	for _, sk := range s.Net().Sinks {
		measure := sk.OnMessage
		sk.OnMessage = func(m *flit.Message, at sim.Time) {
			measure(m, at)
			if m.Class == flit.BestEffort {
				return
			}
			if lat := at - m.Injected; lat > observed[m.StreamID] {
				observed[m.StreamID] = lat
			}
		}
	}
	if _, err := s.Finish(); err != nil {
		return BoundsPoint{}, err
	}

	model, err := boundsModel(cfg)
	if err != nil {
		return BoundsPoint{}, err
	}
	// Price the realized placement, not the balanced ideal: registration
	// order does not matter, so bounds are placement-exact.
	streams := s.Workload().Streams
	for _, st := range streams {
		model.Register(st.Src(), st.Dst())
	}

	norm := paperIntervalMs / (cfg.FrameInterval.Seconds() * 1000)
	point := BoundsPoint{
		Fabric:  string(cfg.Topology),
		Load:    cfg.Load,
		RTShare: cfg.RTShare,
		Streams: len(streams),
	}
	if cfg.Topology == mediaworm.FatMesh2x2 {
		point.Fabric = "fat-mesh" // the report's established label
	}
	var slacks []float64
	for _, st := range streams {
		boundMs := model.DelayBoundSec(st.Src(), st.Dst()) * 1e3 * norm
		if math.IsInf(boundMs, 1) {
			continue
		}
		point.Certified++
		if boundMs > point.WorstBoundMs {
			point.WorstBoundMs = boundMs
		}
		lat, delivered := observed[st.ID()]
		if !delivered {
			continue
		}
		obsMs := float64(lat) / 1e6 * norm
		point.Compared++
		if obsMs > point.WorstObservedMs {
			point.WorstObservedMs = obsMs
		}
		if obsMs > boundMs {
			point.Violations++
		}
		if obsMs > 0 {
			slacks = append(slacks, boundMs/obsMs)
		}
	}
	point.MedianSlack = median(slacks)
	bits, _ := model.MaxBacklogBits()
	point.MaxBacklogKbits = bits / 1e3
	return point, nil
}

// median returns the middle value of vs (mean of the middle two for even
// lengths), or 0 for an empty slice. vs is reordered.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	sort.Float64s(vs)
	if n := len(vs); n%2 == 1 {
		return vs[n/2]
	} else {
		return (vs[n/2-1] + vs[n/2]) / 2
	}
}
