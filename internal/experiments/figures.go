package experiments

import (
	"context"
	"fmt"
	"io"
	"math"

	"mediaworm"
	"mediaworm/internal/runner"
)

// Fig3Loads are the input-link loads of the paper's Fig. 3 sweep.
var Fig3Loads = []float64{0.60, 0.70, 0.80, 0.90, 0.96}

// Fig3 — Virtual Clock vs FIFO (16 VCs, 400 Mb/s, 80:20 VBR:best-effort):
// the motivating result. The FIFO-scheduled router jitters beyond ~0.8 load;
// Virtual Clock stays jitter-free far longer.
func Fig3(opt Options) (*Figure, error) {
	fig := &Figure{
		ID:     "fig3",
		Title:  "Virtual Clock vs FIFO (16 VCs, 80:20 mix)",
		XLabel: "load",
	}
	policies := []mediaworm.Policy{mediaworm.VirtualClock, mediaworm.FIFO}
	return seriesSweep(opt, fig, names(policies), Fig3Loads, func(cfg *mediaworm.Config, s int) {
		cfg.Policy = policies[s]
		cfg.RTShare = 0.8
	})
}

// Fig4 — CBR vs VBR with no best-effort traffic (16 VCs, 400 Mb/s):
// nearly identical curves, CBR marginally better.
func Fig4(opt Options) (*Figure, error) {
	fig := &Figure{
		ID:     "fig4",
		Title:  "CBR vs VBR traffic (16 VCs, 400 Mb/s, no best-effort)",
		XLabel: "load",
	}
	classes := []mediaworm.TrafficClass{mediaworm.VBR, mediaworm.CBR}
	return seriesSweep(opt, fig, names(classes), Fig3Loads, func(cfg *mediaworm.Config, s int) {
		cfg.Class = classes[s]
	})
}

// Fig5Mixes are the x:y real-time:best-effort proportions of Fig. 5.
var Fig5Mixes = []float64{0.2, 0.5, 0.8, 0.9, 1.0}

// Table2Loads are the loads of Table 2's best-effort latency grid.
var Table2Loads = []float64{0.60, 0.70, 0.80, 0.90, 0.96}

// Table2 is the paper's best-effort latency grid (µs), with "Sat." marking
// saturation.
type Table2 struct {
	Mixes []float64 // RT shares (rows)
	Loads []float64 // columns
	Cells [][]Point // [mix][load]
	Notes string
}

// Fprint renders Table 2. Replicated cells carry their 95% confidence
// half-width as "mean±ci".
func (t *Table2) Fprint(w io.Writer) {
	fmt.Fprintln(w, "== table2: Average latency for best-effort traffic (µs) ==")
	header := []string{"x:y"}
	for _, l := range t.Loads {
		header = append(header, fmt.Sprintf("load %.2f", l))
	}
	rows := [][]string{header}
	for i, mix := range t.Mixes {
		row := []string{fmt.Sprintf("%d:%d", int(mix*100+0.5), int((1-mix)*100+0.5))}
		for _, p := range t.Cells[i] {
			switch {
			case p.BESaturated:
				row = append(row, "Sat.")
			case p.Replicas > 1:
				row = append(row, fmt.Sprintf("%.1f±%.1f", p.BELatencyUs, p.BECI95))
			default:
				row = append(row, fmt.Sprintf("%.1f", p.BELatencyUs))
			}
		}
		rows = append(rows, row)
	}
	writeAligned(w, rows)
	if t.Notes != "" {
		fmt.Fprintf(w, "note: %s\n", t.Notes)
	}
	fmt.Fprintln(w)
}

// Fig5Table2 runs the mixed-traffic sweep once and reports both Fig. 5
// (d, σd per mix and load) and Table 2 (best-effort latency grid; the
// 100:0 mix carries no best-effort traffic and is excluded, as in the
// paper).
func Fig5Table2(opt Options) (*Figure, *Table2, error) {
	fig := &Figure{
		ID:     "fig5",
		Title:  "Mixed traffic (16 VCs): jitter vs mix at each load",
		XLabel: "x:y",
		XIsMix: true,
	}
	// Series per load, points per mix (the paper's Fig. 5 x-axis is the
	// mix proportion).
	fig, err := seriesSweep(opt, fig, loadLabels(Table2Loads), Fig5Mixes, func(cfg *mediaworm.Config, s int) {
		cfg.Load = Table2Loads[s]
	})
	if err != nil {
		return nil, nil, err
	}
	tab := &Table2{Loads: Table2Loads}
	for mi, mix := range Fig5Mixes {
		if mix < 1 {
			tab.Mixes = append(tab.Mixes, mix)
			row := make([]Point, len(fig.Series))
			for li, s := range fig.Series {
				row[li] = s.Points[mi]
			}
			tab.Cells = append(tab.Cells, row)
		}
	}
	return fig, tab, nil
}

// Fig6Loads are the loads of the VC/crossbar capability sweep.
var Fig6Loads = []float64{0.50, 0.60, 0.70, 0.80, 0.90, 0.96}

// Fig6 — impact of VCs and crossbar capability (400 Mb/s, 100:0 VBR):
// 16/8/4 VCs on a multiplexed crossbar, and 4 VCs on a full crossbar.
func Fig6(opt Options) (*Figure, error) {
	fig := &Figure{
		ID:     "fig6",
		Title:  "Impact of VCs and crossbar capability (100:0 VBR)",
		XLabel: "load",
	}
	variants := []struct {
		label string
		vcs   int
		full  bool
	}{
		{"16 VC mux", 16, false},
		{"8 VC mux", 8, false},
		{"4 VC mux", 4, false},
		{"4 VC full", 4, true},
	}
	labels := make([]string, len(variants))
	for i, v := range variants {
		labels[i] = v.label
	}
	return seriesSweep(opt, fig, labels, Fig6Loads, func(cfg *mediaworm.Config, s int) {
		cfg.VCs = variants[s].vcs
		cfg.FullCrossbar = variants[s].full
	})
}

// Fig7Loads are the two representative loads of the message-size study.
var Fig7Loads = []float64{0.64, 0.80}

// Fig7MsgSizes returns the message sizes swept: the paper's 20/40/80/160
// flits plus a whole-frame message (the paper's 2560-flit point, scaled
// with the frame).
func Fig7MsgSizes(opt Options) []int {
	opt = opt.normalized()
	cfg := baseConfig(opt)
	frameFlits := int(cfg.FrameBytes*8)/cfg.FlitBits + 2
	return []int{20, 40, 80, 160, frameFlits}
}

// Fig7 — effect of message size on jitter (16 VCs, 100:0 VBR): little
// impact except header overhead at very small sizes.
func Fig7(opt Options) (*Figure, error) {
	fig := &Figure{
		ID:     "fig7",
		Title:  "Effect of message size on jitter (16 VCs)",
		XLabel: "load",
		Notes:  "series are message sizes in flits; the largest carries a whole frame per message (the paper's 2560-flit point, scaled)",
	}
	sizes := Fig7MsgSizes(opt)
	labels := make([]string, len(sizes))
	for i, size := range sizes {
		labels[i] = fmt.Sprintf("%d flits", size)
	}
	return seriesSweep(opt, fig, labels, Fig7Loads, func(cfg *mediaworm.Config, s int) {
		cfg.MsgFlits = sizes[s]
	})
}

// Fig8Loads are the loads of the wormhole/PCS comparison (100 Mb/s links).
var Fig8Loads = []float64{0.30, 0.40, 0.50, 0.60, 0.70, 0.80, 0.90}

// Fig8 — MediaWorm vs PCS (8×8 switch, 100 Mb/s, 24 VCs). PCS reserves a
// VC per stream and stays jitter-free slightly longer; MediaWorm accepts
// every stream. Both series run the same cells.
func Fig8(opt Options) (*Figure, error) {
	opt = opt.normalized()
	fig := &Figure{
		ID:     "fig8",
		Title:  "MediaWorm vs PCS (8×8, 100 Mb/s, 24 VCs)",
		XLabel: "load",
	}
	var cfgs []mediaworm.Config
	for _, load := range Fig8Loads {
		cfg := baseConfig(opt)
		cfg.LinkBandwidthBps = 100e6
		cfg.VCs = 24
		cfg.Load = load
		cfgs = append(cfgs, cfg)
	}
	wormPts, err := runGrid(opt, cfgs)
	if err != nil {
		return nil, fmt.Errorf("fig8 wormhole: %w", err)
	}
	pcsPts, err := runPCSGrid(opt, cfgs)
	if err != nil {
		return nil, fmt.Errorf("fig8 PCS: %w", err)
	}
	fig.Series = []Series{{Label: "wormhole", Points: wormPts}, {Label: "PCS", Points: pcsPts}}
	return fig, nil
}

// Table3Loads are the paper's Table 3 target loads.
var Table3Loads = []float64{0.37, 0.42, 0.64, 0.67, 0.74, 0.80, 0.87, 0.91}

// Table3 reports PCS connection admission: attempted, established and
// dropped connections per target load.
type Table3 struct {
	Rows  []mediaworm.PCSResult
	Loads []float64
	Notes string
}

// Fprint renders Table 3.
func (t *Table3) Fprint(w io.Writer) {
	fmt.Fprintln(w, "== table3: PCS connection admission ==")
	rows := [][]string{{"load", "#attempts", "#established", "#dropped", "drop%"}}
	for i, r := range t.Rows {
		rows = append(rows, []string{
			fmt.Sprintf("%.2f", t.Loads[i]),
			fmt.Sprintf("%d", r.Attempts),
			fmt.Sprintf("%d", r.Established),
			fmt.Sprintf("%d", r.Dropped),
			fmt.Sprintf("%.0f%%", 100*float64(r.Dropped)/math.Max(1, float64(r.Attempts))),
		})
	}
	writeAligned(w, rows)
	if t.Notes != "" {
		fmt.Fprintf(w, "note: %s\n", t.Notes)
	}
	fmt.Fprintln(w)
}

// RunTable3 reproduces Table 3 with blind (random-VC) probes filling an
// idle 8×8, 24-VC, 100 Mb/s switch to each target load.
func RunTable3(opt Options) *Table3 {
	opt = opt.normalized()
	t := &Table3{
		Loads: Table3Loads,
		Notes: "probes pick input and output VCs blindly (no backtracking); established connections persist — see DESIGN.md §7",
	}
	// PCSAdmission is infallible and combinatorial (no simulation), but the
	// rows are independent — run them through the same pool.
	t.Rows, _ = runner.Map(context.Background(), len(Table3Loads),
		runner.Options{Workers: opt.Parallel},
		func(_ context.Context, i int) (mediaworm.PCSResult, error) {
			return mediaworm.PCSAdmission(8, 24, 25, Table3Loads[i], opt.Seed), nil
		})
	return t
}

// Fig9Mixes and Fig9Loads parameterize the fat-mesh study.
var (
	Fig9Mixes = []float64{0.4, 0.6, 0.8}
	Fig9Loads = []float64{0.70, 0.80, 0.90}
)

// Fig9 — the (2×2) fat-mesh: d, σd and best-effort latency versus mix at
// each load. Series are loads; rows are mixes, matching the paper's plots.
func Fig9(opt Options) (*Figure, error) {
	fig := &Figure{
		ID:     "fig9",
		Title:  "(2×2) fat-mesh: VBR jitter and best-effort latency",
		XLabel: "x:y",
		XIsMix: true,
		Notes:  "best-effort latency per point is printed by cmd/paperfigs alongside (Fig. 9(c))",
	}
	return seriesSweep(opt, fig, loadLabels(Fig9Loads), Fig9Mixes, func(cfg *mediaworm.Config, s int) {
		cfg.Topology = mediaworm.FatMesh2x2
		cfg.Load = Fig9Loads[s]
	})
}

// Fig9BestEffort renders Fig. 9(c): the fat-mesh's best-effort latency (µs)
// per mix (rows) and load (columns), from an already-computed Fig9 result.
func Fig9BestEffort(fig *Figure, w io.Writer) {
	fmt.Fprintln(w, "== fig9c: fat-mesh best-effort latency (µs) ==")
	header := []string{"x:y"}
	for _, s := range fig.Series {
		header = append(header, s.Label)
	}
	rows := [][]string{header}
	for i := range fig.Series[0].Points {
		row := []string{fmtX(fig.Series[0].Points[i], true)}
		for _, s := range fig.Series {
			p := s.Points[i]
			switch {
			case p.BESaturated:
				row = append(row, "Sat.")
			case p.Replicas > 1:
				row = append(row, fmt.Sprintf("%.1f±%.1f", p.BELatencyUs, p.BECI95))
			default:
				row = append(row, fmt.Sprintf("%.1f", p.BELatencyUs))
			}
		}
		rows = append(rows, row)
	}
	writeAligned(w, rows)
	fmt.Fprintln(w)
}

// Table1 prints the simulation parameters (the paper's Table 1).
func Table1(w io.Writer) {
	cfg := mediaworm.DefaultConfig()
	fmt.Fprintln(w, "== table1: Simulation parameters ==")
	rows := [][]string{
		{"Switch Size", fmt.Sprintf("%d x %d", cfg.Ports, cfg.Ports)},
		{"Flit Size", fmt.Sprintf("%d bits", cfg.FlitBits)},
		{"Message Size", fmt.Sprintf("%d flits", cfg.MsgFlits)},
		{"Flit Buffers", fmt.Sprintf("%d flits", cfg.BufferDepth)},
		{"PC Bandwidth", fmt.Sprintf("%.0f Mbps", cfg.LinkBandwidthBps/1e6)},
		{"VCs/PC", fmt.Sprintf("%d (wormhole), 24 (PCS)", cfg.VCs)},
		{"Streams/VC", "variable (wormhole), 1 (PCS)"},
	}
	writeAligned(w, rows)
	fmt.Fprintln(w)
}
