// Package experiments regenerates every figure and table of the paper's
// evaluation (§5). Each experiment sweeps the workload/hardware parameter
// the paper varies and reports the same rows or series the paper plots:
// the mean frame delivery interval d (ms), its standard deviation σd (ms),
// best-effort latency (µs), and PCS connection accounting.
//
// Runs are scaled in the video time base (Options.Scale): frames and
// intervals shrink together, preserving per-stream bandwidth and the
// queueing behaviour per cycle while cutting simulated cycles. Reported
// intervals are normalized back to the paper's 33 ms base so the tables
// read side-by-side with the paper's.
package experiments

import (
	"fmt"
	"io"
	"strings"
	"time"

	"mediaworm"
	"mediaworm/internal/obs"
)

// Options tunes experiment fidelity versus wall-clock cost.
type Options struct {
	// Scale is the video time-base factor in (0, 1]; 1.0 is the paper's
	// exact workload, smaller is faster.
	Scale float64
	// WarmupIntervals and MeasureIntervals size the measurement window in
	// frame intervals.
	WarmupIntervals, MeasureIntervals int
	// Seed drives all randomness.
	Seed uint64
	// Parallel bounds the sweep worker pool: 1 runs points serially, 0 uses
	// every core (GOMAXPROCS). Output is byte-identical at any setting —
	// see internal/runner and DESIGN.md §12.
	Parallel int
	// Replicas runs each sweep point this many times with independent seeds
	// derived from (Seed, point index, replica index) and reports the
	// replica mean with 95% confidence half-widths (Point.DMsCI95 etc.).
	// 0 or 1 keeps the single-run behaviour, byte-identical to before.
	Replicas int
	// Progress, if non-nil, is called after each simulated point, always
	// from the sweep's calling goroutine and always in grid order, even
	// when Parallel fans points out across workers.
	Progress func(figure string, point string, elapsed time.Duration)
	// Clock supplies the wall-clock readings behind Progress's elapsed
	// argument. It exists so the one wall-clock dependency in this package
	// is injected rather than ambient: simulation results never touch it,
	// and tests can pin it. Nil means the real clock. It must be safe for
	// concurrent use — workers read it when Parallel > 1 (time.Now is).
	Clock func() time.Time
	// Trace arms the observability subsystem for every simulated point
	// (see mediaworm.TraceConfig). Captures are delivered to TraceSink.
	Trace mediaworm.TraceConfig
	// TraceSink, if non-nil, receives each point's trace capture, labelled
	// with the point's sweep position. Only called when Trace.Enabled. Like
	// Progress it fires on the calling goroutine in grid order, so captures
	// from concurrently simulated points never interleave.
	TraceSink func(point string, capture *obs.Capture)
}

// DefaultOptions balances fidelity and single-core runtime (~minutes for
// the full set).
func DefaultOptions() Options {
	return Options{Scale: 0.2, WarmupIntervals: 3, MeasureIntervals: 10, Seed: 1}
}

func (o Options) normalized() Options {
	if o.Scale <= 0 || o.Scale > 1 {
		o.Scale = 0.2
	}
	if o.WarmupIntervals <= 0 {
		o.WarmupIntervals = 3
	}
	if o.MeasureIntervals <= 0 {
		o.MeasureIntervals = 10
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Replicas < 1 {
		o.Replicas = 1
	}
	if o.Clock == nil {
		// Progress timing is the package's sole legitimate wall-clock use:
		// it reports to a human and feeds no simulation state.
		o.Clock = time.Now //mw:wallclock — default for the injectable progress clock; never read on a simulation path
	}
	return o
}

// paperIntervalMs is the paper's inter-frame interval (30 frames/s MPEG-2).
const paperIntervalMs = 33.0

// Point is one measured sweep point, normalized to the paper's time base.
type Point struct {
	// Load is the offered input-link load; RTShare the real-time fraction.
	Load, RTShare float64
	// DMs and SDMs are d and σd in paper-scale milliseconds.
	DMs, SDMs float64
	// BELatencyUs is the mean best-effort latency in microseconds
	// (NaN-free: zero when the mix has no best-effort component).
	BELatencyUs float64
	// BESaturated marks Table 2's "Sat." entries.
	BESaturated bool
	// Samples is the number of pooled interval observations.
	Samples uint64
	// Replicas is the number of independent-seed runs pooled into this
	// point (see Options.Replicas); 0 or 1 means a single run.
	Replicas int
	// DMsCI95, SDMsCI95 and BECI95 are the half-widths of the Student-t
	// 95% confidence intervals of DMs, SDMs and BELatencyUs across
	// replicas. All zero for single-run points.
	DMsCI95, SDMsCI95, BECI95 float64
}

// Series is a labelled sequence of points (one curve of a figure).
type Series struct {
	Label  string
	Points []Point
}

// Figure is a reproduced figure or table: an ID matching the paper
// ("fig3", "table2", …), a title, and its series.
type Figure struct {
	ID, Title string
	// XLabel names the sweep variable; XIsMix selects whether rows are
	// keyed by the traffic mix (x:y) instead of the load.
	XLabel string
	XIsMix bool
	// ShowBE adds a best-effort latency column per series.
	ShowBE bool
	Series []Series
	// Notes records reproduction caveats for EXPERIMENTS.md.
	Notes string
}

// replicated reports whether any point pools multiple replicas, which adds
// ± (95% CI half-width) columns to the rendered table.
func (f *Figure) replicated() bool {
	for _, s := range f.Series {
		for _, p := range s.Points {
			if p.Replicas > 1 {
				return true
			}
		}
	}
	return false
}

// Fprint renders the figure as an aligned text table: one row per X value,
// one (d, σd) column pair per series. Replicated sweeps add a ± column (the
// 95% confidence half-width across replicas) after each metric.
func (f *Figure) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", f.ID, f.Title)
	if len(f.Series) == 0 {
		fmt.Fprintln(w, "(empty)")
		return
	}
	ci := f.replicated()
	header := []string{f.XLabel}
	for _, s := range f.Series {
		header = append(header, s.Label+" d(ms)")
		if ci {
			header = append(header, "±d")
		}
		header = append(header, s.Label+" σd(ms)")
		if ci {
			header = append(header, "±σd")
		}
		if f.ShowBE {
			header = append(header, s.Label+" BE(µs)")
			if ci {
				header = append(header, "±BE")
			}
		}
	}
	rows := [][]string{header}
	for i := range f.Series[0].Points {
		p0 := f.Series[0].Points[i]
		row := []string{fmtX(p0, f.XIsMix)}
		for _, s := range f.Series {
			p := s.Points[i]
			row = append(row, fmt.Sprintf("%.2f", p.DMs))
			if ci {
				row = append(row, fmt.Sprintf("%.2f", p.DMsCI95))
			}
			row = append(row, fmt.Sprintf("%.3f", p.SDMs))
			if ci {
				row = append(row, fmt.Sprintf("%.3f", p.SDMsCI95))
			}
			if f.ShowBE {
				if p.BESaturated {
					row = append(row, "Sat.")
					if ci {
						row = append(row, "-")
					}
				} else {
					row = append(row, fmt.Sprintf("%.1f", p.BELatencyUs))
					if ci {
						row = append(row, fmt.Sprintf("%.1f", p.BECI95))
					}
				}
			}
		}
		rows = append(rows, row)
	}
	writeAligned(w, rows)
	if f.Notes != "" {
		fmt.Fprintf(w, "note: %s\n", f.Notes)
	}
	fmt.Fprintln(w)
}

func fmtX(p Point, mix bool) string {
	if mix {
		return fmt.Sprintf("%d:%d", int(p.RTShare*100+0.5), int((1-p.RTShare)*100+0.5))
	}
	return fmt.Sprintf("%.2f", p.Load)
}

func writeAligned(w io.Writer, rows [][]string) {
	if len(rows) == 0 {
		return
	}
	widths := make([]int, len(rows[0]))
	for _, row := range rows {
		for i, cell := range row {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	for _, row := range rows {
		var b strings.Builder
		for i, cell := range row {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(cell)
			for pad := len(cell); pad < widths[i]; pad++ {
				b.WriteByte(' ')
			}
		}
		fmt.Fprintln(w, strings.TrimRight(b.String(), " "))
	}
}

// baseConfig returns the paper's Table 1 configuration scaled per options,
// with the measurement window sized in intervals.
func baseConfig(opt Options) mediaworm.Config {
	cfg := mediaworm.DefaultConfig().Scale(opt.Scale)
	cfg.Warmup = time.Duration(opt.WarmupIntervals) * cfg.FrameInterval
	cfg.Measure = time.Duration(opt.MeasureIntervals) * cfg.FrameInterval
	cfg.Seed = opt.Seed
	cfg.Trace = opt.Trace
	return cfg
}
