// Package report renders experiment results to machine-readable CSV, so
// regenerated figures can be diffed, plotted, and committed alongside
// EXPERIMENTS.md.
package report

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strconv"

	"mediaworm/internal/artifact"
	"mediaworm/internal/experiments"
)

// FigureCSV writes one row per (series, x) point with the figure's metrics.
func FigureCSV(fig *experiments.Figure, w io.Writer) error {
	cw := csv.NewWriter(w)
	header := []string{"series", xColumn(fig), "d_ms", "sd_ms", "be_latency_us", "be_saturated", "samples"}
	if err := cw.Write(header); err != nil {
		return err
	}
	for _, s := range fig.Series {
		for _, p := range s.Points {
			row := []string{
				s.Label,
				xValue(fig, p),
				formatF(p.DMs),
				formatF(p.SDMs),
				formatF(p.BELatencyUs),
				strconv.FormatBool(p.BESaturated),
				strconv.FormatUint(p.Samples, 10),
			}
			if err := cw.Write(row); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

func xColumn(fig *experiments.Figure) string {
	if fig.XIsMix {
		return "rt_share"
	}
	return "load"
}

func xValue(fig *experiments.Figure, p experiments.Point) string {
	if fig.XIsMix {
		return formatF(p.RTShare)
	}
	return formatF(p.Load)
}

func formatF(v float64) string {
	return strconv.FormatFloat(v, 'g', 6, 64)
}

// Table2CSV writes the best-effort latency grid.
func Table2CSV(tab *experiments.Table2, w io.Writer) error {
	cw := csv.NewWriter(w)
	header := []string{"rt_share"}
	for _, l := range tab.Loads {
		header = append(header, "load_"+strconv.FormatFloat(l, 'g', 3, 64))
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	for i, mix := range tab.Mixes {
		row := []string{formatF(mix)}
		for _, p := range tab.Cells[i] {
			if p.BESaturated {
				row = append(row, "sat")
			} else {
				row = append(row, formatF(p.BELatencyUs))
			}
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// Table3CSV writes the PCS admission columns.
func Table3CSV(tab *experiments.Table3, w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"load", "attempts", "established", "dropped"}); err != nil {
		return err
	}
	for i, r := range tab.Rows {
		if err := cw.Write([]string{
			formatF(tab.Loads[i]),
			strconv.Itoa(r.Attempts),
			strconv.Itoa(r.Established),
			strconv.Itoa(r.Dropped),
		}); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// BoundsCSV writes one row per bound-versus-observed grid cell. Infinite
// bounds (cells the analytic model declines to certify) render as "inf".
func BoundsCSV(rep *experiments.BoundsReport, w io.Writer) error {
	cw := csv.NewWriter(w)
	header := []string{
		"fabric", "load", "rt_share", "streams", "certified", "compared",
		"violations", "worst_bound_ms", "worst_observed_ms", "median_slack",
		"max_backlog_kbits",
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	for _, c := range rep.Cells {
		bound := "inf"
		if c.Certified > 0 {
			bound = formatF(c.WorstBoundMs)
		}
		backlog := "inf"
		if !math.IsInf(c.MaxBacklogKbits, 1) {
			backlog = formatF(c.MaxBacklogKbits)
		}
		row := []string{
			c.Fabric,
			formatF(c.Load),
			formatF(c.RTShare),
			strconv.Itoa(c.Streams),
			strconv.Itoa(c.Certified),
			strconv.Itoa(c.Compared),
			strconv.Itoa(c.Violations),
			bound,
			formatF(c.WorstObservedMs),
			formatF(c.MedianSlack),
			backlog,
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteBoundsFile renders a bounds report to <dir>/bounds.csv.
func WriteBoundsFile(dir string, rep *experiments.BoundsReport) (string, error) {
	return writeFile(dir, "bounds", func(w io.Writer) error { return BoundsCSV(rep, w) })
}

// WriteFigureFile renders a figure to <dir>/<id>.csv.
func WriteFigureFile(dir string, fig *experiments.Figure) (string, error) {
	return writeFile(dir, fig.ID, func(w io.Writer) error { return FigureCSV(fig, w) })
}

// WriteTable2File renders Table 2 to <dir>/table2.csv.
func WriteTable2File(dir string, tab *experiments.Table2) (string, error) {
	return writeFile(dir, "table2", func(w io.Writer) error { return Table2CSV(tab, w) })
}

// WriteTable3File renders Table 3 to <dir>/table3.csv.
func WriteTable3File(dir string, tab *experiments.Table3) (string, error) {
	return writeFile(dir, "table3", func(w io.Writer) error { return Table3CSV(tab, w) })
}

func writeFile(dir, id string, render func(io.Writer) error) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, id+".csv")
	if err := artifact.WriteFunc(path, 0o644, render); err != nil {
		return "", fmt.Errorf("report: rendering %s: %w", id, err)
	}
	return path, nil
}
