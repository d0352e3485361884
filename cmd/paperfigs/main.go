// Command paperfigs regenerates every figure and table of the MediaWorm
// paper's evaluation section and prints them as text tables.
//
// Usage:
//
//	paperfigs [-scale 0.2] [-seed 1] [-intervals 10] [-only fig3,table2]
//	          [-parallel 0] [-replicas 1] [-v]
//
// -scale 1.0 runs the paper's exact workload (slow: full MPEG-2 frames at
// 33 ms); the default shrinks the video time base 5× and normalizes
// reported intervals back to the 33 ms base.
//
// -parallel fans independent sweep points across worker goroutines (0 uses
// every core); output is byte-identical to a serial run for the same seed.
// -replicas R re-runs every point R times with independent derived seeds and
// reports replica means with 95% confidence half-widths (± columns).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"mediaworm/internal/experiments"
	"mediaworm/internal/report"
	"mediaworm/internal/viz"
)

func main() {
	scale := flag.Float64("scale", 0.2, "video time-base scale factor (1.0 = paper-exact)")
	seed := flag.Uint64("seed", 1, "workload random seed")
	intervals := flag.Int("intervals", 10, "measured frame intervals per point")
	parallel := flag.Int("parallel", 0, "sweep worker goroutines (0 = all cores, 1 = serial); output is byte-identical either way")
	replicas := flag.Int("replicas", 1, "independent-seed runs per point, reported as mean ± 95% CI")
	only := flag.String("only", "", "comma-separated subset: fig3,fig4,fig5,table2,fig6,fig7,fig8,table3,fig9,table1,bounds; 'bounds-smoke' runs the reduced bound-soundness grid and exits nonzero on violations; ablations/extensions by id (abl-alloc,abl-endpointvc,abl-source,abl-sched,ext-gop,ext-tetra,ext-dynpart,schedzoo,scale) or 'extras' for all of them; 'schedzoo-smoke' runs the reduced scheduler-zoo grid with policing armed; 'scale-smoke' runs the reduced topology-generator grid; any other id is an error")
	verbose := flag.Bool("v", false, "print per-point progress")
	csvDir := flag.String("csv", "", "also write each figure/table as CSV into this directory")
	svgDir := flag.String("svg", "", "also render each figure as SVG charts into this directory")
	flag.Parse()

	opt := experiments.DefaultOptions()
	opt.Scale = *scale
	opt.Seed = *seed
	opt.MeasureIntervals = *intervals
	opt.Parallel = *parallel
	opt.Replicas = *replicas
	if *verbose {
		opt.Progress = func(fig, point string, elapsed time.Duration) {
			fmt.Fprintf(os.Stderr, "  %s (%.1fs)\n", point, elapsed.Seconds())
		}
	}

	var ids []string
	want := map[string]bool{}
	if *only != "" {
		for _, id := range strings.Split(*only, ",") {
			id = strings.TrimSpace(id)
			ids = append(ids, id)
			want[id] = true
		}
	}

	start := time.Now()
	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "paperfigs:", err)
		os.Exit(1)
	}
	emit := func(fig *experiments.Figure) error {
		fig.Fprint(os.Stdout)
		if *csvDir != "" {
			if _, err := report.WriteFigureFile(*csvDir, fig); err != nil {
				return err
			}
		}
		if *svgDir != "" {
			if _, err := viz.WriteChartFiles(*svgDir, fig); err != nil {
				return err
			}
		}
		return nil
	}
	figure := func(run func(experiments.Options) (*experiments.Figure, error)) func() error {
		return func() error {
			fig, err := run(opt)
			if err != nil {
				return err
			}
			return emit(fig)
		}
	}
	// Fig. 5 and Table 2 print two views of one sweep, run once for both.
	var fig5 *experiments.Figure
	var tab2 *experiments.Table2
	fig5Table2 := func() (err error) {
		if fig5 == nil {
			fig5, tab2, err = experiments.Fig5Table2(opt)
		}
		return err
	}
	bounds := func(run func(experiments.Options) (*experiments.BoundsReport, error), gate bool) error {
		rep, err := run(opt)
		if err != nil {
			return err
		}
		rep.Fprint(os.Stdout)
		if *csvDir != "" {
			if _, err := report.WriteBoundsFile(*csvDir, rep); err != nil {
				return err
			}
		}
		if v := rep.Violations(); gate && v > 0 {
			return fmt.Errorf("bounds smoke: %d observed worst-case latencies above their analytic bound", v)
		}
		return nil
	}

	// Every id -only accepts, in print order. Without -only the paper set
	// runs. Extras (ablations and extensions beyond the paper) run when named
	// or under "extras"; the CI gates (bound soundness and the scheduler-zoo
	// and topology-generator smoke grids) run only when named.
	const (
		paper = iota
		extra
		gate
	)
	figures := []struct {
		id  string
		set int
		run func() error
	}{
		{"table1", paper, func() error { experiments.Table1(os.Stdout); return nil }},
		{"fig3", paper, figure(experiments.Fig3)},
		{"fig4", paper, figure(experiments.Fig4)},
		{"fig5", paper, func() error {
			if err := fig5Table2(); err != nil {
				return err
			}
			return emit(fig5)
		}},
		{"table2", paper, func() error {
			if err := fig5Table2(); err != nil {
				return err
			}
			tab2.Fprint(os.Stdout)
			if *csvDir != "" {
				if _, err := report.WriteTable2File(*csvDir, tab2); err != nil {
					return err
				}
			}
			return nil
		}},
		{"fig6", paper, figure(experiments.Fig6)},
		{"fig7", paper, figure(experiments.Fig7)},
		{"fig8", paper, figure(experiments.Fig8)},
		{"table3", paper, func() error {
			tab := experiments.RunTable3(opt)
			tab.Fprint(os.Stdout)
			if *csvDir != "" {
				if _, err := report.WriteTable3File(*csvDir, tab); err != nil {
					return err
				}
			}
			return nil
		}},
		{"fig9", paper, func() error {
			fig, err := experiments.Fig9(opt)
			if err != nil {
				return err
			}
			if err := emit(fig); err != nil {
				return err
			}
			experiments.Fig9BestEffort(fig, os.Stdout)
			return nil
		}},
		{"bounds", paper, func() error {
			if want["bounds-smoke"] {
				return nil // the reduced grid replaces the full one
			}
			return bounds(experiments.BoundsSweep, false)
		}},
		{"bounds-smoke", gate, func() error { return bounds(experiments.BoundsSmoke, true) }},
		{"schedzoo-smoke", gate, figure(experiments.SchedZooSmoke)},
		{"scale-smoke", gate, figure(experiments.ScaleSmoke)},
		{"abl-alloc", extra, figure(experiments.AblationAllocator)},
		{"abl-endpointvc", extra, figure(experiments.AblationEndpointVCs)},
		{"abl-source", extra, figure(experiments.AblationSourcePolicy)},
		{"abl-sched", extra, figure(experiments.AblationScheduler)},
		{"schedzoo", extra, figure(experiments.SchedZoo)},
		{"ext-gop", extra, figure(experiments.ExtGoP)},
		{"ext-tetra", extra, figure(experiments.ExtTetrahedral)},
		{"scale", extra, figure(experiments.ScaleSweep)},
		{"ext-dynpart", extra, func() error {
			res, err := experiments.ExtDynamicPartition(opt)
			if err != nil {
				return err
			}
			experiments.FprintDynPart(res, os.Stdout)
			return nil
		}},
	}
	known := map[string]bool{"extras": true}
	for _, f := range figures {
		known[f.id] = true
	}
	for _, id := range ids {
		if !known[id] {
			fail(fmt.Errorf("-only: unknown id %q", id))
		}
	}
	for _, f := range figures {
		selected := want[f.id] || f.set == paper && len(want) == 0 || f.set == extra && want["extras"]
		if !selected {
			continue
		}
		if err := f.run(); err != nil {
			fail(err)
		}
	}
	fmt.Fprintf(os.Stderr, "done in %.1fs\n", time.Since(start).Seconds())
}
