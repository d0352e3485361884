package experiments

import (
	"context"
	"errors"
	"fmt"
	"time"

	"mediaworm"
	"mediaworm/internal/obs"
	"mediaworm/internal/rng"
	"mediaworm/internal/runner"
	"mediaworm/internal/stats"
)

// This file is the bridge between the figure definitions and the parallel
// executor in internal/runner. Every sweep flows through runCells, by way of
// runGrid (wormhole points) or runPCSGrid (the PCS baseline): cells run
// across a bounded worker pool, results are reassembled positionally, and
// the per-cell seed of each replica derives from (Options.Seed, cell index,
// replica index) — so output is byte-identical at any Options.Parallel
// setting.
//
// Progress and TraceSink are emitted from the collector (the calling
// goroutine) in grid order as the completed prefix advances, never from
// workers: progress lines stay monotone in grid order and per-point trace
// captures never interleave.

// emission is the ordered side-channel of one grid job, written by the
// worker that ran it and consumed by the collector's OnDone (the runner's
// completion channel orders the hand-off).
type emission struct {
	label      string // Progress point label
	traceLabel string // TraceSink label (includes the policy)
	trace      *obs.Capture
	elapsed    time.Duration
}

// emitter returns the runner OnDone hook delivering trace captures and
// progress lines in grid order.
func emitter(opt Options, aux []emission) func(int) {
	if opt.TraceSink == nil && opt.Progress == nil {
		return nil
	}
	return func(i int) {
		e := &aux[i]
		if e.trace != nil && opt.TraceSink != nil {
			opt.TraceSink(e.traceLabel, e.trace)
			e.trace = nil // release the capture once sunk
		}
		if opt.Progress != nil {
			opt.Progress("", e.label, e.elapsed)
		}
	}
}

// replicaSuffix distinguishes replica emissions; replica 0 keeps the bare
// label so single-replica sweeps read exactly as before.
func replicaSuffix(rep int) string {
	if rep == 0 {
		return ""
	}
	return fmt.Sprintf(" rep=%d", rep)
}

// seriesSweep runs one series per label over the x values xs through
// runGrid and appends the series to fig. Every cell starts from
// baseConfig(opt) with x as its load, or as its real-time share when the
// figure's rows are mixes (Figure.XIsMix); mutate then applies the series'
// own settings.
func seriesSweep(opt Options, fig *Figure, labels []string, xs []float64, mutate func(cfg *mediaworm.Config, series int)) (*Figure, error) {
	opt = opt.normalized()
	var cfgs []mediaworm.Config
	for s := range labels {
		for _, x := range xs {
			cfg := baseConfig(opt)
			if fig.XIsMix {
				cfg.RTShare = x
			} else {
				cfg.Load = x
			}
			mutate(&cfg, s)
			cfgs = append(cfgs, cfg)
		}
	}
	pts, err := runGrid(opt, cfgs)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", fig.ID, err)
	}
	for s, label := range labels {
		fig.Series = append(fig.Series, Series{Label: label, Points: pts[s*len(xs) : (s+1)*len(xs)]})
	}
	return fig, nil
}

// names labels one series per value of a string-named setting.
func names[T ~string](values []T) []string {
	labels := make([]string, len(values))
	for i, v := range values {
		labels[i] = string(v)
	}
	return labels
}

// loadLabels labels one series per load, for figures whose rows are mixes.
func loadLabels(loads []float64) []string {
	labels := make([]string, len(loads))
	for i, load := range loads {
		labels[i] = fmt.Sprintf("load %.2f", load)
	}
	return labels
}

// runGrid executes one wormhole simulation per grid cell.
func runGrid(opt Options, cfgs []mediaworm.Config) ([]Point, error) {
	return runCells(opt, cfgs, mediaworm.Run)
}

// runPCSGrid executes one PCS simulation per grid cell. PCS carries no
// best-effort traffic and no trace, so its frame-interval measurements are
// the whole of the Result a Point reads.
func runPCSGrid(opt Options, cfgs []mediaworm.Config) ([]Point, error) {
	return runCells(opt, cfgs, func(cfg mediaworm.Config) (mediaworm.Result, error) {
		res, err := mediaworm.RunPCS(cfg)
		return mediaworm.Result{
			MeanDeliveryIntervalMs:   res.MeanDeliveryIntervalMs,
			StdDevDeliveryIntervalMs: res.StdDevDeliveryIntervalMs,
			FrameIntervals:           res.FrameIntervals,
		}, err
	})
}

// runCells runs every grid cell (in the given order) through run, expanding
// each cell into opt.Replicas independent-seed replicas, and reduces the
// replicas of each cell into a single Point carrying the replica mean and
// 95% confidence half-widths.
func runCells(opt Options, cfgs []mediaworm.Config, run func(mediaworm.Config) (mediaworm.Result, error)) ([]Point, error) {
	opt = opt.normalized()
	reps := opt.Replicas
	jobs := len(cfgs) * reps
	aux := make([]emission, jobs)
	results, err := runner.Map(context.Background(), jobs,
		runner.Options{Workers: opt.Parallel, OnDone: emitter(opt, aux)},
		func(_ context.Context, i int) (Point, error) {
			cell, rep := i/reps, i%reps
			cfg := cfgs[cell]
			if rep > 0 {
				cfg.Seed = rng.DeriveSeed(cfg.Seed, uint64(cell), uint64(rep))
			}
			start := opt.Clock()
			res, err := run(cfg)
			if err != nil {
				return Point{}, err
			}
			aux[i] = emission{
				label:   cellLabel(cfg) + replicaSuffix(rep),
				elapsed: opt.Clock().Sub(start),
			}
			if res.Trace != nil {
				aux[i].trace = res.Trace
				aux[i].traceLabel = cellLabel(cfg) + " policy=" + string(cfg.Policy) + replicaSuffix(rep)
			}
			return pointFrom(cfg, res), nil
		})
	if err != nil {
		return nil, gridError(err, reps, func(cell int) string { return cellLabel(cfgs[cell]) })
	}
	return poolGrid(results, len(cfgs), reps), nil
}

// cellLabel names a grid cell by its operating point.
func cellLabel(cfg mediaworm.Config) string {
	return fmt.Sprintf("load=%.2f mix=%.0f:%.0f", cfg.Load, cfg.RTShare*100, (1-cfg.RTShare)*100)
}

// gridError rewrites a runner failure in sweep vocabulary: which cell (by
// its human label) and which replica failed.
func gridError(err error, reps int, label func(cell int) string) error {
	var re *runner.Error
	if !errors.As(err, &re) {
		return err
	}
	cell, rep := re.Index/reps, re.Index%reps
	return fmt.Errorf("point %s%s: %w", label(cell), replicaSuffix(rep), re.Err)
}

// pointFrom normalizes one simulation result to paper-scale milliseconds.
func pointFrom(cfg mediaworm.Config, res mediaworm.Result) Point {
	norm := paperIntervalMs / (cfg.FrameInterval.Seconds() * 1000)
	p := Point{
		Load:        cfg.Load,
		RTShare:     cfg.RTShare,
		DMs:         res.MeanDeliveryIntervalMs * norm,
		SDMs:        res.StdDevDeliveryIntervalMs * norm,
		BELatencyUs: res.BestEffort.MeanLatencyUs,
		BESaturated: res.BestEffort.Saturated,
		Samples:     res.FrameIntervals,
	}
	if res.BestEffort.Injected == 0 {
		p.BELatencyUs = 0
	}
	return p
}

// poolGrid reduces a cells×reps result grid to one Point per cell.
func poolGrid(results []Point, cells, reps int) []Point {
	if reps == 1 {
		return results
	}
	pts := make([]Point, cells)
	for c := 0; c < cells; c++ {
		pts[c] = poolReplicas(results[c*reps : (c+1)*reps])
	}
	return pts
}

// poolReplicas folds replica measurements of one cell into a single Point:
// metric means with Student-t 95% confidence half-widths, summed sample
// counts, and a majority vote on saturation.
func poolReplicas(reps []Point) Point {
	p := reps[0]
	var d, sd, be stats.Welford
	saturated := 0
	var samples uint64
	for _, r := range reps {
		d.Add(r.DMs)
		sd.Add(r.SDMs)
		be.Add(r.BELatencyUs)
		if r.BESaturated {
			saturated++
		}
		samples += r.Samples
	}
	p.DMs, p.SDMs, p.BELatencyUs = d.Mean(), sd.Mean(), be.Mean()
	p.DMsCI95, p.SDMsCI95, p.BECI95 = d.CI95(), sd.CI95(), be.CI95()
	p.BESaturated = 2*saturated >= len(reps)
	p.Samples = samples
	p.Replicas = len(reps)
	return p
}
