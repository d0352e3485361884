// Command mwsweep sweeps one simulation parameter over a range and emits
// one CSV row per point — the general-purpose companion to cmd/paperfigs
// for exploring operating envelopes.
//
// Points are independent seeded simulations, so they fan out across a
// bounded worker pool (-parallel, default all cores) with rows, trace files
// and metrics files emitted in sweep order — output is byte-identical to a
// serial run. -replicas R re-runs each point under R independent derived
// seeds and appends mean ± 95% CI columns.
//
// Examples:
//
//	mwsweep -param load -from 0.5 -to 0.96 -steps 8 -mix 0.8
//	mwsweep -param mix -from 0.1 -to 1.0 -steps 10 -load 0.9
//	mwsweep -param vcs -from 4 -to 24 -steps 6 -load 0.9 -policy fifo -parallel 4 -replicas 5
//	mwsweep -param load -steps 8 -manifest sweep.manifest   # journal completed cells
//	mwsweep -param load -steps 8 -manifest sweep.manifest -resume   # redo only missing cells
package main

import (
	"context"
	"crypto/sha256"
	"encoding/csv"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"time"

	"mediaworm"
	"mediaworm/internal/artifact"
	"mediaworm/internal/calculus"
	"mediaworm/internal/experiments"
	"mediaworm/internal/obs"
	"mediaworm/internal/prof"
	"mediaworm/internal/rng"
	"mediaworm/internal/runner"
	"mediaworm/internal/stats"
)

func main() {
	param := flag.String("param", "load", "swept parameter: load, mix, vcs, msg-flits, buffer")
	from := flag.Float64("from", 0.5, "sweep start")
	to := flag.Float64("to", 0.96, "sweep end (inclusive)")
	steps := flag.Int("steps", 6, "number of points")
	load := flag.Float64("load", 0.8, "fixed load (when not swept)")
	mix := flag.Float64("mix", 0.8, "fixed real-time share (when not swept)")
	vcs := flag.Int("vcs", 16, "fixed VCs (when not swept)")
	policy := flag.String("policy", string(mediaworm.VirtualClock), "scheduling policy")
	topo := flag.String("topology", string(mediaworm.SingleSwitch), "topology: the paper's single-switch, fat-mesh-2x2 or tetrahedral (generator specs full1, mesh2x2l2, full4c4), or any generator spec like full4, mesh4x4, torus8x8 or clos8x4x8 (suffix c<n> = endpoints per router, l<n> = lanes per channel)")
	lanes := flag.Int("lanes", 0, "parallel physical links per channel on any topology (0 = spec default: 2 on fat-mesh-2x2, else 1)")
	scale := flag.Float64("scale", 0.2, "video time-base scale")
	intervals := flag.Int("intervals", 10, "measured frame intervals")
	seed := flag.Uint64("seed", 1, "random seed")
	parallel := flag.Int("parallel", 0, "worker goroutines (0 = all cores, 1 = serial); output is byte-identical either way")
	replicas := flag.Int("replicas", 1, "independent-seed runs per point, reported as mean ± 95% CI")
	tracePrefix := flag.String("trace-prefix", "", "write <prefix><point>.trace.json per point (enables tracing)")
	metricsPrefix := flag.String("metrics-prefix", "", "write <prefix><point>.metrics.csv per point (enables tracing)")
	traceEvents := flag.Int("trace-events", 0, "trace ring-buffer capacity in events (0 = 65536)")
	manifestPath := flag.String("manifest", "", "journal completed cells to this file (fsynced per cell)")
	resume := flag.Bool("resume", false, "reuse an existing manifest: skip journaled cells, recompute only the missing ones")
	bounds := flag.Bool("bounds", false, "append the analytic network-calculus delay bound per point (bound_ms; inf = model declines the operating point)")
	cellTimeout := flag.Duration("cell-timeout", 0, "per-cell wall-clock limit (0 = none)")
	retries := flag.Int("retries", 0, "extra attempts per failed cell before the sweep aborts")
	crashAfter := flag.Int("crash-after", 0, "testing hook: exit(3) after this many cells are journaled")
	profFlags := prof.Register()
	flag.Parse()

	stopProf, err := profFlags.Start()
	if err != nil {
		fatal(err)
	}
	defer stopProf()

	if *steps < 1 {
		fatal(fmt.Errorf("steps must be ≥ 1"))
	}
	reps := *replicas
	if reps < 1 {
		reps = 1
	}

	// Build the full grid up front: one config per (step, replica), replica
	// seeds derived from (seed, step, replica) so results are independent of
	// worker scheduling.
	xs := make([]float64, *steps)
	cfgs := make([]mediaworm.Config, *steps)
	for i := 0; i < *steps; i++ {
		x := *from
		if *steps > 1 {
			x += (*to - *from) * float64(i) / float64(*steps-1)
		}
		xs[i] = x
		cfg := mediaworm.DefaultConfig()
		cfg.Topology = mediaworm.Topology(*topo)
		cfg.Lanes = *lanes
		cfg.Policy = mediaworm.Policy(*policy)
		cfg.Load = *load
		cfg.RTShare = *mix
		cfg.VCs = *vcs
		cfg.Seed = *seed
		switch *param {
		case "load":
			cfg.Load = x
		case "mix":
			cfg.RTShare = x
		case "vcs":
			cfg.VCs = int(math.Round(x))
		case "msg-flits":
			cfg.MsgFlits = int(math.Round(x))
		case "buffer":
			cfg.BufferDepth = int(math.Round(x))
		default:
			fatal(fmt.Errorf("unknown parameter %q", *param))
		}
		cfg = cfg.Scale(*scale)
		cfg.Warmup = 3 * cfg.FrameInterval
		cfg.Measure = time.Duration(*intervals) * cfg.FrameInterval
		if *tracePrefix != "" || *metricsPrefix != "" {
			cfg.Trace = mediaworm.TraceConfig{Enabled: true, EventCap: *traceEvents}
		}
		cfgs[i] = cfg
	}

	// Price every cell before any runs, so a fabric the analytic model
	// cannot price fails up front rather than after the whole sweep.
	var boundCells []string
	if *bounds {
		for _, cfg := range cfgs {
			bound, err := analyticBound(cfg)
			if err != nil {
				fatal(fmt.Errorf("-bounds: %w", err))
			}
			boundCells = append(boundCells, bound)
		}
	}

	type run struct {
		res   mediaworm.Result
		norm  float64 // ms normalization for this config
		trace *obs.Capture
		point string // file-name stem for trace/metrics artifacts
	}
	jobs := *steps * reps

	// The manifest journals each finished cell's figures; it is keyed by a
	// fingerprint of the built grid so a stale or foreign journal is refused
	// instead of silently poisoning the sweep. JSON round-trips float64
	// exactly, so a resumed sweep's CSV is byte-identical to an
	// uninterrupted one.
	var man *runner.Manifest
	if *resume && *manifestPath == "" {
		fatal(errors.New("-resume requires -manifest"))
	}
	if *manifestPath != "" {
		key, err := manifestKey(*param, reps, cfgs)
		if err != nil {
			fatal(err)
		}
		if !*resume {
			if err := os.Remove(*manifestPath); err != nil && !os.IsNotExist(err) {
				fatal(err)
			}
		}
		man, err = runner.OpenManifest(*manifestPath, key)
		if err != nil {
			fatal(err)
		}
		defer man.Close()
		if *resume && man.CountDone() > 0 {
			fmt.Fprintf(os.Stderr, "mwsweep: resuming, %d/%d cells already journaled\n", man.CountDone(), jobs)
		}
	}
	type cellRecord struct {
		Point string           `json:"point"`
		Norm  float64          `json:"norm"`
		Res   mediaworm.Result `json:"result"`
	}

	runs := make([]run, jobs)
	var sinkErr error
	recorded := 0
	_, err = runner.Map(context.Background(), jobs, runner.Options{
		Workers:     *parallel,
		CellTimeout: *cellTimeout,
		Retries:     *retries,
		// Artifact files are written from the collector in sweep order, so
		// a failing write aborts deterministically at the same point a
		// serial sweep would have. Each cell is journaled only after its
		// artifacts are safely renamed into place — a crash between the two
		// reruns the cell, never trusts torn output.
		OnDone: func(i int) {
			if sinkErr != nil {
				return
			}
			r := &runs[i]
			if r.trace != nil {
				if *tracePrefix != "" {
					sinkErr = artifact.WriteFunc(*tracePrefix+r.point+".trace.json", 0o644, func(w io.Writer) error {
						return obs.WriteChromeTrace(w, r.trace)
					})
				}
				if *metricsPrefix != "" && sinkErr == nil {
					sinkErr = artifact.WriteFunc(*metricsPrefix+r.point+".metrics.csv", 0o644, func(w io.Writer) error {
						return obs.WriteMetricsCSV(w, r.trace)
					})
				}
				r.trace = nil
				if sinkErr != nil {
					return
				}
			}
			if man == nil {
				return
			}
			if _, ok := man.Done(i); ok {
				return
			}
			res := r.res
			res.Trace = nil
			if sinkErr = man.Record(i, cellRecord{Point: r.point, Norm: r.norm, Res: res}); sinkErr != nil {
				return
			}
			recorded++
			if *crashAfter > 0 && recorded >= *crashAfter {
				fmt.Fprintf(os.Stderr, "mwsweep: -crash-after %d reached, simulating crash\n", *crashAfter)
				os.Exit(3)
			}
		},
	}, func(_ context.Context, i int) (struct{}, error) {
		if man != nil {
			if raw, ok := man.Done(i); ok {
				var rec cellRecord
				if err := json.Unmarshal(raw, &rec); err != nil {
					return struct{}{}, fmt.Errorf("manifest cell %d: %w", i, err)
				}
				runs[i] = run{res: rec.Res, norm: rec.Norm, point: rec.Point}
				return struct{}{}, nil
			}
		}
		cell, rep := i/reps, i%reps
		cfg := cfgs[cell]
		if rep > 0 {
			cfg.Seed = rng.DeriveSeed(cfg.Seed, uint64(cell), uint64(rep))
		}
		res, err := mediaworm.Run(cfg)
		if err != nil {
			return struct{}{}, err
		}
		point := fmt.Sprintf("%s-%g", *param, xs[cell])
		if rep > 0 {
			point += fmt.Sprintf("-rep%d", rep)
		}
		runs[i] = run{
			res:   res,
			norm:  paperNorm(cfg),
			trace: res.Trace,
			point: point,
		}
		return struct{}{}, nil
	})
	if err != nil {
		var re *runner.Error
		if errors.As(err, &re) {
			fatal(fmt.Errorf("point %s=%g: %w", *param, xs[re.Index/reps], re.Err))
		}
		fatal(err)
	}
	if sinkErr != nil {
		fatal(sinkErr)
	}

	w := csv.NewWriter(os.Stdout)
	defer w.Flush()
	header := []string{*param, "d_ms", "sd_ms", "be_latency_us", "be_saturated", "playout_miss_rate", "streams"}
	if *bounds {
		header = append(header, "bound_ms")
	}
	if reps > 1 {
		header = append(header, "d_ms_ci95", "sd_ms_ci95", "be_latency_us_ci95", "replicas")
	}
	if err := w.Write(header); err != nil {
		fatal(err)
	}
	for cell := 0; cell < *steps; cell++ {
		var d, sd, be, miss stats.Welford
		saturated := 0
		for rep := 0; rep < reps; rep++ {
			r := &runs[cell*reps+rep]
			d.Add(r.res.MeanDeliveryIntervalMs * r.norm)
			sd.Add(r.res.StdDevDeliveryIntervalMs * r.norm)
			be.Add(r.res.BestEffort.MeanLatencyUs)
			miss.Add(r.res.Playout.MissRate)
			if r.res.BestEffort.Saturated {
				saturated++
			}
		}
		row := []string{
			strconv.FormatFloat(xs[cell], 'g', 6, 64),
			strconv.FormatFloat(d.Mean(), 'f', 3, 64),
			strconv.FormatFloat(sd.Mean(), 'f', 4, 64),
			strconv.FormatFloat(be.Mean(), 'f', 1, 64),
			strconv.FormatBool(2*saturated >= reps),
			strconv.FormatFloat(miss.Mean(), 'f', 5, 64),
			strconv.Itoa(runs[cell*reps].res.Streams),
		}
		if *bounds {
			row = append(row, boundCells[cell])
		}
		if reps > 1 {
			row = append(row,
				strconv.FormatFloat(d.CI95(), 'f', 4, 64),
				strconv.FormatFloat(sd.CI95(), 'f', 4, 64),
				strconv.FormatFloat(be.CI95(), 'f', 2, 64),
				strconv.Itoa(reps),
			)
		}
		if err := w.Write(row); err != nil {
			fatal(err)
		}
	}
}

// manifestKey fingerprints everything that shapes a sweep's rows: every
// cell's configuration as built from the flags, the swept parameter and the
// replica count. Trace settings are cleared first: they choose artifact
// files, not results.
func manifestKey(param string, reps int, cfgs []mediaworm.Config) (string, error) {
	h := sha256.New()
	fmt.Fprintf(h, "param=%s replicas=%d\n", param, reps)
	for _, cfg := range cfgs {
		cfg.Trace = mediaworm.TraceConfig{}
		b, err := json.Marshal(cfg)
		if err != nil {
			return "", err
		}
		h.Write(append(b, '\n'))
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// analyticBound prices one sweep cell's worst-case end-to-end delay with the
// closed-form network-calculus model (internal/calculus) under the balanced
// placement the cell's load implies, normalized to paper-scale milliseconds.
// "inf" means the model declines the operating point rather than certify an
// unsound bound; an error means it cannot price the fabric at all.
func analyticBound(cfg mediaworm.Config) (string, error) {
	p, err := experiments.CalculusParams(cfg)
	if err != nil {
		return "", err
	}
	bound, _, err := calculus.BalancedDelayBoundSec(p, cfg.Load, cfg.RTShare)
	if err != nil {
		return "", err
	}
	if math.IsInf(bound, 1) {
		return "inf", nil
	}
	return strconv.FormatFloat(bound*1e3*paperNorm(cfg), 'f', 3, 64), nil
}

// paperNorm rescales a scaled run's milliseconds to the paper's 33 ms frame
// interval.
func paperNorm(cfg mediaworm.Config) float64 {
	return 33.0 / (cfg.FrameInterval.Seconds() * 1000)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mwsweep:", err)
	os.Exit(1)
}
