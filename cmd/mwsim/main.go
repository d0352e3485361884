// Command mwsim runs a single MediaWorm simulation from flags and prints
// the result as text or JSON.
//
// Examples:
//
//	mwsim -load 0.8 -mix 0.8 -policy virtual-clock
//	mwsim -topology fat-mesh-2x2 -load 0.9 -mix 0.6 -json
//	mwsim -pcs -vcs 24 -link-mbps 100 -load 0.7
//	mwsim -topology fat-mesh-2x2 -fault-mtbf 30ms -fault-mttr 2ms -retransmit
//	mwsim -fault-sweep -seed 1
//	mwsim -load 0.9 -checkpoint run.ckpt -checkpoint-every 50ms
//	mwsim -restore run.ckpt -json
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"
)

import (
	"mediaworm"
	"mediaworm/internal/artifact"
	"mediaworm/internal/experiments"
	"mediaworm/internal/obs"
	"mediaworm/internal/prof"
)

func main() {
	var (
		topology  = flag.String("topology", string(mediaworm.SingleSwitch), "the paper's single-switch, fat-mesh-2x2 or tetrahedral (generator specs full1, mesh2x2l2, full4c4), or any generator spec like full4, mesh4x4, torus8x8 or clos8x4x8 (suffix c<n> = endpoints per router, l<n> = lanes per channel)")
		lanes     = flag.Int("lanes", 0, "parallel physical links per channel on any topology (0 = spec default: 2 on fat-mesh-2x2, else 1)")
		ports     = flag.Int("ports", 8, "ports per router (the radix of full<n> fabrics; meshes, tori and Clos size their own, and fat-mesh-2x2 must match its plan)")
		vcs       = flag.Int("vcs", 16, "virtual channels per physical channel")
		policy    = flag.String("policy", string(mediaworm.VirtualClock), "fifo, round-robin, virtual-clock, wrr, drr, wf2q or sp+wrr")
		fullXbar  = flag.Bool("full-crossbar", false, "use a full (n·m × n·m) crossbar")
		load      = flag.Float64("load", 0.8, "offered input-link load (fraction of link bandwidth)")
		mix       = flag.Float64("mix", 1.0, "real-time share x/(x+y) of the load")
		class     = flag.String("class", string(mediaworm.VBR), "vbr or cbr")
		linkMbps  = flag.Float64("link-mbps", 400, "physical channel bandwidth in Mb/s")
		msgFlits  = flag.Int("msg-flits", 20, "message size in flits")
		scale     = flag.Float64("scale", 0.2, "video time-base scale (1.0 = paper-exact)")
		intervals = flag.Int("intervals", 10, "measured frame intervals")
		seed      = flag.Uint64("seed", 1, "random seed")
		pcsMode   = flag.Bool("pcs", false, "run the PCS router instead of MediaWorm on the single-switch, all-VBR workload the other flags describe (the paper's Fig. 8 switch: -vcs 24 -link-mbps 100)")
		asJSON    = flag.Bool("json", false, "emit JSON")

		rtWeight   = flag.Int("rt-weight", 0, "per-VC weight of the real-time partition under wrr/drr/wf2q/sp+wrr (0 = 1)")
		beWeight   = flag.Int("be-weight", 0, "per-VC weight of the best-effort partition under wrr/drr/wf2q/sp+wrr (0 = 1)")
		drrQuantum = flag.Int("drr-quantum", 0, "DRR base credit in flits per weight unit (0 = 1)")

		policing  = flag.Bool("police", false, "arm the srTCM meter + WRED dropper at every source NI")
		cirFactor = flag.Float64("police-cir", 0, "committed rate as a multiple of the nominal real-time rate (0 = 1.2)")
		cbsFlits  = flag.Int("police-cbs", 0, "committed burst size in flits (0 = one nominal frame)")
		ebsFlits  = flag.Int("police-ebs", 0, "excess burst size in flits (0 = half a frame)")

		faultSweep  = flag.Bool("fault-sweep", false, "run the FaultSweep resilience experiment instead of a single simulation")
		faultMTBF   = flag.Duration("fault-mtbf", 0, "mean time between link failures (0 disables link churn)")
		faultMTTR   = flag.Duration("fault-mttr", 0, "mean time to repair a failed link")
		corruptProb = flag.Float64("corrupt-prob", 0, "per-flit corruption probability in [0,1]")
		retransmit  = flag.Bool("retransmit", false, "enable NI end-to-end retransmission")
		retxTimeout = flag.Duration("retx-timeout", 0, "retransmission timeout (0 = 2 frame intervals)")
		retxMax     = flag.Int("retx-max", 0, "max delivery attempts per message (0 = default 4)")
		watchdog    = flag.Int("watchdog", 0, "deadlock watchdog idle-cycle limit (0 = default when faults on, <0 disables)")
		wdRecover   = flag.Bool("watchdog-recover", false, "let the watchdog kill the youngest blocked worm to break deadlocks")

		tracePath     = flag.String("trace", "", "write a Chrome trace-event JSON file (enables tracing)")
		metricsPath   = flag.String("metrics", "", "write a per-port/per-VC metrics CSV file (enables tracing)")
		traceEvents   = flag.Int("trace-events", 0, "trace ring-buffer capacity in events (0 = 65536)")
		traceInterval = flag.Duration("trace-interval", 0, "metrics snapshot interval in simulated time (0 = final snapshot only)")

		ckptPath  = flag.String("checkpoint", "", "checkpoint file path (written atomically)")
		ckptEvery = flag.Duration("checkpoint-every", 0, "write a checkpoint every D of simulated time (requires -checkpoint)")
		runTo     = flag.Duration("run-to", 0, "stop at this simulated time, write a checkpoint, and exit without a result (requires -checkpoint)")
		restore   = flag.String("restore", "", "restore from a checkpoint file and run to completion (ignores config flags)")

		profFlags = prof.Register()
	)
	flag.Parse()

	stopProf, err := profFlags.Start()
	if err != nil {
		fatal(err)
	}
	defer stopProf()

	if *restore != "" {
		f, err := os.Open(*restore)
		if err != nil {
			fatal(err)
		}
		s, err := mediaworm.RestoreSim(bufio.NewReader(f))
		f.Close()
		if err != nil {
			fatal(err)
		}
		res, err := s.Finish()
		if err != nil {
			fatal(err)
		}
		printResult(res, s.Config(), *asJSON)
		return
	}

	if *faultSweep {
		opt := experiments.DefaultOptions()
		opt.Scale = *scale
		opt.Seed = *seed
		opt.MeasureIntervals = *intervals
		rep, err := experiments.FaultSweep(opt)
		if err != nil {
			fatal(err)
		}
		emit(rep, *asJSON, func() { rep.Fprint(os.Stdout) })
		return
	}

	cfg := mediaworm.DefaultConfig()
	cfg.Topology = mediaworm.Topology(*topology)
	cfg.Lanes = *lanes
	cfg.Ports = *ports
	cfg.VCs = *vcs
	cfg.Policy = mediaworm.Policy(*policy)
	cfg.FullCrossbar = *fullXbar
	cfg.Load = *load
	cfg.RTShare = *mix
	cfg.Class = mediaworm.TrafficClass(*class)
	cfg.LinkBandwidthBps = *linkMbps * 1e6
	cfg.MsgFlits = *msgFlits
	cfg.Seed = *seed
	cfg.Sched = mediaworm.SchedConfig{
		RTWeight: *rtWeight,
		BEWeight: *beWeight,
		Quantum:  *drrQuantum,
	}
	cfg.Policing = mediaworm.PolicingConfig{
		Enabled:   *policing,
		CIRFactor: *cirFactor,
		CBSFlits:  *cbsFlits,
		EBSFlits:  *ebsFlits,
	}
	cfg = cfg.Scale(*scale)
	cfg.Warmup = 3 * cfg.FrameInterval
	cfg.Measure = time.Duration(*intervals) * cfg.FrameInterval
	cfg.Faults = mediaworm.FaultsConfig{
		LinkMTBF:           *faultMTBF,
		LinkMTTR:           *faultMTTR,
		FlitCorruptionProb: *corruptProb,
		Retransmit:         *retransmit,
		RetransmitTimeout:  *retxTimeout,
		MaxRetransmits:     *retxMax,
		WatchdogCycles:     *watchdog,
		WatchdogRecover:    *wdRecover,
	}
	if *tracePath != "" || *metricsPath != "" {
		cfg.Trace = mediaworm.TraceConfig{
			Enabled:         true,
			EventCap:        *traceEvents,
			MetricsInterval: *traceInterval,
		}
	}
	if *pcsMode {
		res, err := mediaworm.RunPCS(cfg)
		if err != nil {
			fatal(err)
		}
		emit(res, *asJSON, func() {
			fmt.Printf("PCS  load=%.2f  d=%.3f ms  σd=%.4f ms  (established %d, dropped %d)\n",
				cfg.Load, res.MeanDeliveryIntervalMs, res.StdDevDeliveryIntervalMs,
				res.Established, res.Dropped)
		})
		return
	}
	if *ckptEvery > 0 || *runTo > 0 {
		if *ckptPath == "" {
			fatal(errors.New("-checkpoint-every and -run-to require -checkpoint <path>"))
		}
		s, err := mediaworm.NewSim(cfg)
		if err != nil {
			fatal(err)
		}
		stop := s.End()
		if *runTo > 0 && *runTo < stop {
			stop = *runTo
		}
		if *ckptEvery > 0 {
			for t := *ckptEvery; t < stop; t += *ckptEvery {
				s.RunTo(t)
				if err := saveCheckpoint(s, *ckptPath); err != nil {
					fatal(err)
				}
			}
		}
		s.RunTo(stop)
		if *runTo > 0 {
			if err := saveCheckpoint(s, *ckptPath); err != nil {
				fatal(err)
			}
			fmt.Fprintf(os.Stderr, "mwsim: checkpoint at %v written to %s\n", s.Now(), *ckptPath)
			return
		}
		res, err := s.Finish()
		if err != nil {
			fatal(err)
		}
		printResult(res, cfg, *asJSON)
		return
	}

	res, err := mediaworm.Run(cfg)
	if err != nil {
		fatal(err)
	}
	if res.Trace != nil {
		if *tracePath != "" {
			if err := artifact.WriteFunc(*tracePath, 0o644, func(w io.Writer) error {
				return obs.WriteChromeTrace(w, res.Trace)
			}); err != nil {
				fatal(err)
			}
		}
		if *metricsPath != "" {
			if err := artifact.WriteFunc(*metricsPath, 0o644, func(w io.Writer) error {
				return obs.WriteMetricsCSV(w, res.Trace)
			}); err != nil {
				fatal(err)
			}
		}
		res.Trace = nil // keep the JSON/text result output compact
	}
	printResult(res, cfg, *asJSON)
}

func saveCheckpoint(s *mediaworm.Sim, path string) error {
	return artifact.WriteFunc(path, 0o644, s.WriteCheckpoint)
}

func printResult(res mediaworm.Result, cfg mediaworm.Config, asJSON bool) {
	emit(res, asJSON, func() {
		norm := 33.0 / (cfg.FrameInterval.Seconds() * 1000)
		fmt.Printf("load=%.2f mix=%.0f:%.0f policy=%s vcs=%d\n",
			cfg.Load, cfg.RTShare*100, (1-cfg.RTShare)*100, cfg.Policy, cfg.VCs)
		fmt.Printf("  d = %.3f ms, σd = %.4f ms (paper scale: %.2f / %.3f), %d samples, %d streams\n",
			res.MeanDeliveryIntervalMs, res.StdDevDeliveryIntervalMs,
			res.MeanDeliveryIntervalMs*norm, res.StdDevDeliveryIntervalMs*norm,
			res.FrameIntervals, res.Streams)
		if res.BestEffort.Injected > 0 {
			sat := ""
			if res.BestEffort.Saturated {
				sat = "  SATURATED"
			}
			fmt.Printf("  best-effort: %.1f µs mean (max %.1f), %d/%d delivered%s\n",
				res.BestEffort.MeanLatencyUs, res.BestEffort.MaxLatencyUs,
				res.BestEffort.Delivered, res.BestEffort.Injected, sat)
		}
		if p := res.Policing; p.Enabled {
			fmt.Printf("  policing: %d drops (%d exceed, %d violate), delivered-frame ratio %.4f\n",
				p.Drops, p.MeterExceed, p.MeterViolate, p.DeliveredFrameRatio)
		}
		if r := res.Resilience; r.Enabled {
			fmt.Printf("  faults: %d link downs / %d ups, %d flits dropped, %d msgs killed\n",
				r.LinkDowns, r.LinkUps, r.FlitsDropped, r.MessagesKilled)
			fmt.Printf("  resilience: %d resends (%d recovered, %d abandoned), delivered-frame ratio %.4f\n",
				r.Retransmissions, r.Recovered, r.Abandoned, r.DeliveredFrameRatio)
			if r.Deadlocks > 0 {
				fmt.Printf("  deadlocks: %d detected, %d broken\n%s", r.Deadlocks, r.DeadlocksBroken, r.DeadlockReport)
			}
		}
	})
}

func emit(v any, asJSON bool, plain func()) {
	if asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(v); err != nil {
			fatal(err)
		}
		return
	}
	plain()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mwsim:", err)
	os.Exit(1)
}
