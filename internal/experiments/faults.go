package experiments

import (
	"context"
	"errors"
	"fmt"
	"io"
	"time"

	"mediaworm"
	"mediaworm/internal/admission"
	"mediaworm/internal/runner"
	"mediaworm/internal/sim"
	"mediaworm/internal/traffic"
)

// FaultSweep studies QoS under failure on the 2×2 fat-mesh: stochastic link
// churn at increasing per-link fault rates over a fixed VBR/best-effort mix,
// with the full resilience stack closed-loop — fault-aware rerouting, NI
// retransmission, the deadlock watchdog in recovery mode, and an admission
// controller that revokes the newest streams when capacity drops and
// re-admits them as links return. Fault scheduling derives from Options.Seed,
// so every point is byte-for-byte reproducible.

// FaultPoint is one fault-rate measurement.
type FaultPoint struct {
	// FaultsPerLink is the expected fault count per transit link over the
	// run (0 = healthy baseline).
	FaultsPerLink float64
	// LinkDowns counts actual bidirectional link failures.
	LinkDowns uint64
	// DeliveredFrameRatio is delivered/emitted frames across admitted
	// streams — the headline graceful-degradation metric.
	DeliveredFrameRatio float64
	// DMs and SDMs are d and σd of admitted streams, paper-scale ms.
	DMs, SDMs float64
	// FlitsDropped counts flits reaped by the fault paths.
	FlitsDropped uint64
	// Retransmissions/Recovered/Abandoned summarize the NI resend layer.
	Retransmissions, Recovered, Abandoned uint64
	// Revoked and Readmitted count admission-control degradation actions.
	Revoked, Readmitted int
	// Deadlocks counts watchdog trips; DeadlocksBroken recovery kills.
	Deadlocks, DeadlocksBroken int
}

// FaultReport is the FaultSweep output.
type FaultReport struct {
	Points []FaultPoint
	Notes  string
}

// FaultSweepRates is the default sweep: expected faults per transit link
// over the measurement window.
var FaultSweepRates = []float64{0, 0.5, 1, 2, 4}

// FaultSweep runs the resilience sweep at each rate in FaultSweepRates.
// Rates are independent closed-loop simulations (fault schedules derive from
// Options.Seed, not from each other), so they fan out across the worker pool
// with results reassembled in rate order.
func FaultSweep(opt Options) (*FaultReport, error) {
	opt = opt.normalized()
	rep := &FaultReport{
		Notes: "2x2 fat-mesh, load 0.70 at 80:20 VBR:best-effort; MTTR = 5% of the run; " +
			"watchdog in recovery mode; retransmit timeout = 2 frame intervals, 4 attempts; " +
			"admission revokes newest-first on capacity loss and re-admits on recovery",
	}
	pts, err := runner.Map(context.Background(), len(FaultSweepRates),
		runner.Options{Workers: opt.Parallel},
		func(_ context.Context, i int) (FaultPoint, error) {
			return runFaultPoint(opt, FaultSweepRates[i])
		})
	if err != nil {
		var re *runner.Error
		if errors.As(err, &re) {
			return nil, fmt.Errorf("fault sweep at rate %v: %w", FaultSweepRates[re.Index], re.Err)
		}
		return nil, fmt.Errorf("fault sweep: %w", err)
	}
	rep.Points = pts
	return rep, nil
}

func runFaultPoint(opt Options, rate float64) (FaultPoint, error) {
	const (
		load    = 0.70
		rtShare = 0.80
	)
	cfg := baseConfig(opt)
	cfg.Topology = mediaworm.FatMesh2x2
	cfg.Load, cfg.RTShare = load, rtShare
	cfg.Trace = mediaworm.TraceConfig{} // points deliver no capture to TraceSink
	// Resilience stack: watchdog in recovery mode, end-to-end retransmission
	// at the FaultsConfig defaults (two frame intervals, four attempts).
	cfg.Faults = mediaworm.FaultsConfig{Retransmit: true, WatchdogRecover: true}
	if rate > 0 {
		stop := cfg.Warmup + cfg.Measure
		cfg.Faults.LinkMTBF = time.Duration(float64(stop) / rate)
		cfg.Faults.LinkMTTR = max(stop/20, 1)
	}
	s, err := mediaworm.NewSim(cfg)
	if err != nil {
		return FaultPoint{}, err
	}
	net := s.Net()

	// Admission closed loop: every generated stream registers with the
	// controller; capacity follows the live transit-link fraction, revoking
	// the newest streams under sustained loss and re-admitting on recovery.
	ctrl, err := admission.NewController(admission.DefaultEnvelope(),
		cfg.LinkBandwidthBps, cfg.FrameBytes*8/cfg.FrameInterval.Seconds())
	if err != nil {
		return FaultPoint{}, err
	}
	ctrl.SetBestEffortLoad(load * (1 - rtShare))
	streams := make(map[int]*traffic.Stream, len(s.Workload().Streams))
	for _, st := range s.Workload().Streams {
		streams[st.ID()] = st
		if !ctrl.AdmitStream(st.ID(), 0) {
			st.Revoke() // over-subscribed at setup: shed immediately
		}
	}
	point := FaultPoint{FaultsPerLink: rate}
	var waiting []int // revoked stream IDs, oldest first
	s.Injector().OnFault = func(at sim.Time, kind string, router, port int) {
		if kind != "link-down" && kind != "link-up" {
			return
		}
		scale := float64(net.LiveTransitLinks()) / float64(len(net.TransitLinks()))
		if scale < 0.05 {
			scale = 0.05
		}
		for _, id := range ctrl.SetCapacityScale(scale) {
			streams[id].Revoke()
			waiting = append(waiting, id)
			point.Revoked++
		}
		// Recovered capacity re-admits waiting streams, oldest first.
		for len(waiting) > 0 && ctrl.AdmitStream(waiting[0], 0) {
			streams[waiting[0]].Resume()
			waiting = waiting[1:]
			point.Readmitted++
		}
	}

	res, err := s.Finish()
	if err != nil {
		return FaultPoint{}, err
	}
	norm := paperIntervalMs / (cfg.FrameInterval.Seconds() * 1000)
	rs := res.Resilience
	point.LinkDowns = rs.LinkDowns
	point.DeliveredFrameRatio = rs.DeliveredFrameRatio
	point.DMs = res.MeanDeliveryIntervalMs * norm
	point.SDMs = res.StdDevDeliveryIntervalMs * norm
	point.FlitsDropped = rs.FlitsDropped
	point.Retransmissions = rs.Retransmissions
	point.Recovered = rs.Recovered
	point.Abandoned = rs.Abandoned
	point.Deadlocks = rs.Deadlocks
	point.DeadlocksBroken = rs.DeadlocksBroken
	return point, nil
}

// Fprint renders the sweep as an aligned text table.
func (r *FaultReport) Fprint(w io.Writer) {
	fmt.Fprintln(w, "== fault-sweep: QoS under link churn (2x2 fat-mesh, load 0.70, 80:20) ==")
	rows := [][]string{{
		"faults/link", "downs", "DFR", "d(ms)", "σd(ms)",
		"dropped", "resends", "abandoned", "revoked", "readmitted", "deadlocks",
	}}
	for _, p := range r.Points {
		rows = append(rows, []string{
			fmt.Sprintf("%.1f", p.FaultsPerLink),
			fmt.Sprintf("%d", p.LinkDowns),
			fmt.Sprintf("%.4f", p.DeliveredFrameRatio),
			fmt.Sprintf("%.3f", p.DMs),
			fmt.Sprintf("%.4f", p.SDMs),
			fmt.Sprintf("%d", p.FlitsDropped),
			fmt.Sprintf("%d", p.Retransmissions),
			fmt.Sprintf("%d", p.Abandoned),
			fmt.Sprintf("%d", p.Revoked),
			fmt.Sprintf("%d", p.Readmitted),
			fmt.Sprintf("%d/%d", p.Deadlocks, p.DeadlocksBroken),
		})
	}
	writeAligned(w, rows)
	if r.Notes != "" {
		fmt.Fprintln(w, "notes:", r.Notes)
	}
}
