package experiments

import (
	"context"
	"errors"
	"fmt"
	"io"

	"mediaworm/internal/admission"
	"mediaworm/internal/fault"
	"mediaworm/internal/flit"
	"mediaworm/internal/network"
	"mediaworm/internal/rng"
	"mediaworm/internal/runner"
	"mediaworm/internal/sim"
	"mediaworm/internal/stats"
	"mediaworm/internal/traffic"

	"mediaworm"
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
	base := baseConfig(opt)
	base.Topology = mediaworm.FatMesh2x2
	const (
		load    = 0.70
		rtShare = 0.80
	)
	rtVCs := traffic.PartitionVCs(base.VCs, rtShare)
	eng := sim.NewEngine()
	net, err := buildFabric(eng, base, rtVCs)
	if err != nil {
		return FaultPoint{}, err
	}

	warmup := sim.Time(base.Warmup.Nanoseconds())
	stop := warmup + sim.Time(base.Measure.Nanoseconds())
	interval := sim.Time(base.FrameInterval.Nanoseconds())

	// Resilience stack: watchdog in recovery mode, end-to-end retransmission.
	net.Fabric.SetWatchdog(50000, true)
	retx := network.NewRetransmitter(net.Fabric, 2*interval, 4)

	// Measurement: frame ledger for the delivered-frame ratio, interval
	// tracker for jitter of the frames that do arrive.
	intervals := stats.NewIntervalTracker(warmup)
	ledger := stats.NewFrameLedger()
	for _, s := range net.Sinks {
		s.OnFrame = func(stream, frame int, at sim.Time) {
			intervals.Observe(stream, at)
			ledger.Delivered(stream)
		}
	}

	w, err := traffic.Apply(eng, net, traffic.MixConfig{
		Load: load, RTShare: rtShare, Class: flit.VBR,
		LinkBitsPerSec: base.LinkBandwidthBps,
		FlitBits:       base.FlitBits, MsgFlits: base.MsgFlits,
		FrameBytes: base.FrameBytes, FrameBytesSD: base.FrameBytesSD,
		Interval: interval, VCs: base.VCs, RTVCs: rtVCs,
		Stop: stop, Seed: opt.Seed,
	})
	if err != nil {
		return FaultPoint{}, err
	}
	for _, st := range w.Streams {
		st.OnEmit = func(stream, frame int) { ledger.Emitted(stream) }
	}

	// Admission closed loop: every generated stream registers with the
	// controller; capacity follows the live transit-link fraction, revoking
	// the newest streams under sustained loss and re-admitting on recovery.
	ctrl, err := admission.NewController(admission.DefaultEnvelope(),
		base.LinkBandwidthBps, base.FrameBytes*8/base.FrameInterval.Seconds())
	if err != nil {
		return FaultPoint{}, err
	}
	ctrl.SetBestEffortLoad(load * (1 - rtShare))
	streams := make(map[int]*traffic.Stream, len(w.Streams))
	for _, st := range w.Streams {
		streams[st.ID()] = st
		if !ctrl.AdmitStream(st.ID(), 0) {
			st.Revoke() // over-subscribed at setup: shed immediately
		}
	}
	point := FaultPoint{FaultsPerLink: rate}
	var waiting []int // revoked stream IDs, oldest first
	onCapacity := func() {
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

	injector := fault.NewInjector(eng, net.Fabric, rng.NewStream(opt.Seed, "fault"))
	injector.OnFault = func(at sim.Time, kind string, router, port int) {
		if kind == "link-down" || kind == "link-up" {
			onCapacity()
		}
	}
	if rate > 0 {
		mtbf := sim.Time(float64(stop) / rate)
		mttr := stop / 20
		if mttr < 1 {
			mttr = 1
		}
		for _, l := range net.TransitLinks() {
			injector.Churn(fault.Link{
				A: net.Routers[l.A], APort: l.APort,
				B: net.Routers[l.B], BPort: l.BPort,
			}, mtbf, mttr, stop)
		}
	}

	eng.Run(stop)
	eng.Drain()
	if err := net.Fabric.CheckDrained(); err != nil {
		return FaultPoint{}, err
	}

	norm := paperIntervalMs / (base.FrameInterval.Seconds() * 1000)
	point.LinkDowns = injector.LinkDowns
	point.DeliveredFrameRatio = ledger.Ratio()
	point.DMs = intervals.MeanMs() * norm
	point.SDMs = intervals.StdDevMs() * norm
	point.FlitsDropped = net.Fabric.DroppedFlits()
	point.Retransmissions = retx.Retransmissions
	point.Recovered = retx.Recovered
	point.Abandoned = retx.Abandoned
	point.Deadlocks = net.Fabric.Deadlocks
	point.DeadlocksBroken = net.Fabric.DeadlocksBroken
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
