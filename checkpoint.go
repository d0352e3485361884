package mediaworm

import (
	"encoding/json"
	"fmt"
	"io"
	"time"

	"mediaworm/internal/fault"
	"mediaworm/internal/flit"
	"mediaworm/internal/network"
	"mediaworm/internal/obs"
	"mediaworm/internal/police"
	"mediaworm/internal/rng"
	"mediaworm/internal/sim"
	"mediaworm/internal/snapshot"
	"mediaworm/internal/stats"
	"mediaworm/internal/topology"
	"mediaworm/internal/traffic"
)

// Sim is a stepwise simulation: the same run Run executes in one shot, but
// pausable between events. NewSim builds it, RunTo advances the clock, and
// Finish completes the measurement window, drains, and returns the Result.
//
// Between RunTo calls the simulation sits at a clean event boundary, so its
// complete state can be serialized (WriteCheckpoint) and later resurrected
// in a fresh process (RestoreSim); a restored run replays byte-identically
// to the uninterrupted one. See DESIGN.md §14.
type Sim struct {
	cfg Config
	eng *sim.Engine   //mw:snapcover — clock serialized scalar-wise in secClock; the calendar re-arms via ScheduleRestored
	net *topology.Net //mw:snapcover — immutable wiring rebuilt by NewSim; its routers/NIs/sinks serialize in their own sections
	wl  *traffic.Workload

	intervals *stats.IntervalTracker
	be        *stats.BestEffort
	playout   *stats.PlayoutTracker
	warmup    sim.Time //mw:snapcover — derived from cfg by NewSim
	stop      sim.Time //mw:snapcover — derived from cfg by NewSim

	// Fault/resilience/trace wiring (absent when disabled). Runs using any
	// of these execute normally but refuse to checkpoint.
	trc      *obs.Tracer            //mw:snapcover — checkpointable() refuses traced runs
	ledger   *stats.FrameLedger     //mw:snapcover — rebuilt by NewSim; serialized via FrameLedger.EncodeState when policing is armed, and fault runs refuse checkpoints
	retx     *network.Retransmitter //mw:snapcover — nil when checkpointing: checkpointable() refuses fault-enabled runs
	injector *fault.Injector        //mw:snapcover — nil when checkpointing: checkpointable() refuses fault-enabled runs

	finished bool
}

// Snapshot section ids. New sections append; renumbering is a version bump.
const (
	secConfig uint16 = iota + 1
	secClock
	secMessages
	secWorkload
	secFabric
	secRouters
	secNIs
	secSinks
	secStats
)

// NewSim validates cfg and builds the full simulation — fabric, workload,
// measurement probes — with the first events armed but nothing executed.
func NewSim(cfg Config) (*Sim, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	class, err := flitClass(cfg.Class)
	if err != nil {
		return nil, err
	}

	eng := sim.NewEngine()
	// trc is nil unless tracing is enabled; every layer below takes the
	// nil tracer as "observability off".
	trc := obs.New(obs.Options{
		Enabled:         cfg.Trace.Enabled,
		EventCap:        cfg.Trace.EventCap,
		MetricsInterval: cfg.Trace.MetricsInterval,
	})
	trc.RegisterEngine(eng)
	rtVCs := traffic.PartitionVCs(cfg.VCs, cfg.RTShare)
	rcfg := cfg.RouterConfig(rtVCs)
	rcfg.Tracer = trc
	spec, err := cfg.TopologySpec()
	if err != nil {
		return nil, err
	}
	net, err := topology.Build(eng, spec, rcfg)
	if err != nil {
		return nil, fmt.Errorf("mediaworm: %s: %w", cfg.Topology, err)
	}
	if cfg.SourcePolicy != "" && cfg.SourcePolicy != cfg.Policy {
		srcKind, _ := schedKind(cfg.SourcePolicy) // Validate accepted the name
		for _, ni := range net.NIs {
			ni.SetPolicyParams(srcKind, rcfg.Sched)
		}
	}
	if cfg.Policing.Enabled {
		mc, dc := policingParams(cfg)
		src := rng.NewStream(cfg.Seed, "police")
		for i, ni := range net.NIs {
			ni.SetPolicer(police.NewPolicer(mc, dc, src.Split(uint64(i))))
		}
	}
	policed := cfg.Policing.Enabled

	warmup := sim.Time(cfg.Warmup.Nanoseconds())
	stop := warmup + sim.Time(cfg.Measure.Nanoseconds())
	s := &Sim{cfg: cfg, eng: eng, net: net, warmup: warmup, stop: stop, trc: trc}

	// Fault-injection and resilience wiring (absent when Faults is zero).
	if cfg.Faults.enabled() {
		fc := cfg.Faults
		wd := fc.WatchdogCycles
		if wd == 0 {
			wd = 50000
		}
		if wd > 0 {
			net.Fabric.SetWatchdog(wd, fc.WatchdogRecover)
		}
		if fc.Retransmit {
			timeout := fc.RetransmitTimeout
			if timeout == 0 {
				timeout = 2 * cfg.FrameInterval
			}
			attempts := fc.MaxRetransmits
			if attempts == 0 {
				attempts = 4
			}
			s.retx = network.NewRetransmitter(net.Fabric,
				sim.Time(timeout.Nanoseconds()), attempts)
		}
		s.injector = fault.NewInjector(eng, net.Fabric, rng.NewStream(cfg.Seed, "fault"))
		if fc.LinkMTBF > 0 {
			for _, l := range net.TransitLinks() {
				s.injector.Churn(fault.Link{
					A: net.Routers[l.A], APort: l.APort,
					B: net.Routers[l.B], BPort: l.BPort,
				}, sim.Time(fc.LinkMTBF.Nanoseconds()), sim.Time(fc.LinkMTTR.Nanoseconds()), stop)
			}
		}
		if fc.FlitCorruptionProb > 0 {
			s.injector.CorruptFlits(fc.FlitCorruptionProb)
		}
		s.ledger = stats.NewFrameLedger()
	}
	// Policing discards whole messages at injection, so their frames never
	// finish reassembly; the ledger makes that loss visible as a
	// delivered-frame ratio instead of silently shrinking the sample count.
	if policed && s.ledger == nil {
		s.ledger = stats.NewFrameLedger()
	}

	s.intervals = stats.NewIntervalTracker(warmup)
	s.be = stats.NewBestEffort(warmup)
	if cfg.PlayoutBufferFrames > 0 {
		s.playout = stats.NewPlayoutTracker(
			sim.Time(cfg.FrameInterval.Nanoseconds()), cfg.PlayoutBufferFrames, warmup)
	}
	for _, sk := range net.Sinks {
		sk.OnFrame = func(stream, frame int, at sim.Time) {
			s.intervals.Observe(stream, at)
			if s.playout != nil {
				s.playout.Observe(stream, frame, at)
			}
			if s.ledger != nil {
				s.ledger.Delivered(stream)
			}
		}
		sk.OnMessage = func(m *flit.Message, at sim.Time) {
			if m.Class == flit.BestEffort {
				s.be.Delivered(m.Injected, at)
			}
		}
	}
	mix := traffic.MixConfig{
		Load:           cfg.Load,
		RTShare:        cfg.RTShare,
		Class:          class,
		LinkBitsPerSec: cfg.LinkBandwidthBps,
		FlitBits:       cfg.FlitBits,
		MsgFlits:       cfg.MsgFlits,
		FrameBytes:     cfg.FrameBytes,
		FrameBytesSD:   cfg.FrameBytesSD,
		Interval:       sim.Time(cfg.FrameInterval.Nanoseconds()),
		VCs:            cfg.VCs,
		RTVCs:          rtVCs,
		Stop:           stop,
		Seed:           cfg.Seed,
		GoP:            cfg.VBRModel == VBRGoP,
	}
	s.wl, err = traffic.Apply(eng, net, mix)
	if err != nil {
		return nil, err
	}
	for _, src := range s.wl.BESources {
		src.OnInject = func(m *flit.Message) { s.be.Injected(m.Injected) }
	}
	if s.ledger != nil {
		for _, st := range s.wl.Streams {
			st.OnEmit = func(stream, frame int) { s.ledger.Emitted(stream) }
		}
	}
	return s, nil
}

// Config returns the run's configuration.
func (s *Sim) Config() Config { return s.cfg }

// Net returns the run's fabric, for experiment code that observes it: a
// sink hook chained after the one NewSim installed, or the live transit
// links. Replacing NewSim's hooks would blind the Result.
func (s *Sim) Net() *topology.Net { return s.net }

// Workload returns the run's traffic: the realized stream placement, and
// the streams an admission loop revokes and resumes.
func (s *Sim) Workload() *traffic.Workload { return s.wl }

// Injector returns the fault injector, nil unless Config.Faults is armed.
// NewSim leaves its OnFault hook unset for a closed loop to claim.
func (s *Sim) Injector() *fault.Injector { return s.injector }

// Now returns the current simulated time.
func (s *Sim) Now() time.Duration {
	return time.Duration(s.eng.Now()) //mw:simtime — ticks are nanoseconds; public API speaks time.Duration
}

// End returns the end of the measurement window (warmup + measure).
func (s *Sim) End() time.Duration {
	return time.Duration(s.stop) //mw:simtime — ticks are nanoseconds; public API speaks time.Duration
}

// RunTo advances the simulation to min(t, End()), leaving it at a clean
// event boundary — the state WriteCheckpoint serializes.
func (s *Sim) RunTo(t time.Duration) {
	horizon := sim.Time(t.Nanoseconds())
	if horizon > s.stop {
		horizon = s.stop
	}
	if horizon > s.eng.Now() {
		s.eng.Run(horizon)
	}
}

// Finish runs through the rest of the measurement window, drains in-flight
// traffic, and assembles the Result. A Sim finishes exactly once.
func (s *Sim) Finish() (Result, error) {
	if s.finished {
		return Result{}, fmt.Errorf("mediaworm: simulation already finished")
	}
	s.finished = true
	// Run through the measurement window, snapshot the best-effort backlog
	// (the saturation signal), then let in-flight traffic drain (bounded:
	// generation stops at stop).
	s.eng.Run(s.stop)
	injAtStop, delAtStop := s.be.Counts()
	s.eng.Drain()
	// A watchdog trip without recovery leaves the deadlocked worms' flits
	// in the fabric by design — the report stands in for the drain check.
	deadlockStopped := s.net.Fabric.Deadlock != nil && !s.cfg.Faults.WatchdogRecover
	if !deadlockStopped {
		if err := s.net.Fabric.CheckDrained(); err != nil {
			return Result{}, fmt.Errorf("mediaworm: %w", err)
		}
	}

	var sunk uint64
	for _, sk := range s.net.Sinks {
		sunk += sk.FlitsReceived()
	}
	inj, del := s.be.Counts()
	res := Result{
		MeanDeliveryIntervalMs:   s.intervals.MeanMs(),
		StdDevDeliveryIntervalMs: s.intervals.StdDevMs(),
		FrameIntervals:           s.intervals.Intervals().Count(),
		Streams:                  len(s.wl.Streams),
		FlitsDelivered:           sunk,
	}
	if s.playout != nil {
		res.Playout = PlayoutResult{
			JudgedFrames: s.playout.Frames(),
			Misses:       s.playout.Misses(),
			MissRate:     s.playout.MissRate(),
		}
		if s.playout.Misses() > 0 {
			res.Playout.MeanLatenessMs = s.playout.MeanLatenessMs()
		}
	}
	if inj > 0 {
		res.BestEffort = BestEffortResult{
			MeanLatencyUs: s.be.MeanLatencyUs(),
			MaxLatencyUs:  s.be.Latency().Max(),
			Injected:      inj,
			Delivered:     del,
			Saturated:     stats.Saturated(injAtStop, delAtStop),
		}
	}
	if s.cfg.Policing.Enabled {
		pr := PolicingResult{Enabled: true}
		for _, ni := range s.net.NIs {
			pr.MeterExceed += ni.MeterExceed
			pr.MeterViolate += ni.MeterViolate
			pr.Drops += ni.PoliceDrops()
		}
		pr.FramesEmitted, pr.FramesDelivered = s.ledger.Counts()
		pr.DeliveredFrameRatio = s.ledger.Ratio()
		res.Policing = pr
	}
	if s.cfg.Faults.enabled() {
		rr := ResilienceResult{Enabled: true}
		for _, r := range s.net.Routers {
			rr.MessagesKilled += r.Stats().MessagesKilled
		}
		rr.FlitsDropped = s.net.Fabric.DroppedFlits()
		rr.LinkDowns, rr.LinkUps = s.injector.LinkDowns, s.injector.LinkUps
		if s.retx != nil {
			rr.Retransmissions = s.retx.Retransmissions
			rr.Recovered = s.retx.Recovered
			rr.Abandoned = s.retx.Abandoned
		}
		if s.ledger != nil {
			rr.FramesEmitted, rr.FramesDelivered = s.ledger.Counts()
			rr.DeliveredFrameRatio = s.ledger.Ratio()
		}
		rr.Deadlocks = s.net.Fabric.Deadlocks
		rr.DeadlocksBroken = s.net.Fabric.DeadlocksBroken
		if s.net.Fabric.Deadlock != nil {
			rr.DeadlockReport = s.net.Fabric.Deadlock.String()
		}
		res.Resilience = rr
	}
	if s.trc.Enabled() {
		s.trc.Snapshot(s.eng.Now())
		res.Trace = s.trc.Capture()
	}
	return res, nil
}

// checkpointable reports why the run cannot be checkpointed, or nil.
// Fault injection, retransmission, and tracing carry state the v1 format
// does not cover; refusing up front beats silently dropping it.
func (s *Sim) checkpointable() error {
	switch {
	case s.finished:
		return fmt.Errorf("mediaworm: cannot checkpoint a finished simulation")
	case s.cfg.Faults.enabled():
		return &snapshot.NotSnapshottableError{Feature: "fault injection"}
	case s.cfg.Trace.Enabled:
		return &snapshot.NotSnapshottableError{Feature: "trace capture"}
	}
	return nil
}

// WriteCheckpoint serializes the complete simulator state to out. The
// simulation is untouched and can keep running (periodic checkpointing).
func (s *Sim) WriteCheckpoint(out io.Writer) error {
	if err := s.checkpointable(); err != nil {
		return err
	}
	// Audit flit conservation before trusting our own state to disk: every
	// unit of in-flight work must be a buffered flit somewhere.
	if work, buf := s.net.Fabric.Work(), s.net.Fabric.BufferedFlits(); work != buf {
		return &snapshot.InvariantError{
			Invariant: "flit-conservation",
			Detail:    fmt.Sprintf("fabric accounts %d in-flight flits, buffers hold %d", work, buf),
		}
	}
	cfgJSON, err := json.Marshal(s.cfg)
	if err != nil {
		return fmt.Errorf("mediaworm: encoding config: %w", err)
	}

	w := snapshot.NewWriter()
	w.Begin(secConfig)
	w.Bytes(cfgJSON)
	w.End()

	w.Begin(secClock)
	w.Time(s.eng.Now())
	w.U64(s.eng.SeqCounter())
	w.U64(s.eng.Processed())
	w.End()

	tbl := flit.NewMsgTable()
	s.net.Fabric.CollectMessages(tbl)
	s.wl.CollectMessages(tbl)
	w.Begin(secMessages)
	if err := tbl.Encode(w); err != nil {
		return err
	}
	w.End()

	w.Begin(secWorkload)
	if err := s.wl.EncodeState(w, tbl); err != nil {
		return err
	}
	w.End()

	w.Begin(secFabric)
	if err := s.net.Fabric.EncodeState(w); err != nil {
		return err
	}
	w.End()

	w.Begin(secRouters)
	for _, r := range s.net.Routers {
		if err := r.EncodeState(w, tbl); err != nil {
			return err
		}
	}
	w.End()

	w.Begin(secNIs)
	for _, ni := range s.net.NIs {
		if err := ni.EncodeState(w, tbl); err != nil {
			return err
		}
	}
	w.End()

	w.Begin(secSinks)
	for _, sk := range s.net.Sinks {
		if err := sk.EncodeState(w); err != nil {
			return err
		}
	}
	w.End()

	w.Begin(secStats)
	s.intervals.EncodeState(w)
	s.be.EncodeState(w)
	if s.playout != nil {
		s.playout.EncodeState(w)
	}
	if s.ledger != nil {
		s.ledger.EncodeState(w)
	}
	w.End()

	return w.Flush(out)
}

// RestoreSim reads a checkpoint, rebuilds the simulation from its embedded
// configuration, and overlays the serialized state, re-validating the
// structural invariants (calendar integrity, flit conservation, buffer
// capacities) before returning. The restored Sim continues exactly where
// the checkpointed one stood.
func RestoreSim(in io.Reader) (*Sim, error) {
	r, err := snapshot.NewReader(in)
	if err != nil {
		return nil, err
	}
	r.Begin(secConfig)
	cfgJSON := r.Bytes()
	r.End()
	if err := r.Err(); err != nil {
		return nil, err
	}
	var cfg Config
	if err := json.Unmarshal(cfgJSON, &cfg); err != nil {
		return nil, fmt.Errorf("mediaworm: checkpoint config: %w", err)
	}
	s, err := NewSim(cfg)
	if err != nil {
		return nil, err
	}
	if err := s.checkpointable(); err != nil {
		return nil, err
	}

	r.Begin(secClock)
	now := r.Time()
	seqCtr := r.U64()
	processed := r.U64()
	r.End()

	// Cancel the setup-time emit events so every pending event on the
	// rebuilt calendar comes from the checkpoint.
	s.wl.Disarm()
	if n := s.eng.Pending(); n != 0 {
		return nil, &snapshot.InvariantError{
			Invariant: "calendar-empty",
			Detail:    fmt.Sprintf("%d events pending after disarm", n),
		}
	}

	r.Begin(secMessages)
	tbl, err := flit.DecodeMsgTable(r)
	if err != nil {
		return nil, err
	}
	r.End()

	r.Begin(secWorkload)
	if err := s.wl.RestoreState(r, tbl); err != nil {
		return nil, err
	}
	r.End()

	r.Begin(secFabric)
	if err := s.net.Fabric.RestoreState(r, tbl); err != nil {
		return nil, err
	}
	r.End()

	r.Begin(secRouters)
	for _, rt := range s.net.Routers {
		if err := rt.RestoreState(r, tbl); err != nil {
			return nil, err
		}
	}
	r.End()

	r.Begin(secNIs)
	for _, ni := range s.net.NIs {
		if err := ni.RestoreState(r, tbl); err != nil {
			return nil, err
		}
	}
	r.End()

	r.Begin(secSinks)
	for _, sk := range s.net.Sinks {
		if err := sk.RestoreState(r); err != nil {
			return nil, err
		}
	}
	r.End()

	r.Begin(secStats)
	if err := s.intervals.RestoreState(r); err != nil {
		return nil, err
	}
	if err := s.be.RestoreState(r); err != nil {
		return nil, err
	}
	if s.playout != nil {
		if err := s.playout.RestoreState(r); err != nil {
			return nil, err
		}
	}
	if s.ledger != nil {
		if err := s.ledger.RestoreState(r); err != nil {
			return nil, err
		}
	}
	r.End()
	if err := r.Err(); err != nil {
		return nil, err
	}

	if err := s.eng.RestoreClock(now, seqCtr, processed); err != nil {
		return nil, &snapshot.InvariantError{Invariant: "calendar-integrity", Detail: err.Error()}
	}
	if work, buf := s.net.Fabric.Work(), s.net.Fabric.BufferedFlits(); work != buf {
		return nil, &snapshot.InvariantError{
			Invariant: "flit-conservation",
			Detail:    fmt.Sprintf("checkpoint accounts %d in-flight flits, buffers hold %d", work, buf),
		}
	}
	return s, nil
}
