package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"time"

	"mediaworm"
	"mediaworm/internal/sched"
	"mediaworm/internal/sim"
	"mediaworm/internal/traffic"
)

// measurement is everything one benchmark run observed on one workload.
// Every simulation the run starts counts as attempted; one whose Finish
// fails, or whose Result differs from the reference Result, counts as
// failed and adds no timing.
type measurement struct {
	cfg               mediaworm.Config
	attempted, failed int

	setupS  []float64 // NewSim host seconds, per set-up repetition
	runS    []float64 // untraced RunTo+Finish host seconds, per passing repetition
	mallocs []float64 // heap allocations during RunTo+Finish, per passing repetition
	peakMB  []float64 // peak heap during RunTo+Finish, per passing repetition

	result mediaworm.Result // the first untraced Result, Trace cleared
	digest string           // modelDigest(result)

	// The traced run supplies the exact work counts and the per-layer numbers.
	traced    mediaworm.Result // Trace kept
	tracedNow time.Duration    // simulated time after Finish, drain included
	tracedS   float64          // traced RunTo+Finish host seconds
	gcCycles  uint32
	gcPauseS  float64
	shares    map[string]float64 // layer → share of flat CPU-profile samples

	// The mid-window checkpoint round trip.
	encodeS, restoreS float64
	snapBytes         int

	pickNs float64
}

// Set-up sampling: at least minSetupReps NewSim calls, continuing until
// setupBudget has passed, so sub-millisecond set-up still gets a steady
// median.
const (
	minSetupReps = 5
	maxSetupReps = 200
	setupBudget  = 300 * time.Millisecond
)

// measure runs the whole benchmark on cfg: repeated NewSim calls for the
// set-up time, untraced repetitions for budget (at least one), then one
// traced run under the CPU profiler and one mid-window checkpoint round
// trip, each checked against the first untraced Result.
func measure(cfg mediaworm.Config, budget time.Duration) *measurement {
	m := &measurement{cfg: cfg}
	if !m.timeSetup() {
		return m
	}
	start := time.Now()
	for m.untracedRun() {
		// Stop before a repetition that would overrun the budget.
		next := time.Duration(median(m.runS) * float64(time.Second))
		if time.Since(start)+next > budget {
			break
		}
	}
	if m.failed > 0 {
		return m
	}
	m.tracedRun()
	m.checkpointRun()
	var err error
	if m.pickNs, err = timePick(cfg); err != nil {
		m.fail("arbiter drive: %v", err)
	}
	return m
}

func (m *measurement) fail(format string, args ...any) {
	m.failed++
	fmt.Fprintf(os.Stderr, "mwbench: "+format+"\n", args...)
}

func (m *measurement) timeSetup() bool {
	start := time.Now()
	for len(m.setupS) < minSetupReps || (len(m.setupS) < maxSetupReps && time.Since(start) < setupBudget) {
		runtime.GC()
		t0 := time.Now()
		_, err := mediaworm.NewSim(m.cfg)
		dt := time.Since(t0)
		if err != nil {
			m.attempted++
			m.fail("NewSim: %v", err)
			return false
		}
		m.setupS = append(m.setupS, dt.Seconds())
	}
	return true
}

// untracedRun times one RunTo+Finish with tracing off and records its
// allocations and peak heap. It reports whether the repetition passed.
func (m *measurement) untracedRun() bool {
	m.attempted++
	s, err := mediaworm.NewSim(m.cfg)
	if err != nil {
		m.fail("NewSim: %v", err)
		return false
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	stopWatch := watchHeap()
	t0 := time.Now()
	s.RunTo(s.End())
	res, err := s.Finish()
	dt := time.Since(t0)
	peak := stopWatch()
	runtime.ReadMemStats(&after)
	if err != nil {
		m.fail("Finish: %v", err)
		return false
	}
	if !m.check("untraced run", res) {
		return false
	}
	m.runS = append(m.runS, dt.Seconds())
	m.mallocs = append(m.mallocs, float64(after.Mallocs-before.Mallocs))
	m.peakMB = append(m.peakMB, float64(peak)/(1<<20))
	return true
}

// tracedRun repeats the run with Config.Trace armed and the CPU profiler
// on, for the exact work counts, the per-layer host shares and the tracing
// overhead. The profile never covers an untraced repetition.
func (m *measurement) tracedRun() {
	m.attempted++
	cfg := m.cfg
	cfg.Trace = mediaworm.TraceConfig{Enabled: true}
	s, err := mediaworm.NewSim(cfg)
	if err != nil {
		m.fail("traced NewSim: %v", err)
		return
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		m.fail("starting CPU profile: %v", err)
		return
	}
	t0 := time.Now()
	s.RunTo(s.End())
	res, err := s.Finish()
	dt := time.Since(t0)
	pprof.StopCPUProfile()
	runtime.ReadMemStats(&after)
	switch {
	case err != nil:
		m.fail("traced Finish: %v", err)
		return
	case res.Trace == nil || len(res.Trace.Snapshots) == 0:
		m.fail("traced run returned no metrics snapshot")
		return
	case !m.check("traced run", res):
		return
	}
	if m.shares, err = hostShares(prof.Bytes()); err != nil {
		m.fail("reading CPU profile: %v", err)
		return
	}
	m.traced, m.tracedNow, m.tracedS = res, s.Now(), dt.Seconds()
	m.gcCycles = after.NumGC - before.NumGC
	m.gcPauseS = float64(after.PauseTotalNs-before.PauseTotalNs) / 1e9
}

// checkpointRun stops a fresh run in the middle of its measurement window,
// writes a checkpoint, restores it into a new Sim and finishes there; the
// Result must equal the uninterrupted run's.
func (m *measurement) checkpointRun() {
	m.attempted++
	s, err := mediaworm.NewSim(m.cfg)
	if err != nil {
		m.fail("checkpoint NewSim: %v", err)
		return
	}
	s.RunTo(s.End() - m.cfg.Measure/2)
	var buf bytes.Buffer
	t0 := time.Now()
	err = s.WriteCheckpoint(&buf)
	m.encodeS = time.Since(t0).Seconds()
	if err != nil {
		m.fail("WriteCheckpoint: %v", err)
		return
	}
	m.snapBytes = buf.Len()
	t0 = time.Now()
	restored, err := mediaworm.RestoreSim(&buf)
	m.restoreS = time.Since(t0).Seconds()
	if err != nil {
		m.fail("RestoreSim: %v", err)
		return
	}
	res, err := restored.Finish()
	if err != nil {
		m.fail("Finish after restore: %v", err)
		return
	}
	m.check("checkpoint round trip", res)
}

// check compares res, Trace cleared, with the reference Result, adopting
// res as the reference when there is none yet.
func (m *measurement) check(what string, res mediaworm.Result) bool {
	res.Trace = nil
	d, err := modelDigest(res)
	if err != nil {
		m.fail("%s: %v", what, err)
		return false
	}
	if m.digest == "" {
		m.result, m.digest = res, d
		return true
	}
	if d != m.digest {
		m.fail("%s: Result differs from the untraced run (model digest %s, want %s)", what, d, m.digest)
		return false
	}
	return true
}

// modelDigest hashes the JSON encoding of a Result whose Trace is cleared.
// Equal digests mean every simulated statistic is identical, which is what
// a simulator-only speed-up must show.
func modelDigest(res mediaworm.Result) (string, error) {
	b, err := json.Marshal(res)
	if err != nil {
		return "", fmt.Errorf("encoding Result: %w", err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8]), nil
}

// watchHeap samples the runtime's heap-object bytes every millisecond from
// a goroutine beside the simulation. The returned function stops the
// goroutine, waits for it, and returns the peak.
func watchHeap() func() uint64 {
	quit := make(chan struct{})
	peak := make(chan uint64)
	go func() {
		sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		var hi uint64
		read := func() {
			metrics.Read(sample)
			hi = max(hi, sample[0].Value.Uint64())
		}
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			read()
			select {
			case <-quit:
				read()
				peak <- hi
				return
			case <-tick.C:
			}
		}
	}()
	return func() uint64 {
		close(quit)
		return <-peak
	}
}

// pickBatch is the number of arbitrations per timed batch of timePick.
const pickBatch = 100_000

// pickSink keeps the compiler from discarding timed Picks.
var pickSink int

// timePick drives the workload's arbiter standalone over a fully backlogged
// field of one candidate per VC, weighted and tiered as NewSim configures
// the routers: real-time VCs carry Virtual Clock stamps that advance when
// served, best-effort VCs carry none. It returns the median host ns per
// Pick over five batches.
func timePick(cfg mediaworm.Config) (float64, error) {
	kind, err := sched.ParseKind(string(cfg.Policy))
	if err != nil {
		return 0, err
	}
	rtVCs := traffic.PartitionVCs(cfg.VCs, cfg.RTShare)
	p := sched.Params{VCs: cfg.VCs, Quantum: cfg.Sched.Quantum,
		Weights: make([]int, cfg.VCs), Tiers: make([]int, cfg.VCs)}
	cands := make([]sched.Candidate, cfg.VCs)
	for v := range cands {
		cands[v] = sched.Candidate{VC: v, TS: sim.Forever, Seq: uint64(v)}
		p.Weights[v], p.Tiers[v] = max(cfg.Sched.BEWeight, 1), 1
		if v < rtVCs {
			cands[v].TS = sim.Time(v)
			p.Weights[v], p.Tiers[v] = max(cfg.Sched.RTWeight, 1), 0
		}
	}
	a := sched.NewArbiter(kind, p)
	seq := uint64(len(cands))
	batches := make([]float64, 5)
	for b := range batches {
		t0 := time.Now()
		for i := 0; i < pickBatch; i++ {
			w := a.Pick(cands)
			c := &cands[w]
			seq++
			c.Seq, c.Enq = seq, sim.Time(seq)
			if c.TS != sim.Forever {
				c.TS += sim.Time(len(cands))
			}
			pickSink = w
		}
		batches[b] = float64(time.Since(t0).Nanoseconds()) / pickBatch
	}
	return median(batches), nil
}

// median returns the middle value of xs (the mean of the middle two for an
// even count), or 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
