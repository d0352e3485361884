package mediaworm

import (
	"bytes"
	"encoding/binary"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"slices"
	"strings"
	"testing"
	"time"

	"mediaworm/internal/core"
	"mediaworm/internal/obs"
	"mediaworm/internal/sim"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/router_counters.txt and testdata/trace_digests.txt")

// counterConfigs are the runs TestRouterCountersGolden pins: the three
// benchmark fabrics at short windows, and a faulted fat-mesh with link
// churn, flit corruption, retransmission and deadlock recovery, so the
// kill and reap paths move the counters too.
func counterConfigs() []struct {
	name string
	cfg  Config
} {
	window := func(cfg Config, warmup, measure time.Duration) Config {
		cfg.Warmup, cfg.Measure = warmup, measure
		return cfg
	}
	switch8 := DefaultConfig().Scale(0.05)
	switch8.Load, switch8.RTShare = 0.8, 0.8
	fatmesh := DefaultConfig().Scale(0.05)
	fatmesh.Topology = FatMesh2x2
	fatmesh.Policy = WF2Q
	fatmesh.Policing.Enabled = true
	fatmesh.Load, fatmesh.RTShare = 0.9, 0.8
	torus := DefaultConfig().Scale(0.02)
	torus.Topology = "torus8x8"
	torus.Load, torus.RTShare = 0.15, 0.8
	faulted := DefaultConfig().Scale(0.05)
	faulted.Topology = FatMesh2x2
	faulted.Load, faulted.RTShare = 0.6, 0.8
	faulted = window(faulted, faulted.FrameInterval/2, faulted.FrameInterval)
	faulted.Faults = FaultsConfig{
		LinkMTBF:           faulted.Measure / 2,
		LinkMTTR:           faulted.Measure / 20,
		FlitCorruptionProb: 0.0005,
		Retransmit:         true,
		WatchdogRecover:    true,
	}
	return []struct {
		name string
		cfg  Config
	}{
		{"switch8", window(switch8, switch8.FrameInterval, 2*switch8.FrameInterval)},
		{"fatmesh_policed", window(fatmesh, fatmesh.FrameInterval/2, fatmesh.FrameInterval/2)},
		{"torus8x8_sparse", window(torus, torus.FrameInterval/8, torus.FrameInterval/8)},
		{"fatmesh_faulted", faulted},
	}
}

// TestRouterCountersGolden pins the counters a Result does not carry: every
// router's Stats (the Blocked* sampling among them), per-port PortStats and
// counter blocks, and every NI's stall, send, drop and per-class injection
// counts. They otherwise reach only the snapshot bytes, so a change to how
// the router pipeline or the NI visits its virtual channels that skipped a
// blocked VC would pass every Result golden. Each config also runs traced,
// and must count the same: tracing only observes the stages, and the one
// count it adds, Blocks, is left out. Each checkpointable config also runs
// checkpointed at T/2 and restored, and must count the same: a checkpoint
// that dropped a counter would lose its first half. Regenerate with
// -update.
func TestRouterCountersGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs eleven simulations")
	}
	var b strings.Builder
	for _, tc := range counterConfigs() {
		untraced := counterText(tc.name, finished(t, tc.name, tc.cfg))
		traced := tc.cfg
		traced.Trace.Enabled = true
		if err := firstDiff(counterText(tc.name, finished(t, tc.name, traced)), untraced); err != nil {
			t.Fatalf("%s: traced run counts differently: %v", tc.name, err)
		}
		if !tc.cfg.Faults.enabled() {
			if err := firstDiff(counterText(tc.name, restoredHalfway(t, tc.name, tc.cfg)), untraced); err != nil {
				t.Fatalf("%s: restored run counts differently: %v", tc.name, err)
			}
		}
		b.WriteString(untraced)
	}
	checkGolden(t, "testdata/router_counters.txt", b.String())
}

// checkGolden compares got with the golden file, or rewrites the file
// under -update.
func checkGolden(t *testing.T, golden, got string) {
	t.Helper()
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if err := firstDiff(got, string(want)); err != nil {
		t.Fatalf("%s: %v", golden, err)
	}
}

// finished runs cfg to completion and returns the finished Sim.
func finished(t *testing.T, name string, cfg Config) *Sim {
	t.Helper()
	s, err := NewSim(cfg)
	if err != nil {
		t.Fatalf("%s: NewSim: %v", name, err)
	}
	if _, err := s.Finish(); err != nil {
		t.Fatalf("%s: Finish: %v", name, err)
	}
	return s
}

// restoredHalfway runs cfg to half its measurement horizon, checkpoints,
// restores into a fresh Sim and finishes that one, which it returns.
func restoredHalfway(t *testing.T, name string, cfg Config) *Sim {
	t.Helper()
	s, err := NewSim(cfg)
	if err != nil {
		t.Fatalf("%s: NewSim: %v", name, err)
	}
	s.RunTo(s.End() / 2)
	var buf bytes.Buffer
	if err := s.WriteCheckpoint(&buf); err != nil {
		t.Fatalf("%s: WriteCheckpoint: %v", name, err)
	}
	restored, err := RestoreSim(&buf)
	if err != nil {
		t.Fatalf("%s: RestoreSim: %v", name, err)
	}
	if _, err := restored.Finish(); err != nil {
		t.Fatalf("%s: Finish after restore: %v", name, err)
	}
	return restored
}

// counterText prints a finished run's router and NI counters, headed by
// name.
func counterText(name string, s *Sim) string {
	var b strings.Builder
	net := s.Net()
	fmt.Fprintf(&b, "== %s\n", name)
	for i, r := range net.Routers {
		fmt.Fprintf(&b, "router %d %+v\n", i, r.Stats())
		for p := 0; p < r.Config().Ports; p++ {
			fmt.Fprintf(&b, "router %d port %d %+v\n", i, p, r.PortStats(p))
		}
		fmt.Fprintf(&b, "router %d blocks %s\n", i, blockLine(r))
	}
	for i, ni := range net.NIs {
		fmt.Fprintf(&b, "ni %d stalls=%d sent=%d dropped=%d rt=%d be=%d\n",
			i, ni.Stalls, ni.Sent, ni.Dropped, ni.RTFlits, ni.BEFlits)
	}
	return b.String()
}

// blockLine sums each field of r's counter blocks across its lanes and
// ports, and digests the blocks lane by lane, so a count moved from one
// lane to another shows too. Blocks is left out: it counts blocking spans,
// which only traced runs open.
func blockLine(r *core.Router) string {
	var vc obs.VCCounters
	var pc obs.PortCounters
	var raw []byte
	put := func(vs ...uint64) {
		for _, v := range vs {
			raw = binary.LittleEndian.AppendUint64(raw, v)
		}
	}
	for _, c := range r.VCCounters() {
		vc.Switched += c.Switched
		vc.Transmitted += c.Transmitted
		vc.Grants += c.Grants
		vc.GrantWait += c.GrantWait
		vc.VCTicks += c.VCTicks
		put(c.Switched, c.Transmitted, c.Grants, c.GrantWait, c.VCTicks)
	}
	for _, c := range r.PortCounters() {
		pc.Injected += c.Injected
		pc.Ejected += c.Ejected
		pc.Dropped += c.Dropped
		pc.Killed += c.Killed
		pc.Retransmits += c.Retransmits
		pc.Faults += c.Faults
		pc.PoliceDrops += c.PoliceDrops
		put(c.Injected, c.Ejected, c.Dropped, c.Killed, c.Retransmits, c.Faults, c.PoliceDrops)
	}
	h := fnv.New64a()
	h.Write(raw)
	return fmt.Sprintf("switched=%d transmitted=%d grants=%d grant_wait=%d vc_ticks=%d "+
		"injected=%d ejected=%d dropped=%d killed=%d retransmits=%d faults=%d police_drops=%d digest=%016x",
		vc.Switched, vc.Transmitted, vc.Grants, vc.GrantWait, vc.VCTicks,
		pc.Injected, pc.Ejected, pc.Dropped, pc.Killed, pc.Retransmits, pc.Faults, pc.PoliceDrops, h.Sum64())
}

// firstDiff reports the first line where got and want differ, or nil.
func firstDiff(got, want string) error {
	if got == want {
		return nil
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			return fmt.Errorf("first difference at line %d:\n got: %s\nwant: %s", i+1, gl[i], wl[i])
		}
	}
	return fmt.Errorf("%d lines, want %d", len(gl), len(wl))
}

// TestCountersReconcileWithTrace holds the counter blocks to the trace,
// the way a link's transmit counters must equal what its receiver saw:
// each counterConfigs run, traced into a ring that never wraps, must have
// every snapshot's blocks and latency histograms equal the trace's events
// up to that snapshot's marker, folded by traceFold. The policed config's
// window ends before its dropper acts, so a copy with tight meter buckets
// runs too and must drop. Counts cannot see the order events come in, so
// each run's events, in order and field by field, and its metrics CSV are
// digested too and pinned by testdata/trace_digests.txt: a block event
// moved past its port's pick, or given another cause, fails there.
// Regenerate with -update.
func TestCountersReconcileWithTrace(t *testing.T) {
	if testing.Short() {
		t.Skip("runs five traced simulations with million-event rings")
	}
	configs := counterConfigs()
	tight := configs[1]
	tight.name += "_tight"
	tight.cfg.Policing.CBSFlits, tight.cfg.Policing.EBSFlits = 60, 30
	var digests strings.Builder
	for _, tc := range append(configs, tight) {
		cfg := tc.cfg
		cfg.Trace = TraceConfig{Enabled: true, EventCap: 5_000_000, MetricsInterval: cfg.FrameInterval / 4}
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		c := res.Trace
		if c.DroppedEvents != 0 {
			t.Fatalf("%s: the ring wrapped and lost %d of %d events; raise EventCap", tc.name, c.DroppedEvents, c.TotalEvents)
		}
		f := newTraceFold(c.Routers)
		n := 0
		for _, ev := range c.Events {
			if ev.Kind != obs.EvSnapshot {
				f.fold(ev)
				continue
			}
			if n == len(c.Snapshots) {
				t.Fatalf("%s: more snapshot markers than the %d snapshots", tc.name, n)
			}
			s := &c.Snapshots[n]
			n++
			switch {
			case s.At != ev.At:
				t.Fatalf("%s: snapshot %d at %d, its marker at %d", tc.name, n, s.At, ev.At)
			case len(s.PerVC) != len(f.vc) || len(s.PerPort) != len(f.port):
				t.Fatalf("%s: snapshot %d holds %d VC and %d port blocks, the routers have %d and %d",
					tc.name, n, len(s.PerVC), len(s.PerPort), len(f.vc), len(f.port))
			case !slices.Equal(s.PerVC, f.vc):
				i := firstUnequal(s.PerVC, f.vc)
				t.Fatalf("%s: snapshot %d at %d, VC block %d (router %s): counted %+v, trace says %+v",
					tc.name, n, s.At, i, f.where(i, true), s.PerVC[i], f.vc[i])
			case !slices.Equal(s.PerPort, f.port):
				i := firstUnequal(s.PerPort, f.port)
				t.Fatalf("%s: snapshot %d at %d, port block %d (router %s): counted %+v, trace says %+v",
					tc.name, n, s.At, i, f.where(i, false), s.PerPort[i], f.port[i])
			case s.Latency != f.lat:
				t.Fatalf("%s: snapshot %d at %d: latency histograms differ from the trace's ejections", tc.name, n, s.At)
			}
		}
		if n != len(c.Snapshots) || n < 2 {
			t.Fatalf("%s: %d snapshot markers for %d snapshots", tc.name, n, len(c.Snapshots))
		}
		var drops uint64
		for _, p := range f.port {
			drops += p.PoliceDrops
		}
		if tc.name == tight.name && drops == 0 {
			t.Fatalf("%s: no policing drop to reconcile", tc.name)
		}
		t.Logf("%s: %d events reconciled at %d snapshots", tc.name, len(c.Events), n)
		line, err := traceDigest(tc.name, c)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		digests.WriteString(line)
	}
	checkGolden(t, "testdata/trace_digests.txt", digests.String())
}

// traceDigest returns a golden line for c headed by name: its event count,
// a digest of every field of every event in order, and its metrics CSV's
// size and digest.
func traceDigest(name string, c *obs.Capture) (string, error) {
	h := fnv.New64a()
	var raw []byte
	for _, e := range c.Events {
		raw = binary.LittleEndian.AppendUint64(raw[:0], uint64(e.At))
		raw = binary.LittleEndian.AppendUint64(raw, e.Msg)
		raw = binary.LittleEndian.AppendUint64(raw, uint64(e.Arg))
		raw = binary.LittleEndian.AppendUint32(raw, uint32(e.Seq))
		for _, v := range [...]int16{e.Router, e.Port, e.VC} {
			raw = binary.LittleEndian.AppendUint16(raw, uint16(v))
		}
		raw = append(raw, byte(e.Kind), byte(e.Cause), byte(e.Class))
		h.Write(raw)
	}
	var csv bytes.Buffer
	if err := obs.WriteMetricsCSV(&csv, c); err != nil {
		return "", err
	}
	m := fnv.New64a()
	m.Write(csv.Bytes())
	return fmt.Sprintf("%s events=%d event_digest=%016x metrics_bytes=%d metrics_digest=%016x\n",
		name, len(c.Events), h.Sum64(), csv.Len(), m.Sum64()), nil
}

// traceFold rebuilds the counter blocks from trace events, by the rules
// the tracer used when it counted its own events: the reference the
// counts kept at the event sites must reproduce. Blocks are laid out as
// in a snapshot, in router registration order.
type traceFold struct {
	dims  []obs.RouterDim
	first map[int][2]int // router ID → index of its first VC and first port block
	vc    []obs.VCCounters
	port  []obs.PortCounters
	lat   [3]obs.Hist
	byID  map[int]obs.RouterDim
}

func newTraceFold(dims []obs.RouterDim) *traceFold {
	f := &traceFold{dims: dims, first: map[int][2]int{}, byID: map[int]obs.RouterDim{}}
	for _, d := range dims {
		f.first[d.ID] = [2]int{len(f.vc), len(f.port)}
		f.byID[d.ID] = d
		f.vc = append(f.vc, make([]obs.VCCounters, d.Ports*d.VCs)...)
		f.port = append(f.port, make([]obs.PortCounters, d.Ports)...)
	}
	return f
}

// blocks returns ev's (router, port, VC) and (router, port) blocks, each
// nil when ev names none, as an NI's injection-link span (VC -1) names no
// VC.
func (f *traceFold) blocks(ev obs.Event) (*obs.VCCounters, *obs.PortCounters) {
	d, ok := f.byID[int(ev.Router)]
	if !ok || ev.Port < 0 || int(ev.Port) >= d.Ports {
		return nil, nil
	}
	first := f.first[d.ID]
	port := &f.port[first[1]+int(ev.Port)]
	if ev.VC < 0 || int(ev.VC) >= d.VCs {
		return nil, port
	}
	return &f.vc[first[0]+int(ev.Port)*d.VCs+int(ev.VC)], port
}

func (f *traceFold) fold(ev obs.Event) {
	vc, port := f.blocks(ev)
	switch {
	case ev.Kind == obs.EvVCAlloc && vc != nil:
		vc.Grants++
		vc.GrantWait += uint64(ev.Arg)
	case ev.Kind == obs.EvSwitchArb && vc != nil:
		vc.Switched++
	case ev.Kind == obs.EvLinkTraverse && vc != nil:
		vc.Transmitted++
	case ev.Kind == obs.EvBlock && vc != nil:
		vc.Blocks++
	case ev.Kind == obs.EvVCTick && vc != nil:
		vc.VCTicks++
	case ev.Kind == obs.EvInject && port != nil:
		port.Injected++
	case ev.Kind == obs.EvEject && port != nil:
		port.Ejected++
		f.lat[ev.Class].Observe(sim.Time(ev.Arg))
	case ev.Kind == obs.EvDrop && port != nil:
		port.Dropped++
	case ev.Kind == obs.EvKill && port != nil:
		port.Killed++
	case ev.Kind == obs.EvRetransmit && port != nil:
		port.Retransmits++
	case ev.Kind == obs.EvFault && port != nil:
		port.Faults++
	case ev.Kind == obs.EvPolice && port != nil:
		port.PoliceDrops++
	}
}

// where names the router, port and, for a VC block, VC of block i.
func (f *traceFold) where(i int, vc bool) string {
	for _, d := range f.dims {
		first := f.first[d.ID]
		switch {
		case vc && i >= first[0] && i < first[0]+d.Ports*d.VCs:
			return fmt.Sprintf("%d port %d VC %d", d.ID, (i-first[0])/d.VCs, (i-first[0])%d.VCs)
		case !vc && i >= first[1] && i < first[1]+d.Ports:
			return fmt.Sprintf("%d port %d", d.ID, i-first[1])
		}
	}
	return "?"
}

// firstUnequal returns the first index where a and b differ.
func firstUnequal[T comparable](a, b []T) int {
	i := 0
	for i < len(a) && i < len(b) && a[i] == b[i] {
		i++
	}
	return i
}
