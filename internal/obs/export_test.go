package obs

import (
	"bytes"
	"strings"
	"testing"

	"mediaworm/internal/flit"
	"mediaworm/internal/sim"
)

// testCapture builds a small hand-made capture exercising every exporter
// code path: metadata lanes, instants, block spans, and a snapshot.
func testCapture() *Capture {
	trc := New(Options{Enabled: true, EventCap: 256})
	vc, port := make([]VCCounters, 2*2), make([]PortCounters, 2)
	trc.RegisterRouter(0, 2, 2, vc, port)
	trc.Emit(Event{At: 10, Kind: EvInject, Router: 0, Port: 0, VC: 1, Msg: 1, Seq: 4, Arg: 3, Class: flit.VBR})
	trc.Emit(Event{At: 20, Kind: EvVCTick, Router: 0, Port: 0, VC: 1, Msg: 1, Arg: 500})
	trc.Emit(Event{At: 20, Kind: EvPickSource, Router: 0, Port: 0, VC: 1, Msg: 1, Arg: 500, Seq: 1})
	trc.Emit(Event{At: 30, Kind: EvVCAlloc, Router: 0, Port: 1, VC: 0, Msg: 1, Arg: 10})
	trc.Emit(Event{At: 40, Kind: EvBlock, Router: 0, Port: 0, VC: 1, Msg: 1, Cause: CauseNotGranted})
	trc.Emit(Event{At: 60, Kind: EvUnblock, Router: 0, Port: 0, VC: 1, Msg: 1, Cause: CauseNotGranted})
	trc.Emit(Event{At: 60, Kind: EvSwitchArb, Router: 0, Port: 0, VC: 1, Msg: 1, Seq: 0,
		Arg: int64(1)<<16 | 0})
	trc.Emit(Event{At: 70, Kind: EvLinkTraverse, Router: 0, Port: 1, VC: 0, Msg: 1, Seq: 0, Arg: 500})
	trc.Emit(Event{At: 80, Kind: EvEject, Router: 0, Port: 1, VC: 0, Msg: 1, Seq: 2,
		Class: flit.VBR, Arg: 70})
	trc.Emit(Event{At: 90, Kind: EvFault, Router: 0, Port: 1, VC: -1, Cause: CauseLinkDown, Arg: 1})
	trc.Emit(Event{At: 95, Kind: EvDeadlock, Router: -1, Port: -1, VC: -1, Msg: 42, Arg: 3})
	// The counts and the latency the events above stand for, as the router
	// and its endpoints record them.
	vc[0*2+1] = VCCounters{Switched: 1, Blocks: 1, VCTicks: 1}
	vc[1*2+0] = VCCounters{Transmitted: 1, Grants: 1, GrantWait: 10}
	port[0] = PortCounters{Injected: 1}
	port[1] = PortCounters{Ejected: 1, Faults: 1}
	trc.ObserveLatency(flit.VBR, 70)
	trc.Snapshot(100)
	return trc.Capture()
}

func TestChromeTraceRoundTrip(t *testing.T) {
	c := testCapture()
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, c); err != nil {
		t.Fatal(err)
	}
	tr, err := ReadChromeTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("parse back: %v", err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("validate: %v", err)
	}
	s := tr.Summarize()
	if s.Events == 0 || s.Spans != 1 {
		t.Fatalf("summary = %+v, want events > 0 and exactly 1 block span", s)
	}
	// 11 emitted events + the snapshot marker + the snapshot's three counter
	// series (engine, trace, latency of the one observed class).
	if s.Events != 15 {
		t.Fatalf("summary events = %d, want 15", s.Events)
	}
}

func TestChromeTraceWriteDeterministic(t *testing.T) {
	c := testCapture()
	var a, b bytes.Buffer
	if err := WriteChromeTrace(&a, c); err != nil {
		t.Fatal(err)
	}
	if err := WriteChromeTrace(&b, c); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two writes of one capture differ byte-for-byte")
	}
}

func TestValidateSpanRules(t *testing.T) {
	// A still-open span at the end of the capture is fine (the worm was
	// blocked when the run ended), as is a leading stray E (its B fell off
	// the ring).
	tr := &ChromeTrace{TraceEvents: []ChromeEvent{
		{Name: "blocked: claimed", Ph: "E", Ts: 1, Pid: 1, Tid: 1},
		{Name: "blocked: not-granted", Ph: "B", Ts: 2, Pid: 1, Tid: 1},
	}}
	if err := tr.Validate(); err != nil {
		t.Fatalf("window-edge spans must validate, got %v", err)
	}
	// But an E after the lane's spans have balanced is impossible to emit.
	tr = &ChromeTrace{TraceEvents: []ChromeEvent{
		{Name: "blocked: claimed", Ph: "B", Ts: 1, Pid: 1, Tid: 1},
		{Name: "blocked: claimed", Ph: "E", Ts: 2, Pid: 1, Tid: 1},
		{Name: "blocked: claimed", Ph: "E", Ts: 3, Pid: 1, Tid: 1},
	}}
	if err := tr.Validate(); err == nil {
		t.Fatal("E after balanced spans must fail validation")
	}
	tr = &ChromeTrace{TraceEvents: []ChromeEvent{
		{Name: "x", Ph: "i", Ts: 2, Pid: 1, Tid: 1, S: "t"},
		{Name: "y", Ph: "i", Ts: 1, Pid: 1, Tid: 1, S: "t"},
	}}
	if err := tr.Validate(); err == nil {
		t.Fatal("per-lane timestamp regression must fail validation")
	}
	tr = &ChromeTrace{TraceEvents: []ChromeEvent{
		{Name: "z", Ph: "q", Ts: 1, Pid: 1, Tid: 1},
	}}
	if err := tr.Validate(); err == nil {
		t.Fatal("unknown phase must fail validation")
	}
}

func TestDiffChrome(t *testing.T) {
	c := testCapture()
	a := BuildChromeTrace(c)
	b := BuildChromeTrace(c)
	if diffs := DiffChrome(a, b); len(diffs) != 0 {
		t.Fatalf("identical traces diff: %v", diffs)
	}
	b.TraceEvents[len(b.TraceEvents)-1].Ts += 1
	if diffs := DiffChrome(a, b); len(diffs) == 0 {
		t.Fatal("modified trace must diff")
	}
	b.TraceEvents = b.TraceEvents[:len(b.TraceEvents)-1]
	diffs := DiffChrome(a, b)
	if len(diffs) == 0 || !strings.Contains(diffs[0], "event count") {
		t.Fatalf("length mismatch must be reported first, got %v", diffs)
	}
}

func TestWriteMetricsCSV(t *testing.T) {
	c := testCapture()
	var buf bytes.Buffer
	if err := WriteMetricsCSV(&buf, c); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if lines[0] != "at_ns,scope,router,port,vc,metric,value" {
		t.Fatalf("header = %q", lines[0])
	}
	for _, want := range []string{
		"engine,", "trace,", "port,0,0,-1,injected,1", "port,0,1,-1,ejected,1",
		"vc,0,1,0,transmitted,1", "vc,0,0,1,blocks,1", "latency_count,1",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("CSV missing %q in:\n%s", want, out)
		}
	}
	// Only non-zero rows: port 1 injected nothing, so no such row.
	if strings.Contains(out, "port,0,1,-1,injected") {
		t.Fatal("zero-valued counter row emitted")
	}
}

func TestBuildChromeTraceLaneLayout(t *testing.T) {
	c := testCapture()
	tr := BuildChromeTrace(c)
	// Metadata must name the router process and its per-port/per-VC lanes:
	// router 0 → pid 1; 2 ports × (1 port lane + 2 VC lanes) + router lane.
	var procs, threads int
	for _, ev := range tr.TraceEvents {
		if ev.Ph != "M" {
			continue
		}
		switch ev.Name {
		case "process_name":
			procs++
		case "thread_name":
			threads++
		}
	}
	if procs < 2 { // control pid + router 0
		t.Fatalf("process_name metadata = %d, want >= 2", procs)
	}
	if threads < 7 { // router lane + 2*(port + 2 VCs)
		t.Fatalf("thread_name metadata = %d, want >= 7", threads)
	}
	_ = sim.Time(0)
}
