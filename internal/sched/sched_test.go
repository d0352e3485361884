package sched

import (
	"strings"
	"testing"
	"testing/quick"

	"mediaworm/internal/sim"
)

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{FIFO: "fifo", RoundRobin: "round-robin", VirtualClock: "virtual-clock"} {
		if k.String() != want {
			t.Fatalf("%v", k)
		}
	}
	if Kind(42).String() == "" {
		t.Fatal("unknown kind should stringify")
	}
}

func TestParseKind(t *testing.T) {
	accepted := map[string]Kind{
		"fifo": FIFO, "FIFO": FIFO,
		"rr": RoundRobin, "round-robin": RoundRobin,
		"vc": VirtualClock, "virtual-clock": VirtualClock, "virtualclock": VirtualClock,
	}
	for s, want := range accepted {
		got, err := ParseKind(s)
		if err != nil || got != want {
			t.Fatalf("ParseKind(%q) = %v, %v", s, got, err)
		}
	}
	rejected := []struct {
		in       string
		wantHint string // substring the error must carry
	}{
		{"bogus", "valid:"},
		{"", "valid:"},
		{"Fifo ", `did you mean "fifo"?`},
		{" fifo", `did you mean "fifo"?`},
		{"fifo\t", `did you mean "fifo"?`},
		{"FiFo", `did you mean "fifo"?`},
		{"RR", `did you mean "round-robin"?`},
		{"Round-Robin", `did you mean "round-robin"?`},
		{"VC ", `did you mean "virtual-clock"?`},
		{"VirtualClock", `did you mean "virtual-clock"?`},
		{"Virtual-Clock\n", `did you mean "virtual-clock"?`},
		{" bogus ", "valid:"}, // junk stays junk even normalized
	}
	for _, tc := range rejected {
		_, err := ParseKind(tc.in)
		if err == nil {
			t.Fatalf("ParseKind(%q) accepted junk", tc.in)
		}
		if !strings.Contains(err.Error(), tc.wantHint) {
			t.Fatalf("ParseKind(%q) error %q lacks %q", tc.in, err, tc.wantHint)
		}
	}
}

func TestServiceCurve(t *testing.T) {
	cfg := ServiceConfig{VCs: 16, RTVCs: 12}
	cases := []struct {
		kind    Kind
		share   float64
		latency float64
		crossBE bool
	}{
		{FIFO, 1, 0, true},
		{RoundRobin, 12.0 / 16, 4, false},
		{VirtualClock, 1, 1, false},
	}
	for _, tc := range cases {
		m, err := ServiceCurve(tc.kind, cfg)
		if err != nil {
			t.Fatalf("ServiceCurve(%v): %v", tc.kind, err)
		}
		if m.Share != tc.share || m.LatencyFlits != tc.latency || m.CrossBestEffort != tc.crossBE {
			t.Fatalf("ServiceCurve(%v) = %+v, want share %v latency %v crossBE %v",
				tc.kind, m, tc.share, tc.latency, tc.crossBE)
		}
	}
	if _, err := ServiceCurve(FIFO, ServiceConfig{VCs: 0}); err == nil {
		t.Fatal("accepted zero VCs")
	}
	if _, err := ServiceCurve(FIFO, ServiceConfig{VCs: 4, RTVCs: 5}); err == nil {
		t.Fatal("accepted RTVCs > VCs")
	}
	if _, err := ServiceCurve(RoundRobin, ServiceConfig{VCs: 4, RTVCs: 0}); err == nil {
		t.Fatal("round-robin accepted zero real-time VCs")
	}
	if _, err := ServiceCurve(Kind(99), cfg); err == nil {
		t.Fatal("accepted unknown kind")
	}
}

func TestNewPanicsOnUnknown(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewArbiter(Kind(99), Params{})
}

func TestFIFOPicksEarliestArrival(t *testing.T) {
	a := NewArbiter(FIFO, Params{})
	cands := []Candidate{
		{VC: 0, Enq: 30, Seq: 3},
		{VC: 1, Enq: 10, Seq: 1},
		{VC: 2, Enq: 20, Seq: 2},
	}
	if got := a.Pick(cands); got != 1 {
		t.Fatalf("FIFO picked %d, want 1", got)
	}
}

func TestFIFOTieBreaksBySeq(t *testing.T) {
	a := NewArbiter(FIFO, Params{})
	cands := []Candidate{
		{VC: 0, Enq: 10, Seq: 7},
		{VC: 1, Enq: 10, Seq: 2},
	}
	if got := a.Pick(cands); got != 1 {
		t.Fatalf("FIFO tie-break picked %d, want 1", got)
	}
}

func TestFIFOIgnoresTimestamps(t *testing.T) {
	a := NewArbiter(FIFO, Params{})
	cands := []Candidate{
		{VC: 0, TS: 1, Enq: 20, Seq: 2},
		{VC: 1, TS: sim.Forever, Enq: 10, Seq: 1},
	}
	if got := a.Pick(cands); got != 1 {
		t.Fatal("FIFO must ignore virtual-clock timestamps")
	}
}

func TestRoundRobinCycles(t *testing.T) {
	a := NewArbiter(RoundRobin, Params{})
	cands := []Candidate{{VC: 0}, {VC: 1}, {VC: 2}}
	var order []int
	for i := 0; i < 6; i++ {
		w := a.Pick(cands)
		order = append(order, cands[w].VC)
	}
	want := []int{0, 1, 2, 0, 1, 2}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("RR order %v, want %v", order, want)
		}
	}
}

func TestRoundRobinSkipsAbsentVCs(t *testing.T) {
	a := NewArbiter(RoundRobin, Params{})
	_ = a.Pick([]Candidate{{VC: 0}, {VC: 1}, {VC: 2}}) // grants 0
	// VC 1 has nothing now; next grant should go to 2, then wrap to 0.
	if w := a.Pick([]Candidate{{VC: 0}, {VC: 2}}); w != 1 {
		t.Fatalf("RR picked index %d, want VC 2", w)
	}
	if w := a.Pick([]Candidate{{VC: 0}, {VC: 2}}); w != 0 {
		t.Fatalf("RR did not wrap to VC 0")
	}
}

func TestVirtualClockPicksLowestTimestamp(t *testing.T) {
	a := NewArbiter(VirtualClock, Params{})
	cands := []Candidate{
		{VC: 0, TS: 300, Enq: 1, Seq: 1},
		{VC: 1, TS: 100, Enq: 2, Seq: 2},
		{VC: 2, TS: 200, Enq: 3, Seq: 3},
	}
	if got := a.Pick(cands); got != 1 {
		t.Fatalf("VC picked %d, want 1", got)
	}
}

func TestVirtualClockRealTimeBeatsBestEffort(t *testing.T) {
	a := NewArbiter(VirtualClock, Params{})
	cands := []Candidate{
		{VC: 0, TS: sim.Forever, Enq: 1, Seq: 1}, // best-effort, arrived first
		{VC: 1, TS: 1 << 40, Enq: 2, Seq: 2},     // real-time, huge but finite stamp
	}
	if got := a.Pick(cands); got != 1 {
		t.Fatal("real-time flit must beat best-effort regardless of arrival")
	}
}

func TestVirtualClockBestEffortFIFOAmongItself(t *testing.T) {
	a := NewArbiter(VirtualClock, Params{})
	cands := []Candidate{
		{VC: 0, TS: sim.Forever, Enq: 20, Seq: 2},
		{VC: 1, TS: sim.Forever, Enq: 10, Seq: 1},
	}
	if got := a.Pick(cands); got != 1 {
		t.Fatal("best-effort flits must be served in arrival order")
	}
}

func TestVirtualClockTieBreak(t *testing.T) {
	a := NewArbiter(VirtualClock, Params{})
	cands := []Candidate{
		{VC: 0, TS: 100, Enq: 5, Seq: 9},
		{VC: 1, TS: 100, Enq: 5, Seq: 3},
	}
	if got := a.Pick(cands); got != 1 {
		t.Fatal("equal stamps must tie-break deterministically by Seq")
	}
}

func TestVClockStampIdleConnection(t *testing.T) {
	var v VClock
	// First flit at t=1000 with Vtick=100: max(1000,0)+100 = 1100.
	if ts := v.Stamp(1000, 100); ts != 1100 {
		t.Fatalf("stamp %d, want 1100", ts)
	}
	// Burst arrival at the same instant: stamps space out by Vtick.
	if ts := v.Stamp(1000, 100); ts != 1200 {
		t.Fatalf("stamp %d, want 1200", ts)
	}
}

func TestVClockCatchesUpToWallClock(t *testing.T) {
	var v VClock
	v.Stamp(0, 100) // aux=100
	// A long silence: the next arrival is stamped from wall-clock, not from
	// the stale aux — the connection cannot bank unused bandwidth.
	if ts := v.Stamp(1_000_000, 100); ts != 1_000_100 {
		t.Fatalf("stamp %d, want 1000100", ts)
	}
}

func TestVClockBestEffort(t *testing.T) {
	var v VClock
	if ts := v.Stamp(500, sim.Forever); ts != sim.Forever {
		t.Fatal("best-effort stamp must be Forever")
	}
	if v.Aux() != 0 {
		t.Fatal("best-effort stamping must not advance the clock")
	}
}

func TestVClockReset(t *testing.T) {
	var v VClock
	v.Stamp(100, 10)
	v.Reset()
	if v.Aux() != 0 {
		t.Fatal("Reset did not clear aux")
	}
}

// Property: virtual clock stamps within a connection are strictly increasing
// for finite Vticks, regardless of arrival pattern.
func TestPropertyVClockMonotone(t *testing.T) {
	f := func(arrivals []uint32, vtickRaw uint16) bool {
		vtick := sim.Time(vtickRaw%1000) + 1
		var v VClock
		now := sim.Time(0)
		prev := sim.Time(-1)
		for _, a := range arrivals {
			now += sim.Time(a % 100000)
			ts := v.Stamp(now, vtick)
			if ts <= prev || ts < now {
				return false
			}
			prev = ts
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: two connections sharing a point get service opportunities in
// proportion to their rates. We simulate perfect backlog: each service
// removes the winner's head and stamps its next flit.
func TestVirtualClockProportionalSharing(t *testing.T) {
	a := NewArbiter(VirtualClock, Params{})
	var fast, slow VClock
	// fast requests 4x the bandwidth of slow.
	const fastTick, slowTick = 100, 400
	now := sim.Time(0)
	fastTS := fast.Stamp(now, fastTick)
	slowTS := slow.Stamp(now, slowTick)
	served := map[int]int{}
	for i := 0; i < 5000; i++ {
		now += 80 // one service per "cycle"
		w := a.Pick([]Candidate{
			{VC: 0, TS: fastTS, Enq: now, Seq: uint64(2 * i)},
			{VC: 1, TS: slowTS, Enq: now, Seq: uint64(2*i + 1)},
		})
		if w == 0 {
			served[0]++
			fastTS = fast.Stamp(now, fastTick)
		} else {
			served[1]++
			slowTS = slow.Stamp(now, slowTick)
		}
	}
	ratio := float64(served[0]) / float64(served[1])
	if ratio < 3.5 || ratio > 4.5 {
		t.Fatalf("service ratio %v (fast %d, slow %d), want ~4", ratio, served[0], served[1])
	}
}

func TestArbiterKinds(t *testing.T) {
	for _, k := range []Kind{FIFO, RoundRobin, VirtualClock} {
		if NewArbiter(k, Params{}).Kind() != k {
			t.Fatalf("arbiter for %v reports wrong kind", k)
		}
	}
}

func BenchmarkVirtualClockPick16(b *testing.B) {
	a := NewArbiter(VirtualClock, Params{})
	cands := make([]Candidate, 16)
	for i := range cands {
		cands[i] = Candidate{VC: i, TS: sim.Time(1000 - i), Enq: sim.Time(i), Seq: uint64(i)}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = a.Pick(cands)
	}
}
