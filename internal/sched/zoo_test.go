package sched

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"mediaworm/internal/sim"
	"mediaworm/internal/snapshot"
)

// zooParams is the canonical weighted configuration the zoo tests share:
// four VCs, the first two "real-time" at weight 3 on tier 0, the last two
// best-effort at weight 1 on tier 1.
func zooParams() Params {
	return Params{
		VCs:     4,
		Weights: []int{3, 3, 1, 1},
		Tiers:   []int{0, 0, 1, 1},
		Quantum: 2,
	}
}

// TestKindRoundTripExhaustive is the registry gate: every registered Kind
// must stringify to a spelling ParseKind maps back to the same Kind, and the
// registry itself must be complete and duplicate-free. Adding a Kind without
// a String case, a ParseKind case, or a kinds entry fails here.
func TestKindRoundTripExhaustive(t *testing.T) {
	all := Kinds()
	if len(all) != numKinds {
		t.Fatalf("Kinds() returned %d kinds, registry declares %d", len(all), numKinds)
	}
	seen := map[Kind]bool{}
	for i, k := range all {
		if int(k) >= numKinds {
			t.Fatalf("registry entry %d holds out-of-range kind %d", i, k)
		}
		if seen[k] {
			t.Fatalf("kind %v registered twice", k)
		}
		seen[k] = true
		s := k.String()
		if strings.HasPrefix(s, "Kind(") {
			t.Fatalf("kind %d has no String spelling", uint8(k))
		}
		got, err := ParseKind(s)
		if err != nil {
			t.Fatalf("ParseKind(%v.String() = %q): %v", k, s, err)
		}
		if got != k {
			t.Fatalf("round-trip %v → %q → %v", k, s, got)
		}
		a := NewArbiter(k, Params{})
		if a.Kind() != k {
			t.Fatalf("NewArbiter(%v).Kind() = %v", k, a.Kind())
		}
	}
}

func TestParseKindZooSpellings(t *testing.T) {
	accepted := map[string]Kind{
		"wrr": WRR, "drr": DRR,
		"wf2q": WF2Q, "wf2q+": WF2Q, "wfq": WF2Q,
		"sp+wrr": SPWRR, "sp-wrr": SPWRR, "spwrr": SPWRR,
	}
	for s, want := range accepted {
		got, err := ParseKind(s)
		if err != nil || got != want {
			t.Fatalf("ParseKind(%q) = %v, %v", s, got, err)
		}
	}
	rejected := []struct {
		in       string
		wantHint string
	}{
		{"WRR", `did you mean "wrr"?`},
		{"Drr ", `did you mean "drr"?`},
		{"WF2Q+", `did you mean "wf2q"?`},
		{"SP+WRR", `did you mean "sp+wrr"?`},
		{"wf3q", "valid:"},
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

func TestServiceCurveZoo(t *testing.T) {
	// 16 VCs, 12 real-time at weight 3, 4 best-effort at weight 1:
	// aggregate weights 36 vs 4 → share 0.9.
	cfg := ServiceConfig{VCs: 16, RTVCs: 12, RTWeight: 3, BEWeight: 1, Quantum: 2}
	cases := []struct {
		kind    Kind
		share   float64
		latency float64
	}{
		{WRR, 0.9, 4},
		{DRR, 0.9, 2*4 + 4},
		{WF2Q, 0.9, 2},
		{SPWRR, 1, 1},
	}
	for _, tc := range cases {
		m, err := ServiceCurve(tc.kind, cfg)
		if err != nil {
			t.Fatalf("ServiceCurve(%v): %v", tc.kind, err)
		}
		if m.Share != tc.share || m.LatencyFlits != tc.latency || m.CrossBestEffort {
			t.Fatalf("ServiceCurve(%v) = %+v, want share %v latency %v crossBE false",
				tc.kind, m, tc.share, tc.latency)
		}
	}
	for _, k := range []Kind{WRR, DRR, WF2Q, SPWRR} {
		if _, err := ServiceCurve(k, ServiceConfig{VCs: 4, RTVCs: 0}); err == nil {
			t.Fatalf("%v accepted zero real-time VCs", k)
		}
	}
	// Defaulted weights and quantum behave like all-ones.
	m, err := ServiceCurve(WRR, ServiceConfig{VCs: 16, RTVCs: 12})
	if err != nil || m.Share != 12.0/16 || m.LatencyFlits != 4 {
		t.Fatalf("defaulted WRR curve = %+v, %v", m, err)
	}
}

// backlogged builds a fully-backlogged candidate set for the given VCs with
// deterministic arrival metadata.
func backlogged(vcs ...int) []Candidate {
	cands := make([]Candidate, len(vcs))
	for i, v := range vcs {
		cands[i] = Candidate{VC: v, TS: sim.Forever, Enq: sim.Time(i), Seq: uint64(i)}
	}
	return cands
}

// pickSequence runs n picks over a persistent backlog and returns the VC ids
// granted, in order.
func pickSequence(a Arbiter, cands []Candidate, n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = cands[a.Pick(cands)].VC
	}
	return out
}

func TestWRRWeightedRotation(t *testing.T) {
	a := NewArbiter(WRR, Params{VCs: 2, Weights: []int{3, 1}})
	got := pickSequence(a, backlogged(0, 1), 8)
	want := []int{0, 0, 0, 1, 0, 0, 0, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("WRR sequence %v, want %v", got, want)
		}
	}
}

func TestWRRForfeitsDryTurn(t *testing.T) {
	a := NewArbiter(WRR, Params{VCs: 2, Weights: []int{3, 1}})
	both := backlogged(0, 1)
	if got := both[a.Pick(both)].VC; got != 0 {
		t.Fatalf("first grant to VC %d, want 0", got)
	}
	// VC 0 runs dry mid-turn: the remaining 2 credits are forfeited and the
	// rotation moves on (work conservation), with a fresh turn on return.
	only1 := backlogged(1)
	if got := only1[a.Pick(only1)].VC; got != 1 {
		t.Fatal("rotation did not move past the dry turn-holder")
	}
	got := pickSequence(a, both, 4)
	want := []int{0, 0, 0, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("post-forfeit sequence %v, want %v", got, want)
		}
	}
}

func TestDRRQuantumProportional(t *testing.T) {
	// Quantum 2, weights 2:1 → visits of 4 and 2 flits.
	a := NewArbiter(DRR, Params{VCs: 2, Weights: []int{2, 1}, Quantum: 2})
	got := pickSequence(a, backlogged(0, 1), 12)
	want := []int{0, 0, 0, 0, 1, 1, 0, 0, 0, 0, 1, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("DRR sequence %v, want %v", got, want)
		}
	}
}

func TestDRRIdleLosesDeficit(t *testing.T) {
	a := NewArbiter(DRR, Params{VCs: 2, Weights: []int{2, 1}, Quantum: 2})
	both := backlogged(0, 1)
	// VC 0 serves one flit of its 4-credit visit, then goes idle.
	if got := both[a.Pick(both)].VC; got != 0 {
		t.Fatal("first visit should go to VC 0")
	}
	only1 := backlogged(1)
	if got := only1[a.Pick(only1)].VC; got != 1 {
		t.Fatal("idle visit-holder should forfeit the grant")
	}
	// On return VC 0 must start a fresh 4-flit visit — the 3 flits of unused
	// deficit from the abandoned visit are gone (idle flows bank nothing).
	got := pickSequence(a, both, 6)
	want := []int{1, 0, 0, 0, 0, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("post-idle sequence %v, want %v", got, want)
		}
	}
}

func TestWF2QProportionalAndSmooth(t *testing.T) {
	a := NewArbiter(WF2Q, Params{VCs: 2, Weights: []int{2, 1}})
	seq := pickSequence(a, backlogged(0, 1), 300)
	served := map[int]int{}
	run, maxRun := 0, 0
	for i, v := range seq {
		served[v]++
		if i > 0 && v == seq[i-1] {
			run++
		} else {
			run = 1
		}
		if v == 0 && run > maxRun {
			maxRun = run
		}
	}
	if served[0] != 200 || served[1] != 100 {
		t.Fatalf("WF²Q+ split %v, want exactly 200/100 under full backlog", served)
	}
	// Worst-case fairness: the weight-2 VC never bursts more than its
	// one-flit tracking of the fluid schedule allows.
	if maxRun > 2 {
		t.Fatalf("weight-2 VC served %d consecutive flits; WF²Q+ bounds the burst at 2", maxRun)
	}
}

func TestWF2QRearrivalDoesNotBankCredit(t *testing.T) {
	a := NewArbiter(WF2Q, Params{VCs: 2, Weights: []int{1, 1}})
	// Serve VC 1 alone for a while: its finish tag runs ahead of VC 0's.
	only1 := backlogged(1)
	for i := 0; i < 10; i++ {
		a.Pick(only1)
	}
	// When VC 0 arrives it restarts at the virtual time, not at its stale
	// tag, so it does not monopolize the link to "catch up".
	seq := pickSequence(a, backlogged(0, 1), 20)
	served := map[int]int{}
	for _, v := range seq {
		served[v]++
	}
	if served[0] > 11 {
		t.Fatalf("re-arriving VC banked idle credit: split %v", served)
	}
}

func TestSPWRRStrictPriority(t *testing.T) {
	p := zooParams()
	a := NewArbiter(SPWRR, p)
	// Tier-0 VCs (0 and 1) must always beat tier-1 VCs (2 and 3).
	all := backlogged(0, 1, 2, 3)
	for i := 0; i < 50; i++ {
		if v := all[a.Pick(all)].VC; v > 1 {
			t.Fatalf("tier-1 VC %d granted while tier 0 backlogged", v)
		}
	}
	// With tier 0 idle, tier 1 is served (no starvation of lower tiers once
	// the high tier drains).
	low := backlogged(2, 3)
	if v := low[a.Pick(low)].VC; v < 2 {
		t.Fatal("wrong tier served")
	}
}

func TestSPWRRWeightedWithinTier(t *testing.T) {
	a := NewArbiter(SPWRR, Params{VCs: 2, Weights: []int{3, 1}, Tiers: []int{0, 0}})
	got := pickSequence(a, backlogged(0, 1), 8)
	want := []int{0, 0, 0, 1, 0, 0, 0, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("SP+WRR in-tier sequence %v, want %v", got, want)
		}
	}
}

func TestSPWRRTierRotationsIndependent(t *testing.T) {
	p := zooParams()
	a := NewArbiter(SPWRR, p)
	all := backlogged(0, 1, 2, 3)
	// Drain a few tier-0 grants mid-rotation, then let tier 1 in; its own
	// rotation must start fresh at VC 2 regardless of tier 0's position.
	for i := 0; i < 5; i++ {
		a.Pick(all)
	}
	low := backlogged(2, 3)
	if v := low[a.Pick(low)].VC; v != 2 {
		t.Fatalf("tier-1 rotation started at VC %d, want 2", v)
	}
	if v := low[a.Pick(low)].VC; v != 3 {
		t.Fatal("tier-1 rotation did not advance")
	}
}

// TestZooPickZeroAlloc proves every Pick path allocates nothing in
// steady state — the static hotpath gate's dynamic counterpart.
func TestZooPickZeroAlloc(t *testing.T) {
	for _, k := range Kinds() {
		p := zooParams()
		a := NewArbiter(k, p)
		cands := backlogged(0, 1, 2, 3)
		for i := 0; i < 8; i++ {
			a.Pick(cands) // reach the rotations' steady state
		}
		if n := testing.AllocsPerRun(200, func() { a.Pick(cands) }); n != 0 {
			t.Errorf("%v: Pick allocates %.1f times per run, want 0", k, n)
		}
	}
}

// TestArbiterSnapshotRoundTrip checkpoints every discipline mid-rotation and
// verifies the restored arbiter continues with a byte-identical pick
// sequence — rotation position, deficit counters, and virtual-time tags all
// survive.
func TestArbiterSnapshotRoundTrip(t *testing.T) {
	for _, k := range Kinds() {
		p := zooParams()
		src := NewArbiter(k, p)
		cands := backlogged(0, 1, 2, 3)
		prefix := pickSequence(src, cands, 7) // land mid-turn on purpose
		_ = prefix

		var buf bytes.Buffer
		w := snapshot.NewWriter()
		if err := EncodeArbiter(w, src); err != nil {
			t.Fatalf("%v: encode: %v", k, err)
		}
		if err := w.Flush(&buf); err != nil {
			t.Fatalf("%v: flush: %v", k, err)
		}
		r, err := snapshot.NewReader(&buf)
		if err != nil {
			t.Fatalf("%v: reader: %v", k, err)
		}
		dst := NewArbiter(k, p)
		if err := RestoreArbiter(r, dst); err != nil {
			t.Fatalf("%v: restore: %v", k, err)
		}

		want := pickSequence(src, cands, 16)
		got := pickSequence(dst, cands, 16)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%v: restored sequence %v diverges from live %v", k, got, want)
			}
		}
	}
}

func TestRestoreArbiterKindMismatch(t *testing.T) {
	var buf bytes.Buffer
	w := snapshot.NewWriter()
	if err := EncodeArbiter(w, NewArbiter(WRR, Params{})); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(&buf); err != nil {
		t.Fatal(err)
	}
	r, err := snapshot.NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := RestoreArbiter(r, NewArbiter(DRR, Params{})); err == nil {
		t.Fatal("restoring WRR state into a DRR arbiter must fail")
	}
}

// TestRestoreArbiterRefusesOtherLength pins that a WF²Q+ or SP+WRR record
// restores only into an arbiter built with as many VCs or tiers: the
// records are sized once, at construction, and a restore never resizes
// them.
func TestRestoreArbiterRefusesOtherLength(t *testing.T) {
	for _, tc := range []struct {
		k        Kind
		src, dst Params
	}{
		{WF2Q, Params{VCs: 4}, Params{VCs: 8}},
		{SPWRR, Params{VCs: 2, Tiers: []int{0, 1}}, Params{VCs: 2}},
	} {
		w := snapshot.NewWriter()
		if err := EncodeArbiter(w, NewArbiter(tc.k, tc.src)); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := w.Flush(&buf); err != nil {
			t.Fatal(err)
		}
		r, err := snapshot.NewReader(&buf)
		if err != nil {
			t.Fatal(err)
		}
		var inv *snapshot.InvariantError
		if err := RestoreArbiter(r, NewArbiter(tc.k, tc.dst)); !errors.As(err, &inv) || inv.Invariant != "arbiter-state-len" {
			t.Errorf("%v: restore into %+v: %v, want the arbiter-state-len invariant", tc.k, tc.dst, err)
		}
	}
}

// BenchmarkArbiterPick measures one arbitration over a fully-backlogged
// 16-candidate field for every discipline; the -benchmem allocation column
// must read 0 B/op.
func BenchmarkArbiterPick(b *testing.B) {
	for _, k := range Kinds() {
		b.Run(k.String(), func(b *testing.B) {
			p := Params{VCs: 16, Quantum: 2}
			p.Weights = make([]int, 16)
			p.Tiers = make([]int, 16)
			for v := range p.Weights {
				p.Weights[v] = 1 + v%3
				p.Tiers[v] = v % 2
			}
			a := NewArbiter(k, p)
			cands := make([]Candidate, 16)
			for i := range cands {
				cands[i] = Candidate{VC: i, TS: sim.Time(1000 - i), Enq: sim.Time(i), Seq: uint64(i)}
			}
			for i := 0; i < 8; i++ {
				a.Pick(cands)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = a.Pick(cands)
			}
		})
	}
}
