package experiments

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

// fastOpt is small enough for CI while preserving every qualitative shape.
func fastOpt() Options {
	return Options{Scale: 0.05, WarmupIntervals: 2, MeasureIntervals: 6, Seed: 1}
}

func TestOptionsNormalized(t *testing.T) {
	o := Options{}.normalized()
	if o.Scale <= 0 || o.WarmupIntervals <= 0 || o.MeasureIntervals <= 0 || o.Seed == 0 {
		t.Fatalf("normalized options invalid: %+v", o)
	}
	o = Options{Scale: 2}.normalized()
	if o.Scale != 0.2 {
		t.Fatalf("out-of-range scale not reset: %v", o.Scale)
	}
}

func TestFig3Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	fig, err := Fig3(fastOpt())
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != 2 {
		t.Fatalf("series %d", len(fig.Series))
	}
	vc, fifo := fig.Series[0], fig.Series[1]
	if vc.Label != "virtual-clock" || fifo.Label != "fifo" {
		t.Fatalf("labels %q %q", vc.Label, fifo.Label)
	}
	// Identical d ≈ 33 ms at low load for both.
	if math.Abs(vc.Points[0].DMs-33) > 1 || math.Abs(fifo.Points[0].DMs-33) > 1 {
		t.Fatalf("low-load d: %v / %v", vc.Points[0].DMs, fifo.Points[0].DMs)
	}
	// The paper's headline: at the highest load FIFO jitters, Virtual Clock
	// does not (beyond the intrinsic VBR floor).
	last := len(Fig3Loads) - 1
	if !(fifo.Points[last].SDMs > 2*vc.Points[last].SDMs) {
		t.Fatalf("FIFO σd %.3f not clearly worse than Virtual Clock %.3f at load %.2f",
			fifo.Points[last].SDMs, vc.Points[last].SDMs, Fig3Loads[last])
	}
	// Virtual Clock jitter-free through 0.9 (σd below ~1 ms paper scale).
	for i, p := range vc.Points[:last] {
		if p.SDMs > 1.5 {
			t.Fatalf("Virtual Clock σd %.3f at load %.2f", p.SDMs, Fig3Loads[i])
		}
	}
}

func TestFig4Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	fig, err := Fig4(fastOpt())
	if err != nil {
		t.Fatal(err)
	}
	vbr, cbr := fig.Series[0], fig.Series[1]
	// Both jitter-free to 0.8; CBR never worse than VBR by more than noise
	// (CBR's constant frames remove the frame-size variance).
	for i := 0; i < 3; i++ { // loads 0.6, 0.7, 0.8
		if vbr.Points[i].SDMs > 1.5 || cbr.Points[i].SDMs > 1.0 {
			t.Fatalf("jitter at load %.2f: VBR %.3f CBR %.3f",
				Fig3Loads[i], vbr.Points[i].SDMs, cbr.Points[i].SDMs)
		}
		if cbr.Points[i].SDMs > vbr.Points[i].SDMs+0.2 {
			t.Fatalf("CBR worse than VBR at %.2f", Fig3Loads[i])
		}
	}
}

func TestFig5Table2Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	fig, tab, err := Fig5Table2(fastOpt())
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != len(Table2Loads) {
		t.Fatalf("fig5 series %d", len(fig.Series))
	}
	// No jitter for any mix at loads ≤ 0.8 (paper: "up to an input load of
	// 0.80 there is no jitter regardless of the mix").
	for li, load := range Table2Loads[:3] {
		for mi := range Fig5Mixes {
			if sd := fig.Series[li].Points[mi].SDMs; sd > 1.5 {
				t.Fatalf("σd %.3f at load %.2f mix %.2f", sd, load, Fig5Mixes[mi])
			}
		}
	}
	// Table 2: latency grows with load along each mix row (until
	// saturation), and grows with the real-time share at fixed load.
	for mi := range tab.Mixes {
		row := tab.Cells[mi]
		for li := 1; li < len(row); li++ {
			if row[li].BESaturated || row[li-1].BESaturated {
				continue
			}
			if row[li].BELatencyUs < row[li-1].BELatencyUs*0.8 {
				t.Fatalf("mix %v: latency fell from %.1f to %.1f between loads %.2f→%.2f",
					tab.Mixes[mi], row[li-1].BELatencyUs, row[li].BELatencyUs,
					tab.Loads[li-1], tab.Loads[li])
			}
		}
	}
	// At load 0.6 the real-time share ordering holds: 90:10 costs
	// best-effort more than 20:80.
	lo20 := tab.Cells[0][0].BELatencyUs
	lo90 := tab.Cells[len(tab.Mixes)-1][0].BELatencyUs
	if lo90 <= lo20 {
		t.Fatalf("RT-share ordering broken at load 0.6: %.1f (90:10) ≤ %.1f (20:80)", lo90, lo20)
	}
	// The highest-load, RT-dominant corner saturates as in the paper.
	corner := tab.Cells[len(tab.Mixes)-1][len(tab.Loads)-1]
	if !corner.BESaturated {
		t.Fatalf("90:10 at 0.96 load did not saturate (%.1f µs)", corner.BELatencyUs)
	}
}

func TestTable3Shape(t *testing.T) {
	tab := RunTable3(DefaultOptions())
	if len(tab.Rows) != len(Table3Loads) {
		t.Fatalf("rows %d", len(tab.Rows))
	}
	for i, r := range tab.Rows {
		if r.Attempts != r.Established+r.Dropped {
			t.Fatalf("row %d accounting: %+v", i, r)
		}
		target := int(Table3Loads[i] * 200)
		if r.Established > target {
			t.Fatalf("row %d established %d > target %d", i, r.Established, target)
		}
		if i > 0 && r.Attempts <= tab.Rows[i-1].Attempts {
			t.Fatalf("attempts not increasing at row %d", i)
		}
	}
	// Paper anchor: ~60% turned down at 0.74 load (row index 4).
	frac := float64(tab.Rows[4].Dropped) / float64(tab.Rows[4].Attempts)
	if frac < 0.45 || frac > 0.85 {
		t.Fatalf("drop fraction at 0.74 = %.2f", frac)
	}
}

func TestFigurePrinting(t *testing.T) {
	fig := &Figure{
		ID: "figX", Title: "test", XLabel: "load",
		Series: []Series{
			{Label: "a", Points: []Point{{Load: 0.5, DMs: 33, SDMs: 0.1}}},
			{Label: "b", Points: []Point{{Load: 0.5, DMs: 34, SDMs: 2.5}}},
		},
		Notes: "hello",
	}
	var buf bytes.Buffer
	fig.Fprint(&buf)
	out := buf.String()
	for _, want := range []string{"figX", "a d(ms)", "b σd(ms)", "0.50", "33.00", "2.500", "note: hello"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
	empty := &Figure{ID: "e", Title: "none"}
	buf.Reset()
	empty.Fprint(&buf)
	if !strings.Contains(buf.String(), "(empty)") {
		t.Fatal("empty figure not handled")
	}
}

// TestFprintDynPartEmptyPhase renders a phase without post-warmup
// best-effort deliveries — phase 1 when the mix shifts at the warmup end —
// as "-", and a saturated phase as "Sat.", never as NaN.
func TestFprintDynPartEmptyPhase(t *testing.T) {
	var buf bytes.Buffer
	FprintDynPart([]DynPartResult{
		{Variant: "empty", Phase1BEUs: math.NaN(), Phase2BEUs: 58.6},
		{Variant: "sat", Phase1BEUs: math.NaN(), Phase1BESat: true, Phase2BEUs: 64},
	}, &buf)
	want := map[string][2]string{"empty": {"-", "58.6"}, "sat": {"Sat.", "64.0"}}
	for _, line := range strings.Split(buf.String(), "\n") {
		f := strings.Fields(line)
		if len(f) == 0 {
			continue
		}
		w, ok := want[f[0]]
		if !ok {
			continue
		}
		if len(f) != 7 || f[3] != w[0] || f[4] != w[1] {
			t.Fatalf("row %q: phase cells %v, want %v", line, f[3:], w)
		}
		delete(want, f[0])
	}
	if len(want) != 0 {
		t.Fatalf("rows %v missing:\n%s", want, buf.String())
	}
}

func TestTable1Prints(t *testing.T) {
	var buf bytes.Buffer
	Table1(&buf)
	for _, want := range []string{"8 x 8", "32 bits", "20 flits", "400 Mbps"} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("table1 missing %q:\n%s", want, buf.String())
		}
	}
}

func TestMixFormatting(t *testing.T) {
	if got := fmtX(Point{RTShare: 0.8}, true); got != "80:20" {
		t.Fatalf("mix format %q", got)
	}
	if got := fmtX(Point{Load: 0.96}, false); got != "0.96" {
		t.Fatalf("load format %q", got)
	}
}

func TestExtensionsAndAblationsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	opt := fastOpt()

	gop, err := ExtGoP(opt)
	if err != nil {
		t.Fatal(err)
	}
	// GoP's periodic I frames must raise the jitter floor vs normal VBR.
	if gop.Series[1].Points[0].SDMs <= gop.Series[0].Points[0].SDMs {
		t.Fatalf("GoP σd %.3f not above normal %.3f at low load",
			gop.Series[1].Points[0].SDMs, gop.Series[0].Points[0].SDMs)
	}

	tetra, err := ExtTetrahedral(opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range tetra.Series {
		for _, p := range s.Points {
			if p.Samples == 0 {
				t.Fatalf("empty tetra point %+v", p)
			}
			if p.SDMs > 2 {
				t.Fatalf("%s jitter %.3f at load %.2f", s.Label, p.SDMs, p.Load)
			}
		}
	}

	dyn, err := ExtDynamicPartition(opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(dyn) != 2 {
		t.Fatalf("variants %d", len(dyn))
	}
	if dyn[1].Adjustments == 0 {
		t.Fatal("dynamic controller never adjusted")
	}
	if dyn[1].FinalRTVCs == dyn[1].InitialRTVCs {
		t.Fatal("partition never moved")
	}

	alloc, err := AblationAllocator(opt)
	if err != nil {
		t.Fatal(err)
	}
	// Two iterations must never be worse for best-effort where both are
	// unsaturated; at the highest load the 1-iteration fabric saturates
	// first or is slower.
	one, two := alloc.Series[0], alloc.Series[1]
	last := len(one.Points) - 1
	if !one.Points[last].BESaturated && two.Points[last].BESaturated {
		t.Fatal("augmented allocator saturated before the greedy one")
	}
}

func TestAblationSchedulerOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	fig, err := AblationScheduler(fastOpt())
	if err != nil {
		t.Fatal(err)
	}
	// At the highest load Virtual Clock keeps video jitter below both
	// rate-agnostic schedulers.
	vc := fig.Series[0].Points[len(AblationLoads)-1].SDMs
	rr := fig.Series[1].Points[len(AblationLoads)-1].SDMs
	fifo := fig.Series[2].Points[len(AblationLoads)-1].SDMs
	if vc >= rr || vc >= fifo {
		t.Fatalf("Virtual Clock σd %.3f not below round-robin %.3f / FIFO %.3f", vc, rr, fifo)
	}
}
