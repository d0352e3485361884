package stats

import (
	"math"
	"testing"
	"testing/quick"

	"mediaworm/internal/sim"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestWelfordEmpty(t *testing.T) {
	var w Welford
	if w.Count() != 0 {
		t.Fatal("fresh Welford has samples")
	}
	for _, v := range []float64{w.Mean(), w.Variance(), w.StdDev(), w.Min(), w.Max()} {
		if !math.IsNaN(v) {
			t.Fatalf("empty Welford stat = %v, want NaN", v)
		}
	}
}

func TestWelfordKnownValues(t *testing.T) {
	var w Welford
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		w.Add(x)
	}
	if w.Count() != 8 {
		t.Fatalf("count %d", w.Count())
	}
	if !almostEq(w.Mean(), 5, 1e-12) {
		t.Fatalf("mean %v, want 5", w.Mean())
	}
	if !almostEq(w.StdDev(), 2, 1e-12) {
		t.Fatalf("sd %v, want 2", w.StdDev())
	}
	if w.Min() != 2 || w.Max() != 9 {
		t.Fatalf("min/max %v/%v", w.Min(), w.Max())
	}
}

func TestWelfordSingle(t *testing.T) {
	var w Welford
	w.Add(42)
	if w.Mean() != 42 || w.Variance() != 0 || w.Min() != 42 || w.Max() != 42 {
		t.Fatalf("single-sample stats wrong: %v", w.String())
	}
}

func TestWelfordNumericalStability(t *testing.T) {
	// Large offset with small variance is the classic catastrophic
	// cancellation case for naive sum-of-squares.
	var w Welford
	const offset = 1e9
	for i := 0; i < 1000; i++ {
		w.Add(offset + float64(i%2)) // values offset, offset+1 alternating
	}
	if !almostEq(w.Variance(), 0.25, 1e-6) {
		t.Fatalf("variance %v, want 0.25", w.Variance())
	}
}

func TestWelfordMerge(t *testing.T) {
	var a, b, all Welford
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for i, x := range xs {
		all.Add(x)
		if i < 4 {
			a.Add(x)
		} else {
			b.Add(x)
		}
	}
	a.Merge(&b)
	if a.Count() != all.Count() {
		t.Fatalf("merged count %d, want %d", a.Count(), all.Count())
	}
	if !almostEq(a.Mean(), all.Mean(), 1e-9) || !almostEq(a.Variance(), all.Variance(), 1e-9) {
		t.Fatalf("merged moments %v vs %v", a.String(), all.String())
	}
	if a.Min() != 1 || a.Max() != 10 {
		t.Fatalf("merged min/max %v/%v", a.Min(), a.Max())
	}
}

func TestWelfordMergeWithEmpty(t *testing.T) {
	var a, empty Welford
	a.Add(5)
	a.Merge(&empty)
	if a.Count() != 1 || a.Mean() != 5 {
		t.Fatal("merge with empty changed stats")
	}
	var c Welford
	c.Merge(&a)
	if c.Count() != 1 || c.Mean() != 5 {
		t.Fatal("merge into empty failed")
	}
}

// Property: merging any split of a sample equals accumulating it whole.
func TestPropertyMergeEquivalence(t *testing.T) {
	f := func(raw []float32, cut uint8) bool {
		if len(raw) == 0 {
			return true
		}
		k := int(cut) % len(raw)
		var a, b, all Welford
		for i, r := range raw {
			x := float64(r)
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return true
			}
			all.Add(x)
			if i < k {
				a.Add(x)
			} else {
				b.Add(x)
			}
		}
		a.Merge(&b)
		scale := 1 + math.Abs(all.Variance())
		return a.Count() == all.Count() &&
			almostEq(a.Mean(), all.Mean(), 1e-6*(1+math.Abs(all.Mean()))) &&
			almostEq(a.Variance(), all.Variance(), 1e-5*scale)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestIntervalTrackerJitterFree(t *testing.T) {
	it := NewIntervalTracker(0)
	// Two streams delivering every 33 ms, phase-shifted.
	for i := 0; i < 10; i++ {
		it.Observe(1, sim.Time(i)*33*sim.Millisecond)
		it.Observe(2, sim.Time(i)*33*sim.Millisecond+7*sim.Millisecond)
	}
	if it.Streams() != 2 {
		t.Fatalf("streams %d", it.Streams())
	}
	if !almostEq(it.MeanMs(), 33, 1e-9) {
		t.Fatalf("d = %v ms, want 33", it.MeanMs())
	}
	if !almostEq(it.StdDevMs(), 0, 1e-9) {
		t.Fatalf("σd = %v ms, want 0", it.StdDevMs())
	}
	if it.Intervals().Count() != 18 {
		t.Fatalf("interval count %d, want 18", it.Intervals().Count())
	}
}

func TestIntervalTrackerJitter(t *testing.T) {
	it := NewIntervalTracker(0)
	// Alternating 23/43 ms intervals: mean 33, sd 10.
	ts := sim.Time(0)
	it.Observe(1, ts)
	for i := 0; i < 100; i++ {
		if i%2 == 0 {
			ts += 23 * sim.Millisecond
		} else {
			ts += 43 * sim.Millisecond
		}
		it.Observe(1, ts)
	}
	if !almostEq(it.MeanMs(), 33, 1e-9) {
		t.Fatalf("d = %v", it.MeanMs())
	}
	if !almostEq(it.StdDevMs(), 10, 1e-9) {
		t.Fatalf("σd = %v, want 10", it.StdDevMs())
	}
}

func TestIntervalTrackerWarmup(t *testing.T) {
	it := NewIntervalTracker(100 * sim.Millisecond)
	it.Observe(1, 50*sim.Millisecond)  // discarded entirely
	it.Observe(1, 120*sim.Millisecond) // primes
	it.Observe(1, 150*sim.Millisecond) // first interval: 30 ms
	if it.Intervals().Count() != 1 {
		t.Fatalf("interval count %d, want 1", it.Intervals().Count())
	}
	if !almostEq(it.MeanMs(), 30, 1e-9) {
		t.Fatalf("d = %v, want 30 (pre-warmup delivery must not count)", it.MeanMs())
	}
}

func TestBestEffortLatencyAndSaturation(t *testing.T) {
	b := NewBestEffort(10 * sim.Microsecond)
	b.Injected(5 * sim.Microsecond) // pre-warmup, ignored
	for i := 0; i < 100; i++ {
		inj := sim.Time(20+i) * sim.Microsecond
		b.Injected(inj)
		if i < 98 { // two messages stuck
			b.Delivered(inj, inj+50*sim.Microsecond)
		}
	}
	if !almostEq(b.MeanLatencyUs(), 50, 1e-9) {
		t.Fatalf("latency %v µs, want 50", b.MeanLatencyUs())
	}
	inj, del := b.Counts()
	if inj != 100 || del != 98 {
		t.Fatalf("counts %d/%d", inj, del)
	}
	if Saturated(b.Counts()) {
		t.Fatal("2% backlog flagged as saturation")
	}
	// The backlog must exceed both 5% of the injections and 50 messages.
	for _, c := range []struct {
		injected, delivered uint64
		want                bool
	}{
		{1000, 949, true},   // 51 stuck: above 5% and above 50
		{1000, 950, false},  // 50 stuck: at both thresholds, above neither
		{500, 460, false},   // 40 stuck: 8%, but under 50 messages
		{2000, 1920, false}, // 80 stuck: above 50 messages, but 4%
	} {
		if got := Saturated(c.injected, c.delivered); got != c.want {
			t.Fatalf("Saturated(%d, %d) = %v, want %v", c.injected, c.delivered, got, c.want)
		}
	}
}

func TestBestEffortPreWarmupDeliveryIgnored(t *testing.T) {
	b := NewBestEffort(100)
	b.Delivered(50, 150) // injected pre-warmup
	if b.Latency().Count() != 0 {
		t.Fatal("pre-warmup injection contributed a latency sample")
	}
}

func TestBestEffortEmptyNotSaturated(t *testing.T) {
	if Saturated(NewBestEffort(0).Counts()) {
		t.Fatal("no traffic must not read as saturated")
	}
}

func TestWelfordSampleVarianceAndCI95(t *testing.T) {
	var w Welford
	if !math.IsNaN(w.SampleVariance()) || w.CI95() != 0 {
		t.Fatalf("empty: sample variance %v, CI %v", w.SampleVariance(), w.CI95())
	}
	w.Add(5)
	if !math.IsNaN(w.SampleVariance()) || w.CI95() != 0 {
		t.Fatalf("single: sample variance %v, CI %v; one replica has no spread", w.SampleVariance(), w.CI95())
	}
	// {2, 4, 6}: mean 4, sample variance 4, sd 2, sem 2/√3, t(df=2) = 4.303.
	w = Welford{}
	for _, x := range []float64{2, 4, 6} {
		w.Add(x)
	}
	if !almostEq(w.SampleVariance(), 4, 1e-12) {
		t.Fatalf("sample variance %v, want 4", w.SampleVariance())
	}
	want := 4.303 * 2 / math.Sqrt(3)
	if !almostEq(w.CI95(), want, 1e-9) {
		t.Fatalf("CI95 %v, want %v", w.CI95(), want)
	}
	// Large n falls back to the normal critical value.
	w = Welford{}
	for i := 0; i < 100; i++ {
		w.Add(float64(i % 2))
	}
	sem := math.Sqrt(w.SampleVariance() / 100)
	if !almostEq(w.CI95(), 1.960*sem, 1e-12) {
		t.Fatalf("large-n CI95 %v, want %v", w.CI95(), 1.960*sem)
	}
	// The interval shrinks as replicas accumulate (fixed spread).
	narrow, wide := w.CI95(), 0.0
	{
		var w3 Welford
		for _, x := range []float64{0, 1, 0} {
			w3.Add(x)
		}
		wide = w3.CI95()
	}
	if narrow >= wide {
		t.Fatalf("CI did not shrink with replicas: %v vs %v", narrow, wide)
	}
}
