// Package stats provides the measurement machinery for the MediaWorm
// experiments: numerically stable moment accumulators (Welford), frame
// delivery-interval trackers (the paper's d and σd), and best-effort
// latency / saturation accounting.
package stats

import (
	"fmt"
	"math"

	"mediaworm/internal/sim"
)

// Welford accumulates count, mean, variance, min and max in a numerically
// stable single pass. The zero value is ready to use.
type Welford struct {
	n    uint64
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add records one observation.
func (w *Welford) Add(x float64) {
	w.n++
	if w.n == 1 {
		w.min, w.max = x, x
	} else {
		if x < w.min {
			w.min = x
		}
		if x > w.max {
			w.max = x
		}
	}
	delta := x - w.mean
	w.mean += delta / float64(w.n)
	w.m2 += delta * (x - w.mean)
}

// Count returns the number of observations.
func (w *Welford) Count() uint64 { return w.n }

// Mean returns the sample mean, or NaN with no observations.
func (w *Welford) Mean() float64 {
	if w.n == 0 {
		return math.NaN()
	}
	return w.mean
}

// Variance returns the population variance, or NaN with no observations.
func (w *Welford) Variance() float64 {
	if w.n == 0 {
		return math.NaN()
	}
	return w.m2 / float64(w.n)
}

// StdDev returns the population standard deviation.
func (w *Welford) StdDev() float64 {
	v := w.Variance()
	if math.IsNaN(v) {
		return v
	}
	return math.Sqrt(v)
}

// Min returns the smallest observation, or NaN with none.
func (w *Welford) Min() float64 {
	if w.n == 0 {
		return math.NaN()
	}
	return w.min
}

// Max returns the largest observation, or NaN with none.
func (w *Welford) Max() float64 {
	if w.n == 0 {
		return math.NaN()
	}
	return w.max
}

// SampleVariance returns the unbiased (n−1 denominator) variance, NaN with
// fewer than two observations. Use it when the observations are a sample —
// e.g. replica measurements of one sweep point — rather than the population.
func (w *Welford) SampleVariance() float64 {
	if w.n < 2 {
		return math.NaN()
	}
	return w.m2 / float64(w.n-1)
}

// tCrit975 holds two-sided Student-t 95% critical values (0.975 quantile)
// for 1–30 degrees of freedom; beyond 30 the normal 1.96 is close enough.
var tCrit975 = [...]float64{
	12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
	2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
	2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
}

// CI95 returns the half-width of the 95% confidence interval of the mean
// (Student's t), or 0 with fewer than two observations — a single replica
// carries no spread information, and sweeps render the 0 as an exact point.
func (w *Welford) CI95() float64 {
	if w.n < 2 {
		return 0
	}
	df := w.n - 1
	t := 1.960
	if df <= uint64(len(tCrit975)) {
		t = tCrit975[df-1]
	}
	return t * math.Sqrt(w.SampleVariance()/float64(w.n))
}

// Merge folds other into w, as if all of other's observations had been added
// to w directly (Chan et al. parallel variance combination).
func (w *Welford) Merge(other *Welford) {
	if other.n == 0 {
		return
	}
	if w.n == 0 {
		*w = *other
		return
	}
	n := w.n + other.n
	delta := other.mean - w.mean
	w.mean += delta * float64(other.n) / float64(n)
	w.m2 += other.m2 + delta*delta*float64(w.n)*float64(other.n)/float64(n)
	if other.min < w.min {
		w.min = other.min
	}
	if other.max > w.max {
		w.max = other.max
	}
	w.n = n
}

// String summarizes the accumulator for debugging.
func (w *Welford) String() string {
	return fmt.Sprintf("n=%d mean=%.4g sd=%.4g min=%.4g max=%.4g",
		w.n, w.Mean(), w.StdDev(), w.Min(), w.Max())
}

// IntervalTracker measures the paper's headline metrics: the mean frame
// delivery interval d and its standard deviation σd, pooled across all
// streams (§4.1). The delivery interval is the time between deliveries of
// successive frames of the same stream at its destination.
type IntervalTracker struct {
	last    map[int]sim.Time // stream -> last delivery instant
	warmup  sim.Time         //mw:snapcover — constructor input, re-derived from the embedded config on restore
	samples Welford
}

// NewIntervalTracker ignores deliveries before warmup and uses the first
// post-warmup delivery of each stream only to prime its interval clock.
func NewIntervalTracker(warmup sim.Time) *IntervalTracker {
	return &IntervalTracker{last: make(map[int]sim.Time), warmup: warmup}
}

// Observe records that stream's frame was fully delivered at t.
func (it *IntervalTracker) Observe(stream int, t sim.Time) {
	if t < it.warmup {
		return
	}
	if last, ok := it.last[stream]; ok {
		it.samples.Add(sim.Time(t - last).Milliseconds())
	}
	it.last[stream] = t
}

// Intervals exposes the pooled interval accumulator (milliseconds).
func (it *IntervalTracker) Intervals() *Welford { return &it.samples }

// MeanMs returns d in milliseconds.
func (it *IntervalTracker) MeanMs() float64 { return it.samples.Mean() }

// StdDevMs returns σd in milliseconds.
func (it *IntervalTracker) StdDevMs() float64 { return it.samples.StdDev() }

// Streams returns how many distinct streams have delivered at least one
// post-warmup frame.
func (it *IntervalTracker) Streams() int { return len(it.last) }

// BestEffort accumulates best-effort message latency (µs) and the
// injected/delivered counts that drive saturation detection (Table 2's
// "Sat." entries). Latency samples before warmup are discarded.
type BestEffort struct {
	warmup    sim.Time //mw:snapcover — constructor input, re-derived from the embedded config on restore
	latency   Welford
	injected  uint64
	delivered uint64
}

// NewBestEffort returns a tracker that ignores pre-warmup samples.
func NewBestEffort(warmup sim.Time) *BestEffort {
	return &BestEffort{warmup: warmup}
}

// Injected counts one message entering a source queue at time t.
func (b *BestEffort) Injected(t sim.Time) {
	if t >= b.warmup {
		b.injected++
	}
}

// Delivered records a message injected at inj and fully delivered at t.
func (b *BestEffort) Delivered(inj, t sim.Time) {
	if inj < b.warmup {
		return
	}
	b.delivered++
	b.latency.Add(sim.Time(t - inj).Microseconds())
}

// Latency exposes the latency accumulator (µs).
func (b *BestEffort) Latency() *Welford { return &b.latency }

// MeanLatencyUs returns the mean best-effort latency in microseconds.
func (b *BestEffort) MeanLatencyUs() float64 { return b.latency.Mean() }

// Counts returns post-warmup injected and delivered message counts.
func (b *BestEffort) Counts() (injected, delivered uint64) {
	return b.injected, b.delivered
}

// Saturated decides Table 2's "Sat." condition from a best-effort backlog
// snapshot — BestEffort.Counts at the instant generation stopped. A stable
// queue holds only a few in-flight messages then, while an unstable one has
// accumulated a backlog that grew throughout the window: above 5% of the
// injections and above 50 messages. With no injections it is false.
func Saturated(injected, delivered uint64) bool {
	if injected == 0 {
		return false
	}
	backlog := float64(injected) - float64(delivered)
	return backlog > 0.05*float64(injected) && backlog > 50
}
