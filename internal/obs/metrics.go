package obs

import (
	"math/bits"

	"mediaworm/internal/sim"
)

// VCCounters is the per-(router, port, VC) counter block, kept by the
// router in every run and copied by a tracer's snapshots. All counters
// are cumulative over the run, so interval deltas are a subtraction
// between consecutive snapshots.
type VCCounters struct {
	// Switched counts flits that crossed the crossbar from this input lane;
	// Transmitted counts flits sent on this output lane. (A lane is an
	// input VC for some events and an output VC for others — the counters
	// coexist in one block because ports are bidirectional.)
	Switched, Transmitted uint64
	// Grants counts output-VC allocations won by this output lane, and
	// GrantWait the summed request→grant wait in nanoseconds.
	Grants, GrantWait uint64
	// Blocks counts blocking spans opened on this input lane. Spans exist
	// only in traced runs, so it stays 0 in an untraced one.
	Blocks uint64
	// VCTicks counts Virtual Clock stamps assigned on this lane at the
	// source NI.
	VCTicks uint64
}

// PortCounters is the per-(router, port) counter block, kept beside the
// VC blocks.
type PortCounters struct {
	// Injected counts messages entering the attached NI; Ejected messages
	// delivered to the attached sink.
	Injected, Ejected uint64
	// Dropped counts flits reaped at this port; Killed messages killed
	// here, by the router on their first death or by the attached NI's
	// retransmission timeout; Retransmits end-to-end resends from the
	// attached NI; Faults injected fault transitions on this port's link.
	Dropped, Killed, Retransmits, Faults uint64
	// PoliceDrops counts real-time messages discarded by the attached NI's
	// meter→dropper chain before injection.
	PoliceDrops uint64
}

// EngineStats carries the event-calendar gauges sampled at a snapshot.
type EngineStats struct {
	// Processed is the cumulative count of executed engine events; Pending
	// the calendar depth at the snapshot; MaxPending the high-water depth
	// since the previous snapshot.
	Processed  uint64
	Pending    int
	MaxPending int
}

// histBuckets is the fixed bucket count of Hist: bucket i holds values v
// with bits.Len64(v) == i, i.e. log2-spaced boundaries 0, 1, 2, 4, … up to
// the full int64 range.
const histBuckets = 64

// Hist is a log-bucketed latency histogram over sim.Time values. Bucket i
// counts observations v with bits.Len64(uint64(v)) == i, so boundaries are
// powers of two in nanoseconds. Fixed-size and value-copyable: snapshots
// embed it directly.
type Hist struct {
	Counts   [histBuckets]uint64
	N        uint64
	Sum      int64
	Min, Max sim.Time
}

// Observe folds one value in. Negative values clamp to bucket 0.
func (h *Hist) Observe(v sim.Time) {
	b := 0
	if v > 0 {
		b = bits.Len64(uint64(v))
	}
	h.Counts[b]++
	if h.N == 0 || v < h.Min {
		h.Min = v
	}
	if h.N == 0 || v > h.Max {
		h.Max = v
	}
	h.N++
	h.Sum += int64(v)
}

// Mean returns the average observed value, or 0 when empty.
func (h *Hist) Mean() float64 {
	if h.N == 0 {
		return 0
	}
	return float64(h.Sum) / float64(h.N)
}

// Quantile returns an upper bound for the q-quantile (0 ≤ q ≤ 1): the
// upper boundary of the bucket holding the q·N-th observation, clamped to
// the observed Max. Log buckets make this exact to within 2×.
func (h *Hist) Quantile(q float64) sim.Time {
	if h.N == 0 {
		return 0
	}
	rank := uint64(q * float64(h.N))
	if rank >= h.N {
		rank = h.N - 1
	}
	var seen uint64
	for b, c := range h.Counts {
		seen += c
		if seen > rank {
			// Upper boundary of bucket b is 2^b - 1.
			hi := sim.Time(1)<<uint(b) - 1
			if hi > h.Max {
				hi = h.Max
			}
			if hi < h.Min {
				hi = h.Min
			}
			return hi
		}
	}
	return h.Max
}

// Snapshot is one point-in-time copy of the cumulative metrics.
type Snapshot struct {
	// At is the simulated instant of the snapshot.
	At sim.Time
	// Events and DroppedEvents are the trace totals at the snapshot.
	Events, DroppedEvents uint64
	// Engine carries the calendar gauges (zero when no engine registered).
	Engine EngineStats
	// PerVC and PerPort are copies of the dense counter blocks, in router
	// registration order (lay out with Capture.Routers).
	PerVC   []VCCounters
	PerPort []PortCounters
	// Latency holds the end-to-end message latency histograms indexed by
	// traffic class (CBR, VBR, BestEffort).
	Latency [3]Hist
}
