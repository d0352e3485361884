package main

import (
	"time"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// paperFrameMs is the paper's frame interval. Jitter is reported on its
// time base whatever the workload's scale, as the experiment harness does.
const paperFrameMs = 33.0

// ratio is a/b, or 0 when b is 0, so an idle counter never yields NaN.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// flitHops counts the link traversals of the run: Σ VCCounters.Transmitted
// in the traced run's final snapshot, the same deterministic execution as
// every untraced repetition.
func (m *measurement) flitHops() float64 {
	snaps := m.traced.Trace.Snapshots
	var hops uint64
	for _, c := range snaps[len(snaps)-1].PerVC {
		hops += c.Transmitted
	}
	return float64(hops)
}

// endToEnd returns the metrics a user of the simulator sees: the host cost
// of the untraced repetitions (medians) and the QoS outcome the model
// reports that stays steady from seed to seed.
func (m *measurement) endToEnd() map[string]metric {
	hops := m.flitHops()
	return map[string]metric{
		"flit_hops_per_s":      {ratio(hops, median(m.runS)), "hops/s"},
		"setup_s":              {median(m.setupS), "s"},
		"peak_heap_mb":         {median(m.peakMB), "MB"},
		"allocs_per_flit_hop":  {ratio(median(m.mallocs), hops), "allocs/hop"},
		"playout_ontime_ratio": {1 - m.result.Playout.MissRate, "ratio"},
	}
}

// perLayer returns the traced run's per-layer counts, the host shares of
// its CPU profile, and the standalone arbiter and checkpoint timings.
func (m *measurement) perLayer() map[string]metric {
	c := m.traced.Trace
	last := c.Snapshots[len(c.Snapshots)-1]
	var switched, hops, grants, grantWait, blocks uint64
	for _, v := range last.PerVC {
		switched += v.Switched
		hops += v.Transmitted
		grants += v.Grants
		grantWait += v.GrantWait
		blocks += v.Blocks
	}
	var injected, ejected uint64
	for _, p := range last.PerPort {
		injected += p.Injected
		ejected += p.Ejected
	}
	ports, calendarPeak := 0, 0
	for _, r := range c.Routers {
		ports += r.Ports
	}
	for _, s := range c.Snapshots {
		calendarPeak = max(calendarPeak, s.Engine.MaxPending)
	}
	cycles := float64(m.tracedNow) / float64(m.cfg.CyclePeriod())
	frameMs := float64(m.cfg.FrameInterval) / float64(time.Millisecond)
	hostNsPerHop := ratio(m.tracedS*1e9, float64(hops))
	// Without policing or faults no message is dropped, and Finish's drain
	// check proves every emitted frame was reassembled.
	delivered := 1.0
	if m.result.Policing.Enabled {
		delivered = m.result.Policing.DeliveredFrameRatio
	}
	out := map[string]metric{
		"core.flits_switched":          {float64(switched), "count"},
		"core.switch_util":             {ratio(float64(switched), float64(ports)*cycles), "ratio"},
		"core.vc_grants":               {float64(grants), "count"},
		"core.grant_wait_ns":           {ratio(float64(grantWait), float64(grants)), "ns"},
		"core.blocks":                  {float64(blocks), "count"},
		"core.host_ns_per_flit_hop":    {m.shares["core"] * hostNsPerHop, "ns"},
		"sched.pick_ns":                {m.pickNs, "ns"},
		"network.flit_hops":            {float64(hops), "count"},
		"network.msgs_injected":        {float64(injected), "count"},
		"network.msgs_ejected":         {float64(ejected), "count"},
		"network.host_ns_per_flit_hop": {m.shares["network"] * hostNsPerHop, "ns"},
		"sim.events":                   {float64(last.Engine.Processed), "count"},
		"sim.calendar_peak":            {float64(calendarPeak), "count"},
		"traffic.streams":              {float64(m.result.Streams), "count"},
		"stats.frame_intervals":        {float64(m.result.FrameIntervals), "count"},
		"stats.rt_jitter_ms":           {m.result.StdDevDeliveryIntervalMs * paperFrameMs / frameMs, "ms"},
		"stats.be_latency_us":          {m.result.BestEffort.MeanLatencyUs, "us"},
		"police.drops":                 {float64(m.result.Policing.Drops), "count"},
		"police.meter_exceed":          {float64(m.result.Policing.MeterExceed), "count"},
		"police.frame_delivery_ratio":  {delivered, "ratio"},
		"runtime.gc_cycles":            {float64(m.gcCycles), "count"},
		"runtime.gc_pause_ms":          {m.gcPauseS * 1e3, "ms"},
		"snapshot.encode_s":            {m.encodeS, "s"},
		"snapshot.restore_s":           {m.restoreS, "s"},
		"snapshot.bytes":               {float64(m.snapBytes), "bytes"},
		"obs.trace_overhead":           {ratio(m.tracedS, median(m.runS)), "ratio"},
		"obs.events_total":             {float64(c.TotalEvents), "count"},
		"obs.events_dropped":           {float64(c.DroppedEvents), "count"},
	}
	for _, l := range layers {
		out[l+".host_share"] = metric{m.shares[l], "ratio"}
	}
	return out
}
