package network

import (
	"fmt"
	"strings"

	"mediaworm/internal/core"
	"mediaworm/internal/flit"
	"mediaworm/internal/obs"
	"mediaworm/internal/sim"
)

// The progress watchdog detects wormhole deadlock and livelock: the fabric
// holds flits, yet no flit has moved for a configured number of cycles. On a
// trip it snapshots every blocked worm, chains them through the link map
// into a wait-for cycle, and either stops the cycle driver (so the run
// returns with a report instead of hanging) or — in recovery mode — kills
// one victim message in the cycle so the remaining worms drain and the NI
// retransmission layer can resend the victim.

// DeadlockReport describes one watchdog trip.
type DeadlockReport struct {
	// At is the cycle instant the watchdog tripped; IdleCycles how long the
	// fabric had been motionless.
	At         sim.Time
	IdleCycles int
	// Blocked is every worm waiting on a switching resource at the trip.
	Blocked []core.Blocked
	// Cycle is the wait-for cycle among them, in dependency order. It is
	// empty for livelock/stall trips whose wait chains terminate at a
	// faulted resource (a dead or stalled link) rather than looping.
	Cycle []core.Blocked
	// Victim is the ID of the message killed to break the cycle (0 when
	// the watchdog is not in recovery mode or no cycle was found).
	Victim uint64
}

// String renders the report with the blocked-VC cycle, for error messages
// and logs.
func (d *DeadlockReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "deadlock watchdog tripped at t=%d after %d idle cycles: %d blocked worms",
		d.At, d.IdleCycles, len(d.Blocked))
	if len(d.Cycle) == 0 {
		b.WriteString("; no wait-for cycle (chains end at a faulted resource)")
	} else {
		b.WriteString("; cycle:")
		for _, e := range d.Cycle {
			fmt.Fprintf(&b, " [msg %d at router %d in(%d,%d) → out(%d,%d)]",
				e.Msg.ID, e.Router, e.InPort, e.InVC, e.OutPort, e.OutVC)
		}
	}
	if d.Victim != 0 {
		fmt.Fprintf(&b, "; killed msg %d to recover", d.Victim)
	}
	return b.String()
}

// SetWatchdog arms the progress watchdog: after idleCycles cycles with work
// in flight but no flit motion, the fabric records a DeadlockReport instead
// of ticking forever. With recover true it also kills the youngest message
// in the detected wait-for cycle and keeps running; otherwise the cycle
// driver stops (Wake restarts it if a fault is later lifted). idleCycles 0
// disarms the watchdog.
func (f *Fabric) SetWatchdog(idleCycles int, recover bool) {
	if idleCycles < 0 {
		panic("network: negative watchdog limit")
	}
	f.watchdogLimit = idleCycles
	f.watchdogRecover = recover
	f.idleTicks = 0
}

// motion is the fabric-wide progress counter: any flit switched,
// transmitted, injected, or reaped counts as forward progress. It runs
// every cycle while the watchdog is armed, so it reads each router's
// O(ports) Progress, not its Stats.
func (f *Fabric) motion() uint64 {
	var total uint64
	for _, r := range f.Routers {
		total += r.Progress()
	}
	for _, ni := range f.NIs {
		total += ni.Sent + ni.Dropped
	}
	return total
}

// watchdogTrip advances the idle counter and, at the limit, records a report.
// It returns true when the cycle driver should stop rescheduling.
func (f *Fabric) watchdogTrip(now sim.Time) bool {
	m := f.motion()
	if m != f.lastMotion {
		f.lastMotion = m
		f.idleTicks = 0
		return false
	}
	f.idleTicks++
	if f.idleTicks < f.watchdogLimit {
		return false
	}
	report := f.buildDeadlockReport(now)
	f.idleTicks = 0
	f.Deadlocks++
	if f.Deadlock == nil {
		f.Deadlock = report
	}
	if f.OnDeadlock != nil {
		f.OnDeadlock(report)
	}
	if f.trc != nil {
		defer func() {
			f.trc.Emit(obs.Event{At: now, Kind: obs.EvDeadlock,
				Router: -1, Port: -1, VC: -1,
				Msg: report.Victim, Arg: int64(len(report.Blocked))})
		}()
	}
	if f.watchdogRecover && len(report.Cycle) > 0 {
		// Break the cycle: kill the youngest message in it (highest ID —
		// deterministic, and the one with the least sunk cost). The dead
		// worm unravels over the next cycles, which is motion, so the
		// driver keeps ticking.
		victim := report.Cycle[0].Msg
		for _, e := range report.Cycle[1:] {
			if e.Msg.ID > victim.ID {
				victim = e.Msg
			}
		}
		f.Kill(victim)
		report.Victim = victim.ID
		f.DeadlocksBroken++
		return false
	}
	// Stop the driver: the run returns (with work still accounted) instead
	// of ticking forever. A later injection or Wake resumes it.
	return true
}

// buildDeadlockReport snapshots the blocked worms and extracts a wait-for
// cycle by following each worm's blocking resource: a granted worm waits on
// the downstream input VC its output feeds; an ungranted worm waits on the
// holder of the output VC it needs.
func (f *Fabric) buildDeadlockReport(now sim.Time) *DeadlockReport {
	report := &DeadlockReport{At: now, IdleCycles: f.watchdogLimit}
	// Collect blocked worms with their owning router, indexed two ways:
	// by (router, input port, input VC) and by (router, message).
	type node struct {
		r *core.Router
		b core.Blocked
	}
	var nodes []node
	byVC := make(map[linkKey]map[int]int)                 // (router, inPort) → inVC → node index
	byMsg := make(map[*core.Router]map[*flit.Message]int) // router → head message → node index
	for _, r := range f.Routers {
		for _, b := range r.BlockedWorms() {
			idx := len(nodes)
			nodes = append(nodes, node{r, b})
			report.Blocked = append(report.Blocked, b)
			k := linkKey{r, b.InPort}
			if byVC[k] == nil {
				byVC[k] = make(map[int]int)
			}
			byVC[k][b.InVC] = idx
			if byMsg[r] == nil {
				byMsg[r] = make(map[*flit.Message]int)
			}
			byMsg[r][b.Msg] = idx
		}
	}
	succ := func(i int) int {
		n := nodes[i]
		if n.b.OutVC >= 0 {
			// Granted: waiting for space in the downstream input VC.
			dst, ok := f.links[linkKey{n.r, n.b.OutPort}]
			if !ok {
				return -1 // endpoint port: chain ends at the sink
			}
			if vcs, ok := byVC[dst]; ok {
				if j, ok := vcs[n.b.OutVC]; ok {
					return j
				}
			}
			return -1
		}
		// Ungranted: waiting for the holder of an output VC, which is a
		// worm parked at this same router.
		if n.b.Holder == nil {
			return -1
		}
		if j, ok := byMsg[n.r][n.b.Holder]; ok {
			return j
		}
		return -1
	}
	// Functional-graph cycle detection over at most one successor per node.
	const (
		unvisited = 0
		inStack   = 1
		done      = 2
	)
	state := make([]int8, len(nodes))
	for start := range nodes {
		if state[start] != unvisited {
			continue
		}
		var stack []int
		i := start
		for i >= 0 && state[i] == unvisited {
			state[i] = inStack
			stack = append(stack, i)
			i = succ(i)
		}
		if i >= 0 && state[i] == inStack {
			// Found a cycle: emit it starting from i.
			at := 0
			for stack[at] != i {
				at++
			}
			for _, j := range stack[at:] {
				report.Cycle = append(report.Cycle, nodes[j].b)
			}
			for _, j := range stack {
				state[j] = done
			}
			return report
		}
		for _, j := range stack {
			state[j] = done
		}
	}
	return report
}
