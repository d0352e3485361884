// Package pcs implements the pipelined-circuit-switched (PCS) router the
// paper compares MediaWorm against (§3.5, §5.6, Table 3).
//
// PCS is connection-oriented: before any data moves, a probe reserves one
// dedicated virtual channel on every link of the (deterministic, minimal,
// non-backtracking) path. With no adaptivity, a probe that lands on a busy
// VC is NACKed and the connection is dropped — drops happen only at stream
// setup. Established streams inject flit groups at the stream rate and each
// link's bandwidth is scheduled by Virtual Clock using the connection's
// negotiated Vtick (the connection-oriented form of the algorithm, with
// persistent per-connection clocks — unlike MediaWorm, where each message
// acts as a transient connection).
//
// The model is a single n-port switch, as in the paper's Fig. 8/Table 3
// setup: contention occurs on the source injection link and on the output
// link; the switch adds a fixed pipeline latency in between.
package pcs

import (
	"fmt"

	"mediaworm/internal/flit"
	"mediaworm/internal/rng"
	"mediaworm/internal/sched"
	"mediaworm/internal/sim"
)

// Config parameterizes a PCS switch.
type Config struct {
	// Ports and VCs mirror the paper's 8×8 switch with 24 VCs per physical
	// channel at 100 Mbps.
	Ports, VCs int
	// Period is the flit cycle time (flit size / link bandwidth).
	Period sim.Time
	// PipeLatency is the switch traversal latency in cycles.
	PipeLatency int
}

func (c *Config) validate() error {
	switch {
	case c.Ports <= 0, c.VCs <= 0, c.Period <= 0, c.PipeLatency < 0:
		return fmt.Errorf("pcs: invalid config %+v", *c)
	}
	return nil
}

// group is a burst of flits injected together (the paper's "logically
// grouped" frame flits).
type group struct {
	injected sim.Time
	flits    int
	sent     int
	// lastOfFrame marks the frame's final group; the frame is delivered
	// when this group's final flit reaches the sink.
	lastOfFrame bool
}

// pipeFlit is a flit inside or beyond the switch pipeline.
type pipeFlit struct {
	readyAt sim.Time // when it reaches the output link multiplexer
	ts      sim.Time // Virtual Clock stamp at the output link
	last    bool     // final flit of its frame
}

// flitQueue is an amortized O(1) FIFO of pipeFlits.
type flitQueue struct {
	buf  []pipeFlit
	head int
}

func (q *flitQueue) push(f pipeFlit) { q.buf = append(q.buf, f) }
func (q *flitQueue) empty() bool     { return q.head == len(q.buf) }
func (q *flitQueue) peek() pipeFlit  { return q.buf[q.head] }
func (q *flitQueue) pop() pipeFlit {
	f := q.buf[q.head]
	q.head++
	if q.head > 64 && q.head*2 >= len(q.buf) {
		n := copy(q.buf, q.buf[q.head:])
		q.buf = q.buf[:n]
		q.head = 0
	}
	return f
}

// Conn is an established PCS connection: one VC on the input link, one on
// the output link, and the stream's negotiated Vtick.
type Conn struct {
	ID          int
	Src, Dst    int
	InVC, OutVC int
	Vtick       sim.Time
	groups      []group
	ghead       int
	inClk       sched.VClock
	outClk      sched.VClock
	pendingTS   sim.Time
	havePending bool
	pipe        flitQueue
	// FlitsDelivered counts flits that reached the sink.
	FlitsDelivered uint64
}

func (c *Conn) groupsEmpty() bool { return c.ghead == len(c.groups) }

func (c *Conn) popGroupIfDone() {
	g := &c.groups[c.ghead]
	if g.sent == g.flits {
		c.ghead++
		if c.ghead > 64 && c.ghead*2 >= len(c.groups) {
			n := copy(c.groups, c.groups[c.ghead:])
			c.groups = c.groups[:n]
			c.ghead = 0
		}
	}
}

// Switch is a single PCS switch plus its endpoint links.
type Switch struct {
	cfg     Config
	eng     *sim.Engine
	inBusy  [][]*Conn // [port][vc] connection holding the input-link VC
	outBusy [][]*Conn
	// byIn and byOut list established connections per port for the link
	// multiplexers.
	byIn  [][]*Conn
	byOut [][]*Conn

	// OnFrame is called when a connection's frame is fully delivered.
	OnFrame func(connID int, t sim.Time)

	work     int64
	tickerOn bool
	lastTick sim.Time
	tickFn   func()
	tickEv   sim.Event // live tick event, rearmed in place via Reschedule

	// Attempts / Established / Dropped count connection setup outcomes.
	Attempts, Established, Dropped int
}

// NewSwitch builds an empty PCS switch.
func NewSwitch(eng *sim.Engine, cfg Config) (*Switch, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	s := &Switch{cfg: cfg, eng: eng, lastTick: -1}
	s.inBusy = make([][]*Conn, cfg.Ports)
	s.outBusy = make([][]*Conn, cfg.Ports)
	s.byIn = make([][]*Conn, cfg.Ports)
	s.byOut = make([][]*Conn, cfg.Ports)
	for p := 0; p < cfg.Ports; p++ {
		s.inBusy[p] = make([]*Conn, cfg.VCs)
		s.outBusy[p] = make([]*Conn, cfg.VCs)
	}
	s.tickFn = s.tick
	return s, nil
}

// Config returns the switch configuration.
func (s *Switch) Config() Config { return s.cfg }

// SelectMode chooses how a probe picks virtual channels.
type SelectMode uint8

const (
	// RandomVC draws the input and output VC uniformly at random and drops
	// the connection if either is busy — the blind, non-backtracking probe
	// that reproduces Table 3's high drop rates (see DESIGN.md §7).
	RandomVC SelectMode = iota
	// SearchVC takes the lowest free VC on each side, dropping only when a
	// side is exhausted. Used to provision target loads for Fig. 8.
	SearchVC
)

// Establish attempts to set up src→dst. It returns the connection, or nil
// if the probe was dropped. vtick is the stream's negotiated rate.
func (s *Switch) Establish(src, dst int, vtick sim.Time, mode SelectMode, rnd *rng.Source) *Conn {
	s.Attempts++
	var in, out int
	switch mode {
	case RandomVC:
		in = rnd.Intn(s.cfg.VCs)
		out = rnd.Intn(s.cfg.VCs)
		if s.inBusy[src][in] != nil || s.outBusy[dst][out] != nil {
			s.Dropped++
			return nil
		}
	case SearchVC:
		in, out = -1, -1
		for v := 0; v < s.cfg.VCs; v++ {
			if in < 0 && s.inBusy[src][v] == nil {
				in = v
			}
			if out < 0 && s.outBusy[dst][v] == nil {
				out = v
			}
		}
		if in < 0 || out < 0 {
			s.Dropped++
			return nil
		}
	default:
		panic("pcs: unknown select mode")
	}
	c := &Conn{ID: s.Established, Src: src, Dst: dst, InVC: in, OutVC: out, Vtick: vtick}
	s.inBusy[src][in] = c
	s.outBusy[dst][out] = c
	s.byIn[src] = append(s.byIn[src], c)
	s.byOut[dst] = append(s.byOut[dst], c)
	s.Established++
	return c
}

// InjectGroup queues a flit group on an established circuit at the current
// instant.
func (s *Switch) InjectGroup(c *Conn, flits int, lastOfFrame bool) {
	if flits <= 0 {
		panic("pcs: empty group")
	}
	c.groups = append(c.groups, group{injected: s.eng.Now(), flits: flits, lastOfFrame: lastOfFrame})
	s.work += int64(flits)
	s.wake()
}

func (s *Switch) wake() {
	if s.tickerOn {
		return
	}
	s.tickerOn = true
	now := s.eng.Now()
	next := now - now%s.cfg.Period
	if next < now || s.lastTick == next {
		next += s.cfg.Period
	}
	s.tickEv = s.eng.At(next, s.tickFn)
}

// tick advances one cycle: each input link forwards one flit into the
// pipeline (Virtual Clock across that port's connections), then each output
// link delivers one ready flit (Virtual Clock again).
func (s *Switch) tick() {
	now := s.eng.Now()
	s.lastTick = now
	pipeDelay := sim.Time(s.cfg.PipeLatency) * s.cfg.Period
	for p := 0; p < s.cfg.Ports; p++ {
		// Input link multiplexer.
		var best *Conn
		for _, c := range s.byIn[p] {
			if c.groupsEmpty() {
				continue
			}
			if !c.havePending {
				g := &c.groups[c.ghead]
				c.pendingTS = c.inClk.Stamp(g.injected, c.Vtick)
				c.havePending = true
			}
			if best == nil || c.pendingTS < best.pendingTS {
				best = c
			}
		}
		if best != nil {
			g := &best.groups[best.ghead]
			readyAt := now + pipeDelay
			outTS := best.outClk.Stamp(readyAt, best.Vtick)
			g.sent++
			last := g.lastOfFrame && g.sent == g.flits
			best.pipe.push(pipeFlit{readyAt: readyAt, ts: outTS, last: last})
			best.havePending = false
			best.popGroupIfDone()
		}
	}
	for p := 0; p < s.cfg.Ports; p++ {
		// Output link multiplexer.
		var best *Conn
		var bestTS sim.Time
		for _, c := range s.byOut[p] {
			if c.pipe.empty() {
				continue
			}
			head := c.pipe.peek()
			if head.readyAt >= now {
				continue
			}
			if best == nil || head.ts < bestTS {
				best, bestTS = c, head.ts
			}
		}
		if best != nil {
			f := best.pipe.pop()
			best.FlitsDelivered++
			s.work--
			if f.last && s.OnFrame != nil {
				s.OnFrame(best.ID, now+s.cfg.Period)
			}
		}
	}
	if s.work > 0 {
		s.tickEv = s.eng.Reschedule(s.tickEv, now+s.cfg.Period)
	} else {
		s.tickerOn = false
	}
}

// Work returns the number of flits inside the switch.
func (s *Switch) Work() int64 { return s.work }

// AdmissionResult summarizes a Table 3-style connection admission run.
type AdmissionResult struct {
	TargetLoad  float64
	Attempts    int
	Established int
	Dropped     int
}

// SimulateAdmission reproduces Table 3: connection requests arrive one at a
// time (source uniform, destination uniform excluding the source) and are
// admitted per mode until the established connections carry targetLoad of
// the aggregate link bandwidth or the attempt budget (capFactor × target
// count) is exhausted. connsPerLink is the per-port stream capacity
// (25 four-Mbps streams on a 100 Mbps link). Established connections
// persist, as in the paper's fill-up run.
func SimulateAdmission(ports, vcs int, connsPerLink, targetLoad float64, mode SelectMode, capFactor int, rnd *rng.Source) AdmissionResult {
	target := int(targetLoad * connsPerLink * float64(ports))
	if target < 0 {
		target = 0
	}
	eng := sim.NewEngine()
	sw, err := NewSwitch(eng, Config{Ports: ports, VCs: vcs, Period: 1, PipeLatency: 1})
	if err != nil {
		panic(err)
	}
	budget := capFactor * target
	for sw.Established < target && sw.Attempts < budget {
		src := rnd.Intn(ports)
		dst := rnd.Intn(ports - 1)
		if dst >= src {
			dst++
		}
		sw.Establish(src, dst, 1, mode, rnd)
	}
	return AdmissionResult{
		TargetLoad:  targetLoad,
		Attempts:    sw.Attempts,
		Established: sw.Established,
		Dropped:     sw.Dropped,
	}
}

// ProvisionLoad establishes (with SearchVC) enough 4 Mbps-style connections
// to carry load on every input link, destinations uniform, and returns them.
// Used by the Fig. 8 data-plane comparison.
func (s *Switch) ProvisionLoad(load, connsPerLink float64, vtick sim.Time, rnd *rng.Source) []*Conn {
	perPort := int(load*connsPerLink + 0.5)
	var out []*Conn
	for p := 0; p < s.cfg.Ports; p++ {
		for i := 0; i < perPort; i++ {
			// Retry destinations until a free output VC is found; SearchVC
			// only fails when the port is exhausted.
			var c *Conn
			for try := 0; try < 4*s.cfg.Ports && c == nil; try++ {
				dst := rnd.Intn(s.cfg.Ports - 1)
				if dst >= p {
					dst++
				}
				c = s.Establish(p, dst, vtick, SearchVC, rnd)
			}
			if c != nil {
				out = append(out, c)
			}
		}
	}
	return out
}

// VBRSource drives MPEG-2-like frames over an established circuit:
// frame flits are segmented into groups injected evenly across the
// inter-frame interval (§4.2.1's PCS variant).
type VBRSource struct {
	sw   *Switch
	conn *Conn
	rnd  *rng.Source

	FrameBytes   float64
	FrameBytesSD float64
	Interval     sim.Time
	GroupFlits   int
	FlitBits     int
	Stop         sim.Time
}

// StartVBR begins frame generation at start.
func StartVBR(sw *Switch, conn *Conn, src *VBRSource, start sim.Time) *VBRSource {
	src.sw = sw
	src.conn = conn
	sw.eng.At(start, src.emit)
	return src
}

func (v *VBRSource) emit() {
	now := v.sw.eng.Now()
	if now >= v.Stop {
		return
	}
	bytes := v.FrameBytes
	if v.FrameBytesSD > 0 {
		bytes = v.rnd.Normal(v.FrameBytes, v.FrameBytesSD)
	}
	if bytes < float64(v.FlitBits)/8 {
		bytes = float64(v.FlitBits) / 8
	}
	flits := flit.FlitsForBytes(int(bytes), v.FlitBits)
	groups := (flits + v.GroupFlits - 1) / v.GroupFlits
	spacing := sim.Time(int64(v.Interval) / int64(groups))
	remaining := flits
	for k := 0; k < groups; k++ {
		n := v.GroupFlits
		if n > remaining {
			n = remaining
		}
		remaining -= n
		last := k == groups-1
		size := n
		v.sw.eng.At(now+sim.Time(k)*spacing, func() {
			v.sw.InjectGroup(v.conn, size, last)
		})
	}
	v.sw.eng.At(now+v.Interval, v.emit)
}

// SetRand assigns the randomness source (split from the workload seed).
func (v *VBRSource) SetRand(r *rng.Source) { v.rnd = r }
