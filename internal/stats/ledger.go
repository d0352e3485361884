package stats

// FrameLedger reconciles video frames emitted at the sources against frames
// fully delivered at the sinks. Under faults the two diverge — killed worms
// take partial frames with them — and the delivered-frame ratio is the
// headline resilience metric of the FaultSweep experiment.
type FrameLedger struct {
	emitted   uint64 //mw:snapcover — total; recomputed from perStream by RestoreState
	delivered uint64 //mw:snapcover — total; recomputed from perStream by RestoreState
	perStream map[int]*streamFrames
}

type streamFrames struct {
	emitted   uint64
	delivered uint64
}

// NewFrameLedger creates an empty ledger.
func NewFrameLedger() *FrameLedger {
	return &FrameLedger{perStream: make(map[int]*streamFrames)}
}

func (l *FrameLedger) stream(id int) *streamFrames {
	s := l.perStream[id]
	if s == nil {
		s = &streamFrames{}
		l.perStream[id] = s
	}
	return s
}

// Emitted records that a source handed a complete frame to the network.
func (l *FrameLedger) Emitted(stream int) {
	l.emitted++
	l.stream(stream).emitted++
}

// Delivered records that a sink reassembled a complete frame.
func (l *FrameLedger) Delivered(stream int) {
	l.delivered++
	l.stream(stream).delivered++
}

// Counts returns total frames emitted and delivered.
func (l *FrameLedger) Counts() (emitted, delivered uint64) {
	return l.emitted, l.delivered
}

// Ratio returns delivered/emitted (1 when nothing was emitted).
func (l *FrameLedger) Ratio() float64 {
	if l.emitted == 0 {
		return 1
	}
	return float64(l.delivered) / float64(l.emitted)
}

// Streams returns the number of streams that emitted at least one frame.
func (l *FrameLedger) Streams() int { return len(l.perStream) }
