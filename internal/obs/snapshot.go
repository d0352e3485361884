package obs

import "mediaworm/internal/snapshot"

// Checkpoint support for the counter blocks, which the routers own and
// write in their sections. Blocks is written although only traced runs,
// which refuse checkpoints, count it, so a block restores whole.

// fields lists the block's counters in wire order.
func (c *VCCounters) fields() []*uint64 {
	return []*uint64{&c.Switched, &c.Transmitted, &c.Grants, &c.GrantWait, &c.Blocks, &c.VCTicks}
}

// EncodeState writes the block.
func (c *VCCounters) EncodeState(w *snapshot.Writer) { encodeFields(w, c.fields()) }

// RestoreState reads the block EncodeState wrote.
func (c *VCCounters) RestoreState(r *snapshot.Reader) { restoreFields(r, c.fields()) }

// fields lists the block's counters in wire order.
func (c *PortCounters) fields() []*uint64 {
	return []*uint64{&c.Injected, &c.Ejected, &c.Dropped, &c.Killed, &c.Retransmits, &c.Faults, &c.PoliceDrops}
}

// EncodeState writes the block.
func (c *PortCounters) EncodeState(w *snapshot.Writer) { encodeFields(w, c.fields()) }

// RestoreState reads the block EncodeState wrote.
func (c *PortCounters) RestoreState(r *snapshot.Reader) { restoreFields(r, c.fields()) }

func encodeFields(w *snapshot.Writer, fs []*uint64) {
	for _, f := range fs {
		w.U64(*f)
	}
}

func restoreFields(r *snapshot.Reader, fs []*uint64) {
	for _, f := range fs {
		*f = r.U64()
	}
}
