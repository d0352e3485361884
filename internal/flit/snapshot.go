package flit

import (
	"fmt"
	"sort"

	"mediaworm/internal/snapshot"
)

// MsgTable maps between message pointers and their IDs for checkpointing.
// A live message is referenced from many places at once — input-VC rings,
// output staging buffers, NI queues, pending injections, and the
// recv/head/busy registers that track worm progress — and those references
// compare pointers for identity. The table serializes each message exactly
// once and lets every holder encode a reference as the message ID, so a
// restore rebuilds the same shared-pointer graph.
type MsgTable struct {
	byID map[uint64]*Message
	ids  []uint64 // insertion order; sorted on demand by IDs
	err  error
}

// NewMsgTable returns an empty table.
func NewMsgTable() *MsgTable {
	return &MsgTable{byID: make(map[uint64]*Message)}
}

// Add registers a message for encoding. nil is a no-op. Two distinct
// messages sharing an ID mean the in-memory model is corrupt; the conflict
// is latched and reported by Err.
func (t *MsgTable) Add(m *Message) {
	if m == nil {
		return
	}
	if prev, ok := t.byID[m.ID]; ok {
		if prev != m && t.err == nil {
			t.err = fmt.Errorf("flit: two live messages share ID %d", m.ID)
		}
		return
	}
	t.byID[m.ID] = m
	t.ids = append(t.ids, m.ID)
}

// Err reports an ID conflict detected by Add, if any.
func (t *MsgTable) Err() error { return t.err }

// Ref returns the wire reference for m: its ID, or 0 for nil. Message IDs
// are assigned from a counter that pre-increments before first use, so ID 0
// is never a real message.
func (t *MsgTable) Ref(m *Message) uint64 {
	if m == nil {
		return 0
	}
	if _, ok := t.byID[m.ID]; !ok && t.err == nil {
		t.err = fmt.Errorf("flit: reference to uncollected message %d", m.ID)
	}
	return m.ID
}

// Get resolves a wire reference during decode: 0 yields nil; an unknown ID
// yields an error.
func (t *MsgTable) Get(id uint64) (*Message, error) {
	if id == 0 {
		return nil, nil
	}
	m, ok := t.byID[id]
	if !ok {
		return nil, &snapshot.InvariantError{
			Invariant: "message-reference",
			Detail:    fmt.Sprintf("reference to message %d not in snapshot table", id),
		}
	}
	return m, nil
}

// AnyDead reports whether any registered message has been killed.
func (t *MsgTable) AnyDead() bool {
	for _, id := range t.ids {
		if t.byID[id].Dead {
			return true
		}
	}
	return false
}

// Len reports the number of registered messages.
func (t *MsgTable) Len() int { return len(t.ids) }

// Encode writes every registered message, ordered by ID so the byte stream
// is independent of collection order.
func (t *MsgTable) Encode(w *snapshot.Writer) error {
	if t.err != nil {
		return t.err
	}
	sort.Slice(t.ids, func(i, j int) bool { return t.ids[i] < t.ids[j] })
	w.Int(len(t.ids))
	for _, id := range t.ids {
		m := t.byID[id]
		w.U64(m.ID)
		w.Int(m.StreamID)
		w.U8(uint8(m.Class))
		w.Int(m.FrameSeq)
		w.Int(m.MsgSeq)
		w.Int(m.MsgsInFrame)
		w.Int(m.Flits)
		w.Time(m.Vtick)
		w.Int(m.Src)
		w.Int(m.Dst)
		w.Int(m.DstVC)
		w.Time(m.Injected)
		w.Int(m.Attempt)
		w.Bool(m.Dead)
	}
	return nil
}

// DecodeMsgTable reads an encoded table, materializing one Message per
// entry; all decoded references then resolve to these shared pointers.
func DecodeMsgTable(r *snapshot.Reader) (*MsgTable, error) {
	t := NewMsgTable()
	n := r.Len()
	for i := 0; i < n; i++ {
		m := &Message{
			ID:          r.U64(),
			StreamID:    r.Int(),
			Class:       Class(r.U8()),
			FrameSeq:    r.Int(),
			MsgSeq:      r.Int(),
			MsgsInFrame: r.Int(),
			Flits:       r.Int(),
			Vtick:       r.Time(),
			Src:         r.Int(),
			Dst:         r.Int(),
			DstVC:       r.Int(),
			Injected:    r.Time(),
			Attempt:     r.Int(),
			Dead:        r.Bool(),
		}
		if err := r.Err(); err != nil {
			return nil, err
		}
		if m.ID == 0 || m.Flits < 1 {
			return nil, &snapshot.InvariantError{
				Invariant: "message-record",
				Detail:    fmt.Sprintf("entry %d: id=%d flits=%d", i, m.ID, m.Flits),
			}
		}
		t.Add(m)
		if t.err != nil {
			return nil, t.err
		}
	}
	return t, nil
}

// EncodeFlit writes one buffered flit as (message ref, seq, TS, Enq).
func (t *MsgTable) EncodeFlit(w *snapshot.Writer, f Flit) {
	w.U64(t.Ref(f.Msg))
	w.Int(f.Seq)
	w.Time(f.TS)
	w.Time(f.Enq)
}

// DecodeFlit reads one buffered flit, resolving its message reference.
func (t *MsgTable) DecodeFlit(r *snapshot.Reader) (Flit, error) {
	ref := r.U64()
	f := Flit{Seq: r.Int(), TS: r.Time(), Enq: r.Time()}
	if err := r.Err(); err != nil {
		return Flit{}, err
	}
	m, err := t.Get(ref)
	if err != nil {
		return Flit{}, err
	}
	if m == nil {
		return Flit{}, &snapshot.InvariantError{Invariant: "flit-owner", Detail: "buffered flit with nil message"}
	}
	if f.Seq < 0 || f.Seq >= m.Flits {
		return Flit{}, &snapshot.InvariantError{
			Invariant: "flit-seq",
			Detail:    fmt.Sprintf("flit seq %d outside message %d's %d flits", f.Seq, m.ID, m.Flits),
		}
	}
	f.Msg = m
	return f, nil
}
