package core

import (
	"testing"

	"mediaworm/internal/flit"
)

func TestRingFIFO(t *testing.T) {
	r := ringOver(make([]flit.Flit, 3))
	msgs := []*flit.Message{{ID: 1}, {ID: 2}, {ID: 3}}
	for i, m := range msgs {
		r.push(flit.Flit{Msg: m, Seq: i})
	}
	if r.space() != 0 || r.len() != 3 {
		t.Fatalf("space %d len %d", r.space(), r.len())
	}
	for i, m := range msgs {
		f := r.pop()
		if f.Msg != m || f.Seq != i {
			t.Fatalf("pop %d returned %+v", i, f)
		}
	}
	if !r.empty() {
		t.Fatal("ring not empty after draining")
	}
}

func TestRingWraparound(t *testing.T) {
	r := ringOver(make([]flit.Flit, 2))
	m := &flit.Message{}
	for i := 0; i < 100; i++ {
		r.push(flit.Flit{Msg: m, Seq: i})
		if i > 0 {
			if f := r.pop(); f.Seq != i-1 {
				t.Fatalf("wraparound broke FIFO at %d: got %d", i, f.Seq)
			}
		}
	}
}

func TestRingOverflowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("overflow did not panic")
		}
	}()
	r := ringOver(make([]flit.Flit, 1))
	r.push(flit.Flit{})
	r.push(flit.Flit{})
}

func TestRingPeekEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("peek on empty did not panic")
		}
	}()
	r := ringOver(make([]flit.Flit, 1))
	r.peek()
}

func TestRingZeroCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero capacity did not panic")
		}
	}()
	ringOver(nil)
}

func TestRingPopReleasesMessage(t *testing.T) {
	r := ringOver(make([]flit.Flit, 1))
	r.push(flit.Flit{Msg: &flit.Message{}})
	r.pop()
	if r.buf[0].Msg != nil {
		t.Fatal("pop retained the message pointer")
	}
}
