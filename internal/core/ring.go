package core

import "mediaworm/internal/flit"

// ring is a fixed-capacity FIFO of flits. Virtual-channel buffers and output
// staging buffers are rings so the steady-state simulation allocates nothing
// per flit.
type ring struct {
	buf  []flit.Flit
	head int
	n    int
}

// ringOver builds a ring over a caller-supplied buffer — an arena slab
// carve, so a fabric's worth of VC buffers is one allocation.
func ringOver(buf []flit.Flit) ring {
	if len(buf) == 0 {
		panic("core: ring capacity must be positive")
	}
	return ring{buf: buf}
}

func (r *ring) len() int    { return r.n }
func (r *ring) space() int  { return len(r.buf) - r.n }
func (r *ring) empty() bool { return r.n == 0 }

func (r *ring) push(f flit.Flit) {
	if r.n == len(r.buf) {
		panic("core: ring overflow (credit protocol violated)")
	}
	i := r.head + r.n // < 2·len: wrap with one subtraction, not a division
	if i >= len(r.buf) {
		i -= len(r.buf)
	}
	r.buf[i] = f
	r.n++
}

func (r *ring) peek() flit.Flit {
	if r.n == 0 {
		panic("core: peek on empty ring")
	}
	return r.buf[r.head]
}

func (r *ring) pop() flit.Flit {
	f := r.peek()
	r.buf[r.head] = flit.Flit{} // release the *Message reference
	if r.head++; r.head == len(r.buf) {
		r.head = 0
	}
	r.n--
	return f
}
