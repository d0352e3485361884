package core

// portSet is a set of a router's ports, one bit per port: port p is bit
// p%64 of word p/64, so two words cover the 127 ports a router may have.
// The port summaries, the retry flags and the stage-4 claim maps are port
// sets, and a stage walks one word by word, in ascending port order.
type portSet [2]uint64

func (s *portSet) add(p int)      { s[p>>6] |= 1 << (uint(p) & 63) }
func (s *portSet) has(p int) bool { return s[p>>6]&(1<<(uint(p)&63)) != 0 }

// set puts p in s when in is true and takes it out otherwise.
func (s *portSet) set(p int, in bool) {
	bit := uint64(1) << (uint(p) & 63)
	if in {
		s[p>>6] |= bit
	} else {
		s[p>>6] &^= bit
	}
}

// below returns the ports of s numbered below p, for p in [0, 128].
func (s portSet) below(p int) portSet {
	if p < 64 {
		return portSet{s[0] & (1<<uint(p) - 1), 0}
	}
	return portSet{s[0], s[1] & (1<<uint(p-64) - 1)}
}

// andNot returns the ports of s that are not in t.
func (s portSet) andNot(t portSet) portSet { return portSet{s[0] &^ t[0], s[1] &^ t[1]} }

// rotate returns s rotated so that port p is bit (p-start) mod 128 of the
// result. Walking the result in ascending bit order visits s's ports from
// start upward and then those below start, the stage-4 allocator's
// rotation; bit b of the result is port (b+start) mod 128.
func (s portSet) rotate(start int) portSet {
	lo, hi := s[0], s[1]
	if start >= 64 {
		lo, hi = hi, lo
		start -= 64
	}
	k := uint(start)
	return portSet{lo>>k | hi<<(64-k), hi>>k | lo<<(64-k)}
}
