package sim

import "testing"

// These tests are the PR's zero-allocation contract, checked with
// testing.AllocsPerRun rather than benchmarks so `go test` enforces them on
// every run. "Steady state" means after warm-up: the arena and heap have
// grown to working-set size and every schedule is served from the free list.
// Callbacks are created outside the measured functions — a closure literal
// inside the loop would charge its own allocation to the engine.

// warmEngine returns an engine whose arena and heap have capacity for at
// least n simultaneously pending events, with the calendar empty.
func warmEngine(n int) *Engine {
	e := NewEngine()
	fn := func() {}
	for i := 0; i < n; i++ {
		e.At(Time(i), fn)
	}
	e.Drain()
	return e
}

// TestAtZeroAllocSteadyState schedules a batch with At and drains it, for
// two shapes of batch: events spread over a few instants, and
// BenchmarkEngineFanOut's burst of same-instant events, the pattern of
// frame-boundary fan-out.
func TestAtZeroAllocSteadyState(t *testing.T) {
	fn := func() {}
	for _, tc := range []struct {
		name  string
		batch int
		at    func(i int) Time // the i-th event's offset from Now
	}{
		{"spread", 64, func(i int) Time { return Time(i % 7) }},
		{"burst", 128, func(int) Time { return 1 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := warmEngine(tc.batch)
			allocs := testing.AllocsPerRun(100, func() {
				for i := 0; i < tc.batch; i++ {
					e.At(e.Now()+tc.at(i), fn)
				}
				e.Drain()
			})
			if allocs != 0 {
				t.Fatalf("At+Run steady state allocates %v per run, want 0", allocs)
			}
		})
	}
}

func TestAfterZeroAllocSteadyState(t *testing.T) {
	const batch = 64
	e := warmEngine(batch)
	fn := func() {}
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < batch; i++ {
			e.After(Time(i%7), fn)
		}
		e.Drain()
	})
	if allocs != 0 {
		t.Fatalf("After+Run steady state allocates %v per run, want 0", allocs)
	}
}

func TestCancelZeroAllocSteadyState(t *testing.T) {
	const batch = 64
	e := warmEngine(batch)
	fn := func() {}
	var evs [batch]Event
	allocs := testing.AllocsPerRun(100, func() {
		for i := range evs {
			evs[i] = e.After(Time(i), fn)
		}
		for i := range evs {
			e.Cancel(evs[i])
		}
	})
	if allocs != 0 {
		t.Fatalf("After+Cancel steady state allocates %v per run, want 0", allocs)
	}
}

// TestRescheduleZeroAllocSteadyState pins the self-rescheduling tick pattern
// used by the fabric cycle driver, the PCS lane ticks and the traffic
// sources: one event armed once, then re-armed from inside its own callback
// every cycle. The whole loop — pop, callback, Reschedule, sift — must not
// allocate.
func TestRescheduleZeroAllocSteadyState(t *testing.T) {
	e := NewEngine()
	var (
		ev   Event
		n    int
		tick func()
	)
	tick = func() {
		if n--; n > 0 {
			ev = e.Reschedule(ev, e.Now()+1)
		}
	}
	// Warm up one full arm/run cycle so the arena slot exists.
	n = 8
	ev = e.At(e.Now()+1, tick)
	e.Drain()
	allocs := testing.AllocsPerRun(100, func() {
		n = 64
		ev = e.At(e.Now()+1, tick)
		e.Drain()
	})
	if allocs != 0 {
		t.Fatalf("self-rescheduling tick allocates %v per run, want 0", allocs)
	}
}

// TestRescheduleOfPendingZeroAlloc covers the other Reschedule arm: moving a
// still-pending event (the retransmitter re-arming a delivery timer).
func TestRescheduleOfPendingZeroAlloc(t *testing.T) {
	e := warmEngine(4)
	fn := func() {}
	ev := e.At(e.Now()+1000000, fn)
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 64; i++ {
			ev = e.Reschedule(ev, e.Now()+1000000+Time(i%13))
		}
	})
	if allocs != 0 {
		t.Fatalf("Reschedule of pending event allocates %v per run, want 0", allocs)
	}
	e.Cancel(ev)
}

// TestDeepCalendarZeroAlloc runs the tick pattern with 10k unrelated events
// pending, so every push and pop sifts through a deep heap: depth must not
// reintroduce allocations.
func TestDeepCalendarZeroAlloc(t *testing.T) {
	e := NewEngine()
	fn := func() {}
	const depth = 10000
	far := Time(1) << 40
	for i := 0; i < depth; i++ {
		e.At(far+Time(i), fn)
	}
	var (
		ev   Event
		n    int
		tick func()
	)
	tick = func() {
		if n--; n > 0 {
			ev = e.Reschedule(ev, e.Now()+1)
		}
	}
	n = 8
	ev = e.At(e.Now()+1, tick)
	e.Run(e.Now() + 8)
	allocs := testing.AllocsPerRun(50, func() {
		n = 64
		ev = e.At(e.Now()+1, tick)
		e.Run(e.Now() + 64)
	})
	if allocs != 0 {
		t.Fatalf("deep-calendar tick allocates %v per run, want 0", allocs)
	}
	if e.Pending() != depth {
		t.Fatalf("background events disturbed: %d pending, want %d", e.Pending(), depth)
	}
}

// --- benchmarks -----------------------------------------------------------

// BenchmarkEngineReschedule measures the steady-state self-rescheduling tick,
// the single hottest engine pattern in a simulation run.
func BenchmarkEngineReschedule(b *testing.B) {
	e := NewEngine()
	var (
		ev   Event
		n    int
		tick func()
	)
	tick = func() {
		if n++; n < b.N {
			ev = e.Reschedule(ev, e.Now()+1)
		}
	}
	ev = e.At(0, tick)
	b.ReportAllocs()
	b.ResetTimer()
	e.Drain()
}

// BenchmarkEngineDeepCalendar is the tick pattern with 10k pending background
// events, exercising sift depth — the case the 4-ary layout targets.
func BenchmarkEngineDeepCalendar(b *testing.B) {
	e := NewEngine()
	fn := func() {}
	far := Time(1) << 40
	for i := 0; i < 10000; i++ {
		e.At(far+Time(i), fn)
	}
	var (
		ev   Event
		n    int
		tick func()
	)
	tick = func() {
		if n++; n < b.N {
			ev = e.Reschedule(ev, e.Now()+1)
		}
	}
	ev = e.At(0, tick)
	b.ReportAllocs()
	b.ResetTimer()
	e.Run(far - 1)
}

// BenchmarkEngineScheduleCancel measures the timer-churn pattern (arm, then
// cancel before firing), dominated by heapRemove from arbitrary positions.
func BenchmarkEngineScheduleCancel(b *testing.B) {
	e := warmEngine(256)
	fn := func() {}
	var evs [256]Event
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i % len(evs)
		if evs[j].Scheduled() {
			e.Cancel(evs[j])
		}
		evs[j] = e.After(Time(1+i%97), fn)
	}
}

// BenchmarkEngineFanOut measures bursts of same-instant events: many pushes
// at one key followed by a drain, the pattern of frame-boundary fan-out.
func BenchmarkEngineFanOut(b *testing.B) {
	e := warmEngine(128)
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		at := e.Now() + 1
		for j := 0; j < 128; j++ {
			e.At(at, fn)
		}
		e.Drain()
	}
}
