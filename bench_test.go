package mediaworm_test

import (
	"fmt"
	"io"
	"runtime"
	"testing"

	"mediaworm"
	"mediaworm/internal/experiments"
)

// Benchmarks regenerate each of the paper's tables and figures at a reduced
// video time-base (see Options.Scale); cmd/paperfigs runs the same code at
// higher fidelity. One benchmark per table/figure, as per DESIGN.md §6.
//
// Run them all with:
//
//	go test -bench=. -benchmem
func benchOpt() experiments.Options {
	return experiments.Options{Scale: 0.05, WarmupIntervals: 2, MeasureIntervals: 5, Seed: 1}
}

func BenchmarkFig3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := experiments.Fig3(benchOpt())
		if err != nil {
			b.Fatal(err)
		}
		fig.Fprint(io.Discard)
	}
}

func BenchmarkFig4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := experiments.Fig4(benchOpt())
		if err != nil {
			b.Fatal(err)
		}
		fig.Fprint(io.Discard)
	}
}

func BenchmarkFig5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, _, err := experiments.Fig5Table2(benchOpt())
		if err != nil {
			b.Fatal(err)
		}
		fig.Fprint(io.Discard)
	}
}

func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, tab, err := experiments.Fig5Table2(benchOpt())
		if err != nil {
			b.Fatal(err)
		}
		tab.Fprint(io.Discard)
	}
}

func BenchmarkFig6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := experiments.Fig6(benchOpt())
		if err != nil {
			b.Fatal(err)
		}
		fig.Fprint(io.Discard)
	}
}

func BenchmarkFig7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := experiments.Fig7(benchOpt())
		if err != nil {
			b.Fatal(err)
		}
		fig.Fprint(io.Discard)
	}
}

func BenchmarkFig8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := experiments.Fig8(benchOpt())
		if err != nil {
			b.Fatal(err)
		}
		fig.Fprint(io.Discard)
	}
}

func BenchmarkTable3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.RunTable3(benchOpt()).Fprint(io.Discard)
	}
}

func BenchmarkFig9(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := experiments.Fig9(benchOpt())
		if err != nil {
			b.Fatal(err)
		}
		fig.Fprint(io.Discard)
		experiments.Fig9BestEffort(fig, io.Discard)
	}
}

// BenchmarkSweepSerialVsParallel measures the worker-pool speedup on the
// Fig. 3 sweep (10 independent simulation points) at widths 1/2/4/8,
// reporting throughput as points/sec. Output is byte-identical at every
// width — only wall clock changes — and the speedup ceiling is GOMAXPROCS:
// on a single-core runner every width degenerates to serial throughput.
func BenchmarkSweepSerialVsParallel(b *testing.B) {
	points := 2 * len(experiments.Fig3Loads) // policies × loads
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			opt := benchOpt()
			opt.Parallel = workers
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				fig, err := experiments.Fig3(opt)
				if err != nil {
					b.Fatal(err)
				}
				fig.Fprint(io.Discard)
			}
			b.ReportMetric(float64(points*b.N)/b.Elapsed().Seconds(), "points/sec")
		})
	}
}

// TestSingleRunAllocCeiling holds one simulation point, the unit every
// figure sweep is built from, to an allocation ceiling: the paper's switch
// at the sweeps' reduced time base, 2 warm-up and 5 measured frame
// intervals. A per-flit or per-event allocation would add hundreds of
// thousands of allocations per run. The limits sit 25% above one run's
// 59,216 allocations and 8,195,208 B on Go 1.24, plus 8 allocations and
// 1 KiB of slack, so a Go release whose runtime allocates a little
// differently still passes.
func TestSingleRunAllocCeiling(t *testing.T) {
	const maxAllocs, maxBytes = 74028, 10245034
	cfg := mediaworm.DefaultConfig().Scale(0.05)
	cfg.Warmup = 2 * cfg.FrameInterval
	cfg.Measure = 5 * cfg.FrameInterval
	var bytes uint64
	allocs := testing.AllocsPerRun(1, func() {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := mediaworm.Run(cfg); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		bytes = after.TotalAlloc - before.TotalAlloc
	})
	t.Logf("one run: %.0f allocations, %d B", allocs, bytes)
	if allocs > maxAllocs {
		t.Errorf("one run allocates %.0f objects, above the ceiling of %d", allocs, maxAllocs)
	}
	if bytes > maxBytes {
		t.Errorf("one run allocates %d B, above the ceiling of %d", bytes, maxBytes)
	}
}

// BenchmarkTraceOverhead compares one simulation point with tracing
// disabled (the default; instrumentation reduces to nil-pointer checks)
// against the same point with the full observability subsystem armed.
// The disabled variant is the tracer's <5%-overhead contract surface;
// run with -benchmem to see the disabled path add zero allocations.
func BenchmarkTraceOverhead(b *testing.B) {
	base := mediaworm.DefaultConfig().Scale(0.05)
	base.RTShare = 0.8
	base.Warmup = 2 * base.FrameInterval
	base.Measure = 5 * base.FrameInterval
	for _, bc := range []struct {
		name  string
		trace mediaworm.TraceConfig
	}{
		{"disabled", mediaworm.TraceConfig{}},
		{"enabled", mediaworm.TraceConfig{Enabled: true}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			cfg := base
			cfg.Trace = bc.trace
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := mediaworm.Run(cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Ablation and extension benches (DESIGN.md §6 "ablation benches for the
// design choices DESIGN.md calls out").

func BenchmarkAblationAllocator(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := experiments.AblationAllocator(benchOpt())
		if err != nil {
			b.Fatal(err)
		}
		fig.Fprint(io.Discard)
	}
}

func BenchmarkAblationEndpointVCs(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := experiments.AblationEndpointVCs(benchOpt())
		if err != nil {
			b.Fatal(err)
		}
		fig.Fprint(io.Discard)
	}
}

func BenchmarkAblationSourcePolicy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := experiments.AblationSourcePolicy(benchOpt())
		if err != nil {
			b.Fatal(err)
		}
		fig.Fprint(io.Discard)
	}
}

func BenchmarkAblationScheduler(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := experiments.AblationScheduler(benchOpt())
		if err != nil {
			b.Fatal(err)
		}
		fig.Fprint(io.Discard)
	}
}

func BenchmarkExtGoP(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := experiments.ExtGoP(benchOpt())
		if err != nil {
			b.Fatal(err)
		}
		fig.Fprint(io.Discard)
	}
}

func BenchmarkExtTetrahedral(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := experiments.ExtTetrahedral(benchOpt())
		if err != nil {
			b.Fatal(err)
		}
		fig.Fprint(io.Discard)
	}
}

func BenchmarkExtDynamicPartition(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.ExtDynamicPartition(benchOpt())
		if err != nil {
			b.Fatal(err)
		}
		experiments.FprintDynPart(res, io.Discard)
	}
}
