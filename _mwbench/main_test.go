package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"

	"mediaworm"
)

// named is a BENCHMARK.json entry: a workload, or a metric with its unit.
type named struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// tiny shrinks a workload to a 1.5-frame-interval window without warm-up:
// every code path and check runs, in a fraction of the benchmark's time.
func tiny(cfg mediaworm.Config) mediaworm.Config {
	cfg.Warmup = 0
	cfg.Measure = 3 * cfg.FrameInterval / 2
	return cfg
}

// measureTiny runs the benchmark once, without timed repetitions beyond the
// first, on the tiny version of workload w.
func measureTiny(t *testing.T, w workload) *measurement {
	t.Helper()
	m := measure(tiny(w.config(1)), 0)
	if m.failed != 0 {
		t.Fatalf("%s: %d of %d runs failed", w.name, m.failed, m.attempted)
	}
	return m
}

func TestNamesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []named `json:"workloads"`
		EndToEnd  []named `json:"end_to_end"`
		PerLayer  []named `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark runs %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json says %q, the benchmark runs %q", i, spec.Workloads[i].Name, w.name)
		}
	}
	m := measureTiny(t, workloads[0])
	checkNames(t, "end_to_end", spec.EndToEnd, m.endToEnd())
	checkNames(t, "per_layer", spec.PerLayer, m.perLayer())
}

func checkNames(t *testing.T, section string, want []named, got map[string]metric) {
	t.Helper()
	if len(want) != len(got) {
		t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark prints %d", section, len(want), len(got))
	}
	for _, w := range want {
		g, ok := got[w.Name]
		switch {
		case !ok:
			t.Errorf("%s: %q is in BENCHMARK.json but not printed", section, w.Name)
		case g.Unit != w.Unit:
			t.Errorf("%s: %q printed in %q, BENCHMARK.json says %q", section, w.Name, g.Unit, w.Unit)
		case math.IsNaN(g.Value) || math.IsInf(g.Value, 0):
			t.Errorf("%s: %q = %v", section, w.Name, g.Value)
		}
	}
}

// TestWorkloadsPassOutputChecks runs every workload through all three
// output checks — Finish succeeds, the traced run's Result equals the
// untraced one, a mid-window checkpoint round trip equals both — and shows
// the comparison rejects a Result that differs.
func TestWorkloadsPassOutputChecks(t *testing.T) {
	for _, w := range workloads {
		m := measureTiny(t, w)
		if m.attempted != 3 {
			t.Errorf("%s: %d runs attempted, want untraced + traced + checkpoint", w.name, m.attempted)
		}
		bad := m.result
		bad.FlitsDelivered++
		if m.check("mutated Result", bad) {
			t.Errorf("%s: check accepted a Result that differs", w.name)
		}
	}
}

func TestHostSharesSumToOne(t *testing.T) {
	m := measureTiny(t, workloads[0])
	var sum float64
	for _, l := range layers {
		sum += m.shares[l]
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("host shares sum to %v, want 1", sum)
	}
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"mediaworm/internal/core.(*Router).Step":                   "core",
		"mediaworm/internal/sched.(*vcArbiter).Pick":               "sched",
		"mediaworm/internal/sched/conformance.Run":                 "sched",
		"mediaworm/internal/topology.Build":                        "other",
		"mediaworm.(*Sim).Finish":                                  "other",
		"runtime.mallocgc":                                         "runtime",
		"internal/runtime/atomic.(*Uint32).Load":                   "runtime",
		"slices.SortFunc[go.shape.[]mediaworm/internal/flit.Flit]": "other",
		"sort.Slice": "other",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}
