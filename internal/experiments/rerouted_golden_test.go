package experiments_test

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"testing"

	"mediaworm/internal/experiments"
)

// TestBoundsFaultsDynPartGolden pins the printed reports of the three
// experiments that observe or steer a run from outside it: the bounds smoke
// grid, the fault sweep's closed admission loop, and the shifting-mix
// repartitioning. At these options every faulted rate sees link failures,
// the certifiable bounds cells certify, and both mix phases deliver
// best-effort traffic after warmup, so each report carries real numbers.
// Regenerate deliberately with -update.
func TestBoundsFaultsDynPartGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	opt := experiments.Options{Scale: 0.05, WarmupIntervals: 1, MeasureIntervals: 4, Seed: 1}
	var got bytes.Buffer

	bounds, err := experiments.BoundsSmoke(opt)
	if err != nil {
		t.Fatal(err)
	}
	bounds.Fprint(&got)

	faults, err := experiments.FaultSweep(opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range faults.Points {
		if p.FaultsPerLink > 0 && p.LinkDowns == 0 {
			t.Fatalf("rate %v: no link failed; the point does not exercise the admission loop", p.FaultsPerLink)
		}
	}
	faults.Fprint(&got)

	dyn, err := experiments.ExtDynamicPartition(opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range dyn {
		if math.IsNaN(r.Phase1BEUs) || math.IsNaN(r.Phase2BEUs) {
			t.Fatalf("%s: a phase delivered no best-effort traffic after warmup: %+v", r.Variant, r)
		}
	}
	experiments.FprintDynPart(dyn, &got)

	golden := filepath.Join("testdata", "bounds_faults_dynpart.txt")
	if *updateGolden {
		if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden (regenerate with -update): %v", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("bounds/fault/dynpart reports drifted from golden; rerun with -update if intended\ngot:\n%s\nwant:\n%s",
			got.Bytes(), want)
	}
}
