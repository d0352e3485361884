package experiments_test

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"mediaworm/internal/experiments"
)

// TestFiguresGolden pins the printed tables of every figure the paper
// reproduction and its extensions draw from series sweeps, together with
// Tables 1–3 and Fig. 9(c), at a fidelity small enough for tier-1. The
// smoke grids, the bounds and fault sweeps and the shifting-mix experiment
// are pinned by their own goldens. Regenerate deliberately with -update.
func TestFiguresGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	opt := experiments.Options{Scale: 0.02, WarmupIntervals: 1, MeasureIntervals: 2, Seed: 1}
	var got bytes.Buffer
	figure := func(run func(experiments.Options) (*experiments.Figure, error)) *experiments.Figure {
		t.Helper()
		fig, err := run(opt)
		if err != nil {
			t.Fatal(err)
		}
		fig.Fprint(&got)
		return fig
	}

	experiments.Table1(&got)
	figure(experiments.Fig3)
	figure(experiments.Fig4)
	fig5, tab2, err := experiments.Fig5Table2(opt)
	if err != nil {
		t.Fatal(err)
	}
	fig5.Fprint(&got)
	tab2.Fprint(&got)
	figure(experiments.Fig6)
	figure(experiments.Fig7)
	figure(experiments.Fig8)
	experiments.RunTable3(opt).Fprint(&got)
	experiments.Fig9BestEffort(figure(experiments.Fig9), &got)
	for _, run := range []func(experiments.Options) (*experiments.Figure, error){
		experiments.AblationAllocator,
		experiments.AblationEndpointVCs,
		experiments.AblationSourcePolicy,
		experiments.AblationScheduler,
		experiments.SchedZoo,
		experiments.ExtGoP,
		experiments.ExtTetrahedral,
		experiments.ScaleSweep,
	} {
		figure(run)
	}
	if bytes.Contains(got.Bytes(), []byte("NaN")) {
		t.Fatalf("a figure printed NaN:\n%s", got.Bytes())
	}

	golden := filepath.Join("testdata", "figures.txt")
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
		t.Errorf("figure tables drifted from golden; rerun with -update if intended\ngot:\n%s\nwant:\n%s",
			got.Bytes(), want)
	}
}
