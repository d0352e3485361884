package experiments

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"mediaworm"
)

// miniSweep is a scaled-down Fig3: two policies over two loads, small
// enough for CI but exercising the full stack (traffic synthesis, router
// pipeline, schedulers, stats) whose determinism the mwlint analyzers
// guard statically. It returns both the full-precision point values and
// the rendered table.
func miniSweep(t *testing.T, opt Options) (string, string) {
	t.Helper()
	fig := &Figure{ID: "mini", Title: "determinism probe", XLabel: "load"}
	for _, policy := range []mediaworm.Policy{mediaworm.VirtualClock, mediaworm.FIFO} {
		s := Series{Label: string(policy)}
		for _, load := range []float64{0.5, 0.9} {
			cfg := baseConfig(opt)
			cfg.Policy = policy
			cfg.Load = load
			cfg.RTShare = 0.8
			pts, err := runGrid(opt, []mediaworm.Config{cfg})
			if err != nil {
				t.Fatalf("%s load %v: %v", policy, load, err)
			}
			s.Points = append(s.Points, pts[0])
		}
		fig.Series = append(fig.Series, s)
	}
	var rendered bytes.Buffer
	fig.Fprint(&rendered)
	return fmt.Sprintf("%+v", fig), rendered.String()
}

// TestFigureSweepDeterminism is the runtime complement of the static
// analyzers: two sweeps from the same seed must serialize byte-identically,
// down to full float precision. Map-order leaks, wall-clock reads, or a
// stray global RNG draw anywhere on the simulation path show up here as a
// diff.
func TestFigureSweepDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	opt := Options{
		Scale: 0.05, WarmupIntervals: 1, MeasureIntervals: 4, Seed: 7,
		// Pin the progress clock so even the wall-clock side is identical.
		Clock: func() time.Time { return time.Unix(0, 0) },
	}
	full1, table1 := miniSweep(t, opt)
	full2, table2 := miniSweep(t, opt)
	if full1 != full2 {
		t.Errorf("same seed, different results:\nrun1: %s\nrun2: %s", full1, full2)
	}
	if !bytes.Equal([]byte(table1), []byte(table2)) {
		t.Errorf("rendered tables differ:\nrun1:\n%s\nrun2:\n%s", table1, table2)
	}
	// A different seed must actually change something, or the comparison
	// above is vacuous.
	opt.Seed = 8
	full3, _ := miniSweep(t, opt)
	if full1 == full3 {
		t.Errorf("seeds 7 and 8 produced identical sweeps; seed is not reaching the simulation")
	}
}
