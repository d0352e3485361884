// Command mwbench is the simulator's benchmark. It runs one pinned workload
// generated from a seed, times set-up and untraced runs, checks every run's
// Result, and prints as its last line of output one JSON object holding
// the end-to-end metrics, or with --trace 1 the per-layer metrics of a
// traced run. Build and run it from the repository root with
//
//	bash _mwbench/run.sh --workload switch8 --seed 1 --seconds 25 --trace 0
//
// BENCHMARK.json lists the workloads and metrics; README.md in this
// directory says what each measures and which layer should move which.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// report is the result line. Its keys are fixed by the benchmark format
// BENCHMARK.json belongs to.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	name := flag.String("workload", "", "workload to run: "+strings.Join(names, ", "))
	seed := flag.Uint64("seed", 1, "seed the workload's inputs are generated from")
	secs := flag.Float64("seconds", 10, "host seconds of untraced repetitions to time")
	trace := flag.Int("trace", 0, "0 prints the end-to-end metrics, 1 the per-layer metrics")
	flag.Parse()
	w, err := findWorkload(*name)
	if err == nil && (*trace < 0 || *trace > 1 || *secs < 0) {
		err = errors.New("--trace must be 0 or 1 and --seconds non-negative")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "mwbench:", err)
		flag.Usage()
		os.Exit(2)
	}
	// One simulation goroutine, and at most two Ps so the heap watcher and
	// the collector get a CPU beside it. The collector's settings are pinned
	// so the environment cannot move the memory metrics.
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))
	debug.SetGCPercent(100)
	debug.SetMemoryLimit(math.MaxInt64)

	m := measure(w.config(*seed), time.Duration(*secs*float64(time.Second)))
	rep := report{Correct: m.failed == 0, Attempted: m.attempted, Failed: m.failed, Metrics: map[string]metric{}}
	if rep.Correct {
		if *trace == 1 {
			rep.Metrics = m.perLayer()
		} else {
			rep.Metrics = m.endToEnd()
		}
	}
	out := json.NewEncoder(os.Stdout)
	for _, v := range []any{
		map[string]any{"host": describeHost(".")},
		map[string]any{"workload": w.name, "seed": *seed, "model_digest": m.digest,
			"untraced_run_s": m.runS, "traced_run_s": m.tracedS, "setup_reps": len(m.setupS)},
		rep,
	} {
		if err := out.Encode(v); err != nil {
			fmt.Fprintln(os.Stderr, "mwbench: writing result:", err)
			os.Exit(1)
		}
	}
}
