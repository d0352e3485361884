package mediaworm

import (
	"bytes"
	"runtime"
	"testing"

	"mediaworm/internal/topology"
)

// scale16Cfg is the datacenter-scale smoke configuration: a 16×16 torus at
// the paper's concentration (4 endpoints per router → 1024 endpoints) with
// a heavily scaled-down video time base so the run stays short. At this
// size the fabric carries well over ten thousand concurrent streams.
func scale16Cfg() Config {
	cfg := DefaultConfig().Scale(0.02)
	cfg.Topology = "torus16x16"
	cfg.Load = 0.15
	cfg.RTShare = 0.8
	cfg.Warmup = cfg.FrameInterval
	cfg.Measure = 4 * cfg.FrameInterval
	return cfg
}

// TestScale16x16TorusBuildBudget builds the 16×16 torus and holds the
// struct-of-arrays layout to a bytes-per-router budget: router input/output
// VC state, flit buffers, NI/sink state and per-stream workload state are
// slab allocations, so construction cost per router must stay bounded even
// as the fabric grows 64× beyond the paper's four switches. CI runs this
// under GOMEMLIMIT so a layout regression shows up as an OOM long before
// the assertion would.
func TestScale16x16TorusBuildBudget(t *testing.T) {
	cfg := scale16Cfg()
	spec, err := topology.ParseSpec(string(cfg.Topology))
	if err != nil {
		t.Fatal(err)
	}
	routers := spec.Routers()
	if routers != 256 {
		t.Fatalf("torus16x16 has %d routers, want 256", routers)
	}

	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	s, err := NewSim(cfg)
	if err != nil {
		t.Fatalf("NewSim: %v", err)
	}
	runtime.GC()
	var after runtime.MemStats
	runtime.ReadMemStats(&after)

	if got := len(s.wl.Streams); got < 10000 {
		t.Errorf("fabric carries %d concurrent streams, want ≥ 10000", got)
	}
	heap := after.HeapAlloc - before.HeapAlloc
	perRouter := heap / uint64(routers)
	t.Logf("heap %d B for %d routers and %d streams → %d B/router",
		heap, routers, len(s.wl.Streams), perRouter)
	// Budget: the current layout builds at ~160 KiB/router (router slabs +
	// 4 NIs/sinks + ~48 streams per router); 512 KiB leaves headroom for
	// allocator noise without letting a per-VC or per-stream map creep in.
	if perRouter > 512<<10 {
		t.Errorf("construction cost %d B/router exceeds the 512 KiB budget", perRouter)
	}
	runtime.KeepAlive(s)
}

// TestScale16x16TorusReplayIdentical runs the 16×16 torus for a short
// deterministic window, checkpoints, and requires (a) a second same-seed
// run to produce a byte-identical checkpoint and (b) a restore followed by
// an immediate re-checkpoint to reproduce the bytes again — the
// determinism contract at 64× the paper's fabric size.
func TestScale16x16TorusReplayIdentical(t *testing.T) {
	cfg := scale16Cfg()
	// Half a frame interval is enough simulated time for thousands of worms
	// to be in flight across the torus while keeping the test cheap enough
	// for the race-instrumented CI suite.
	at := cfg.FrameInterval / 2
	snap := func() []byte {
		s, err := NewSim(cfg)
		if err != nil {
			t.Fatalf("NewSim: %v", err)
		}
		s.RunTo(at)
		if waitingHeaders(s) == 0 {
			t.Fatal("no header waits for an output VC at the checkpoint instant")
		}
		var buf bytes.Buffer
		if err := s.WriteCheckpoint(&buf); err != nil {
			t.Fatalf("WriteCheckpoint: %v", err)
		}
		return buf.Bytes()
	}
	a, b := snap(), snap()
	if !bytes.Equal(a, b) {
		t.Fatalf("same-seed 16×16 torus replay diverged (%d vs %d checkpoint bytes)", len(a), len(b))
	}
	restored, err := RestoreSim(bytes.NewReader(a))
	if err != nil {
		t.Fatalf("RestoreSim: %v", err)
	}
	var again bytes.Buffer
	if err := restored.WriteCheckpoint(&again); err != nil {
		t.Fatalf("re-checkpoint after restore: %v", err)
	}
	if !bytes.Equal(a, again.Bytes()) {
		t.Fatalf("restore → re-checkpoint not byte-identical (%d vs %d bytes)", len(a), len(again.Bytes()))
	}
}
