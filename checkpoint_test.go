package mediaworm

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"testing"
	"time"

	"mediaworm/internal/core"
	"mediaworm/internal/snapshot"
)

// ckptCfg returns a small, fast config exercising the checkpointed state.
func ckptCfg() Config {
	cfg := DefaultConfig().Scale(0.1)
	cfg.Measure = 8 * cfg.FrameInterval
	cfg.Warmup = 2 * cfg.FrameInterval
	cfg.Load = 0.7
	cfg.RTShare = 0.8 // mixed traffic: streams + best-effort
	return cfg
}

// resultString renders a Result for equality comparison. String formatting
// sidesteps reflect.DeepEqual's NaN ≠ NaN (jitter fields are NaN when a run
// observes fewer than two intervals).
func resultString(r Result) string { return fmt.Sprintf("%#v", r) }

// runInterrupted runs cfg to checkpointAt, checkpoints, restores into a
// fresh Sim, and finishes there; the golden property is that this produces
// the Result of the uninterrupted run. It also returns the checkpoint and
// the number of headers waiting for an output VC at its instant.
func runInterrupted(t *testing.T, cfg Config, checkpointAt time.Duration) (Result, []byte, int) {
	t.Helper()
	s, err := NewSim(cfg)
	if err != nil {
		t.Fatalf("NewSim: %v", err)
	}
	s.RunTo(checkpointAt)
	var buf bytes.Buffer
	if err := s.WriteCheckpoint(&buf); err != nil {
		t.Fatalf("WriteCheckpoint at %v: %v", checkpointAt, err)
	}
	waiting := waitingHeaders(s)
	restored, err := RestoreSim(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("RestoreSim: %v", err)
	}
	res, err := restored.Finish()
	if err != nil {
		t.Fatalf("Finish after restore: %v", err)
	}
	return res, buf.Bytes(), waiting
}

// waitingHeaders counts the headers waiting for an output VC across s's
// routers: the worms BlockedWorms reports without a granted VC. A
// checkpoint taken with some carries each output port's FCFS list.
func waitingHeaders(s *Sim) int {
	n := 0
	for _, r := range s.net.Routers {
		for _, b := range r.BlockedWorms() {
			if b.OutVC < 0 {
				n++
			}
		}
	}
	return n
}

// TestCheckpointRoundTripGolden is the tentpole proof: run to T/2,
// checkpoint, restore in a fresh Sim, run to T — and get exactly the result
// of the uninterrupted run, across policies, traffic classes, topologies,
// and VBR models.
func TestCheckpointRoundTripGolden(t *testing.T) {
	// These cases must checkpoint headers waiting for an output VC, so the
	// FCFS lists, and the fat-link choice that counts them, cross the
	// checkpoint.
	mustWait := map[string]bool{"fat-mesh-waiting": true}
	cases := []struct {
		name string
		mut  func(*Config)
	}{
		{"virtual-clock-mixed", func(c *Config) {}},
		{"fifo-baseline", func(c *Config) { c.Policy = FIFO }},
		{"round-robin", func(c *Config) { c.Policy = RoundRobin }},
		{"cbr", func(c *Config) { c.Class = CBR; c.FrameBytesSD = 0 }},
		{"gop-vbr", func(c *Config) { c.VBRModel = VBRGoP }},
		{"pure-realtime", func(c *Config) { c.RTShare = 1.0 }},
		{"no-playout", func(c *Config) { c.PlayoutBufferFrames = 0 }},
		{"fat-mesh", func(c *Config) { c.Topology = FatMesh2x2; c.Load = 0.5 }},
		// Saturated best effort keeps headers waiting for fat-mesh output
		// VCs; the short window keeps the case fast.
		{"fat-mesh-waiting", func(c *Config) {
			c.Topology = FatMesh2x2
			c.Load = 0.9
			c.RTShare = 0.6
			c.Measure = 4 * c.FrameInterval
		}},
		{"tetrahedral", func(c *Config) { c.Topology = Tetrahedral; c.Load = 0.5 }},
		// Generated fabrics carry 16 endpoints each, so their windows shrink
		// to keep the suite fast; the golden property is window-independent.
		{"generated-mesh", func(c *Config) {
			c.Topology = "mesh4x4c1"
			c.Load = 0.4
			c.Measure = 4 * c.FrameInterval
		}},
		{"torus-dateline", func(c *Config) {
			c.Topology = "torus4x4c1"
			c.Load = 0.4
			c.Measure = 4 * c.FrameInterval
		}},
		{"clos", func(c *Config) { c.Topology = "clos4x2"; c.Load = 0.4 }},
		{"source-policy-override", func(c *Config) { c.SourcePolicy = FIFO }},
		{"wrr-weighted", func(c *Config) {
			c.Policy = WRR
			c.Sched = SchedConfig{RTWeight: 3, BEWeight: 1}
		}},
		{"drr-weighted", func(c *Config) {
			c.Policy = DRR
			c.Sched = SchedConfig{RTWeight: 3, BEWeight: 1, Quantum: 2}
		}},
		{"wf2q", func(c *Config) {
			c.Policy = WF2Q
			c.Sched = SchedConfig{RTWeight: 2, BEWeight: 1}
		}},
		{"sp-wrr", func(c *Config) {
			c.Policy = SPWRR
			c.Sched = SchedConfig{RTWeight: 3, BEWeight: 1}
		}},
		{"policed", func(c *Config) { c.Policing.Enabled = true }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := ckptCfg()
			tc.mut(&cfg)
			want, err := Run(cfg)
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			got, _, waiting := runInterrupted(t, cfg, cfg.Warmup+cfg.Measure/2)
			if resultString(got) != resultString(want) {
				t.Errorf("restored run diverged\n got: %s\nwant: %s",
					resultString(got), resultString(want))
			}
			if mustWait[tc.name] && waiting == 0 {
				t.Error("no header waits for an output VC at the checkpoint instant")
			}
		})
	}
}

// TestCheckpointTorus8x8Golden is the scale proof for the checkpoint
// format: an 8×8 torus — 64 routers with dateline VC classes, all router
// and NI/sink state carved from the build-time arenas — checkpointed
// mid-run must restore and finish identical to the uninterrupted run, and
// the checkpoint bytes themselves must be deterministic across runs.
func TestCheckpointTorus8x8Golden(t *testing.T) {
	cfg := DefaultConfig().Scale(0.05)
	cfg.Topology = "torus8x8c1"
	cfg.Load = 0.4
	cfg.RTShare = 0.8
	cfg.Warmup = cfg.FrameInterval
	cfg.Measure = 4 * cfg.FrameInterval
	want, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	at := cfg.Warmup + cfg.Measure/2
	got, ckpt, waiting := runInterrupted(t, cfg, at)
	if resultString(got) != resultString(want) {
		t.Errorf("restored 8×8 torus run diverged\n got: %s\nwant: %s",
			resultString(got), resultString(want))
	}
	if waiting == 0 {
		t.Error("no header waits for an output VC at the checkpoint instant")
	}
	_, again, _ := runInterrupted(t, cfg, at)
	if !bytes.Equal(ckpt, again) {
		t.Errorf("two 8×8 torus checkpoints of the same instant differ (%d vs %d bytes)",
			len(ckpt), len(again))
	}
}

// TestCheckpointPolicedWeightedRun checkpoints mid-run with a weighted
// scheduler AND active policing: tight meter buckets force real drops
// before the checkpoint instant, so the serialized state must carry
// non-trivial token-bucket levels, WRED averages, dropper RNG positions and
// per-tier arbiter rotations for the continuation to replay byte-identically.
func TestCheckpointPolicedWeightedRun(t *testing.T) {
	cfg := ckptCfg()
	cfg.Policy = SPWRR
	cfg.Sched = SchedConfig{RTWeight: 3, BEWeight: 1}
	cfg.Load = 0.95
	cfg.Policing = PolicingConfig{Enabled: true, CBSFlits: 60, EBSFlits: 30}
	want, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if want.Policing.Drops == 0 || want.Policing.MeterViolate == 0 {
		t.Fatalf("test config too gentle: %d drops, %d violations — the checkpoint would not cover live policer state",
			want.Policing.Drops, want.Policing.MeterViolate)
	}
	if want.Policing.DeliveredFrameRatio >= 1 {
		t.Fatalf("drops recorded but delivered-frame ratio is %v", want.Policing.DeliveredFrameRatio)
	}
	got, _, _ := runInterrupted(t, cfg, cfg.Warmup+cfg.Measure/2)
	if resultString(got) != resultString(want) {
		t.Errorf("restored policed run diverged\n got: %s\nwant: %s",
			resultString(got), resultString(want))
	}
}

// TestCheckpointAtManyInstants checkpoints at several points through the
// run, including t=0 (nothing executed) and the exact end of the window.
func TestCheckpointAtManyInstants(t *testing.T) {
	cfg := ckptCfg()
	want, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	total := cfg.Warmup + cfg.Measure
	for _, frac := range []float64{0, 0.1, 0.33, 0.5, 0.9, 1.0} {
		at := time.Duration(float64(total) * frac)
		got, _, _ := runInterrupted(t, cfg, at)
		if resultString(got) != resultString(want) {
			t.Errorf("checkpoint at %v (%.0f%%): diverged\n got: %s\nwant: %s",
				at, frac*100, resultString(got), resultString(want))
		}
	}
}

// TestCheckpointDeterministicBytes requires the serialized state itself to
// be deterministic: same config, same instant → byte-identical checkpoint,
// and a restore followed by an immediate re-checkpoint reproduces the same
// bytes again.
func TestCheckpointDeterministicBytes(t *testing.T) {
	cfg := ckptCfg()
	at := cfg.Warmup + cfg.Measure/2
	snap := func() []byte {
		s, err := NewSim(cfg)
		if err != nil {
			t.Fatalf("NewSim: %v", err)
		}
		s.RunTo(at)
		var buf bytes.Buffer
		if err := s.WriteCheckpoint(&buf); err != nil {
			t.Fatalf("WriteCheckpoint: %v", err)
		}
		return buf.Bytes()
	}
	a, b := snap(), snap()
	if !bytes.Equal(a, b) {
		t.Fatalf("two checkpoints of the same state differ (%d vs %d bytes)", len(a), len(b))
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
		t.Fatalf("checkpoint not idempotent across restore (%d vs %d bytes)", len(a), len(again.Bytes()))
	}
}

// TestCheckpointCorruptionRejected flips, truncates, and re-versions a real
// checkpoint and requires each mutation to be rejected with the matching
// structured error — never a panic, never a silent partial restore.
func TestCheckpointCorruptionRejected(t *testing.T) {
	cfg := ckptCfg()
	s, err := NewSim(cfg)
	if err != nil {
		t.Fatalf("NewSim: %v", err)
	}
	s.RunTo(cfg.Warmup + cfg.Measure/2)
	var buf bytes.Buffer
	if err := s.WriteCheckpoint(&buf); err != nil {
		t.Fatalf("WriteCheckpoint: %v", err)
	}
	good := buf.Bytes()

	t.Run("flipped-bytes", func(t *testing.T) {
		for _, off := range []int{0, 9, 40, len(good) / 2, len(good) - 5, len(good) - 1} {
			bad := append([]byte(nil), good...)
			bad[off] ^= 0x40
			_, err := RestoreSim(bytes.NewReader(bad))
			var ce *snapshot.CorruptError
			if !errors.As(err, &ce) {
				t.Errorf("flip at %d: got %v, want CorruptError", off, err)
			}
		}
	})
	t.Run("truncation", func(t *testing.T) {
		for _, n := range []int{0, 5, 13, len(good) / 3, len(good) - 1} {
			_, err := RestoreSim(bytes.NewReader(good[:n]))
			var ce *snapshot.CorruptError
			if !errors.As(err, &ce) {
				t.Errorf("truncated to %d: got %v, want CorruptError", n, err)
			}
		}
	})
	t.Run("version-mismatch", func(t *testing.T) {
		// Patch the container version and re-seal the checksum, simulating a
		// checkpoint from the previous format and from a future encoder.
		for _, v := range []uint16{snapshot.Version - 1, snapshot.Version + 1} {
			bad := append([]byte(nil), good...)
			binary.LittleEndian.PutUint16(bad[8:], v)
			sum := crc32.Checksum(bad[:len(bad)-4], crc32.MakeTable(crc32.Castagnoli))
			binary.LittleEndian.PutUint32(bad[len(bad)-4:], sum)
			_, err := RestoreSim(bytes.NewReader(bad))
			var ve *snapshot.VersionError
			if !errors.As(err, &ve) {
				t.Fatalf("version %d: got %v, want VersionError", v, err)
			}
			if ve.Got != v || ve.Want != snapshot.Version {
				t.Fatalf("VersionError %+v", ve)
			}
		}
	})
	t.Run("garbage", func(t *testing.T) {
		_, err := RestoreSim(bytes.NewReader([]byte("definitely not a checkpoint file")))
		var ce *snapshot.CorruptError
		if !errors.As(err, &ce) {
			t.Fatalf("got %v, want CorruptError", err)
		}
	})
}

// TestCheckpointRefusesUncoveredFeatures pins the v1 scope gate: runs with
// fault injection or tracing enabled execute normally but refuse to
// checkpoint with NotSnapshottableError.
func TestCheckpointRefusesUncoveredFeatures(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Config)
	}{
		{"faults", func(c *Config) { c.Faults.FlitCorruptionProb = 1e-6 }},
		{"retransmit", func(c *Config) { c.Faults.Retransmit = true }},
		{"trace", func(c *Config) { c.Trace.Enabled = true }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := ckptCfg()
			tc.mut(&cfg)
			s, err := NewSim(cfg)
			if err != nil {
				t.Fatalf("NewSim: %v", err)
			}
			s.RunTo(cfg.Warmup)
			var buf bytes.Buffer
			err = s.WriteCheckpoint(&buf)
			var nse *snapshot.NotSnapshottableError
			if !errors.As(err, &nse) {
				t.Fatalf("got %v, want NotSnapshottableError", err)
			}
		})
	}
}

// TestCheckpointAfterFinishRefused pins that a drained simulation cannot be
// checkpointed (its generators are gone; resuming it would be meaningless).
func TestCheckpointAfterFinishRefused(t *testing.T) {
	s, err := NewSim(ckptCfg())
	if err != nil {
		t.Fatalf("NewSim: %v", err)
	}
	if _, err := s.Finish(); err != nil {
		t.Fatalf("Finish: %v", err)
	}
	if err := s.WriteCheckpoint(&bytes.Buffer{}); err == nil {
		t.Fatal("WriteCheckpoint after Finish succeeded, want error")
	}
	if _, err := s.Finish(); err == nil {
		t.Fatal("second Finish succeeded, want error")
	}
}

// FuzzCheckpointRoundTrip drives random configs and random checkpoint
// instants through the golden property: interrupting never changes the
// result. knobs picks the discipline: knobs%3 one of Virtual Clock, FIFO
// and round-robin, unless bits 3–5, taken mod 5, pick WRR, DRR at quantum
// 2, WF²Q+ or SP+WRR at weights 3:1; bit 2 picks CBR. ports is the switch's
// port count, folded into [2, core.MaxPorts] when outside it.
func FuzzCheckpointRoundTrip(f *testing.F) {
	f.Add(uint64(1), uint8(70), uint8(80), uint8(0), uint16(50), uint8(8))
	f.Add(uint64(7), uint8(40), uint8(100), uint8(1), uint16(0), uint8(8))
	f.Add(uint64(42), uint8(90), uint8(50), uint8(2), uint16(100), uint8(8))
	f.Add(uint64(3), uint8(70), uint8(60), uint8(3<<3), uint16(500), uint8(8)) // WF²Q+
	f.Add(uint64(5), uint8(80), uint8(60), uint8(4<<3), uint16(700), uint8(8)) // SP+WRR
	f.Add(uint64(9), uint8(10), uint8(80), uint8(0), uint16(400), uint8(64))   // the widest switch
	f.Fuzz(func(t *testing.T, seed uint64, loadPct, rtPct, knobs uint8, atPermille uint16, ports uint8) {
		cfg := DefaultConfig().Scale(0.1)
		cfg.Ports = 2 + int(ports-2)%(core.MaxPorts-1)
		cfg.Measure = 4 * cfg.FrameInterval
		cfg.Warmup = cfg.FrameInterval
		cfg.Seed = seed
		cfg.Load = float64(loadPct%101)/100 + 0.05
		cfg.RTShare = float64(rtPct%101) / 100
		switch knobs % 3 {
		case 1:
			cfg.Policy = FIFO
		case 2:
			cfg.Policy = RoundRobin
			cfg.VBRModel = VBRGoP
		}
		if w := (knobs >> 3) % 5; w > 0 {
			cfg.Policy = [...]Policy{WRR, DRR, WF2Q, SPWRR}[w-1]
			cfg.Sched = SchedConfig{RTWeight: 3, BEWeight: 1, Quantum: 2} // only DRR reads Quantum
		}
		if knobs&4 != 0 {
			cfg.Class = CBR
			cfg.FrameBytesSD = 0
		}
		if cfg.Validate() != nil {
			t.Skip()
		}
		want, err := Run(cfg)
		if err != nil {
			t.Skip() // saturated configs may legitimately fail to drain
		}
		total := cfg.Warmup + cfg.Measure
		at := time.Duration(float64(total) * float64(atPermille%1001) / 1000)
		got, _, _ := runInterrupted(t, cfg, at)
		if resultString(got) != resultString(want) {
			t.Errorf("seed=%d load=%.2f rt=%.2f at=%v: diverged\n got: %s\nwant: %s",
				seed, cfg.Load, cfg.RTShare, at, resultString(got), resultString(want))
		}
	})
}
