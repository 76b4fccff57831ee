package persist

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"hybridmem/internal/tiered"
	"hybridmem/internal/trace"
)

// newEngine builds a small started async engine and loads pop pages of
// the default tenant, returning the engine and its page size.
func newEngine(t *testing.T, pop int) (*tiered.Engine, uint64) {
	t.Helper()
	e, err := tiered.New(tiered.Config{
		DRAMPages: 64,
		NVMPages:  1024,
		// A long interval keeps the scanner out of the way; tests that
		// want migration call ScanOnce.
		ScanInterval: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	ps := uint64(e.Config().Spec.Geometry.PageSizeBytes)
	for p := 0; p < pop; p++ {
		if _, err := e.Serve(uint64(p)*ps, trace.OpRead); err != nil {
			t.Fatal(err)
		}
	}
	return e, ps
}

// restoredEngine builds a fresh stopped-state engine with the same
// geometry newEngine uses.
func restoredEngine(t *testing.T) *tiered.Engine {
	t.Helper()
	e, err := tiered.New(tiered.Config{DRAMPages: 64, NVMPages: 1024, ScanInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func ckptConfig(t *testing.T) Config {
	t.Helper()
	return Config{Dir: t.TempDir(), Interval: time.Hour}
}

// checkpointOnce populates an engine, cuts one checkpoint, stops the
// engine, and returns the checkpoint path and the resident count.
func checkpointOnce(t *testing.T, cfg Config, pop int) (string, int) {
	t.Helper()
	e, _ := newEngine(t, pop)
	defer e.Stop()
	c, err := NewCheckpointer(e, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.CheckpointNow(); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	return c.Path(), int(st.ResidentDRAM + st.ResidentNVM)
}

// restoreAndVerify restores path into a fresh engine and fails the test
// unless the invariants hold and the restored count matches want.
func restoreAndVerify(t *testing.T, dir string, want int) tiered.RestoreStats {
	t.Helper()
	e2 := restoredEngine(t)
	c2, err := NewCheckpointer(e2, Config{Dir: dir, Interval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	_, rs, err := c2.Restore()
	if err != nil {
		t.Fatal(err)
	}
	if rs.Restored != want {
		t.Fatalf("restored %d pages, want %d (stats %+v)", rs.Restored, want, rs)
	}
	if err := e2.CheckInvariants(); err != nil {
		t.Fatalf("invariants after restore: %v", err)
	}
	return rs
}

func TestRoundTrip(t *testing.T) {
	cfg := ckptConfig(t)
	path, resident := checkpointOnce(t, cfg, 500)
	snap, err := ReadSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	if !snap.Complete || snap.Truncated {
		t.Fatalf("snapshot complete=%v truncated=%v, want complete", snap.Complete, snap.Truncated)
	}
	if len(snap.Records) != resident {
		t.Fatalf("checkpoint has %d records, engine had %d residents", len(snap.Records), resident)
	}
	if snap.Seq != 1 || snap.DRAMPages != 64 || snap.NVMPages != 1024 || snap.Nodes != 1 {
		t.Fatalf("snapshot header %+v wrong", snap)
	}
	warm := 0
	for _, r := range snap.Records {
		if r.Warm {
			warm++
		}
	}
	// The proposed policy faults reads into DRAM until it fills, so some
	// records must be warm.
	if warm == 0 {
		t.Fatal("no warm records in a checkpoint with DRAM residents")
	}
	rs := restoreAndVerify(t, cfg.Dir, resident)
	if rs.WarmQueued != warm {
		t.Fatalf("queued %d warm pages, checkpoint had %d", rs.WarmQueued, warm)
	}
}

func TestRestoreSequenceResumes(t *testing.T) {
	cfg := ckptConfig(t)
	checkpointOnce(t, cfg, 100)
	e2 := restoredEngine(t)
	c2, err := NewCheckpointer(e2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := c2.Restore(); err != nil {
		t.Fatal(err)
	}
	if err := e2.Start(); err != nil {
		t.Fatal(err)
	}
	defer e2.Stop()
	if err := c2.CheckpointNow(); err != nil {
		t.Fatal(err)
	}
	snap, err := ReadSnapshot(c2.Path())
	if err != nil {
		t.Fatal(err)
	}
	if snap.Seq != 2 {
		t.Fatalf("post-restore checkpoint seq = %d, want 2", snap.Seq)
	}
}

func TestColdStart(t *testing.T) {
	e := restoredEngine(t)
	c, err := NewCheckpointer(e, ckptConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	snap, rs, err := c.Restore()
	if err != nil || snap != nil || rs.Restored != 0 {
		t.Fatalf("cold start: snap=%v rs=%+v err=%v, want all zero", snap, rs, err)
	}
}

// TestRecoverTruncated chops a valid checkpoint at every interesting
// length and asserts each prefix restores cleanly with a record count
// that never exceeds the bytes' worth of full frames.
func TestRecoverTruncated(t *testing.T) {
	cfg := ckptConfig(t)
	path, resident := checkpointOnce(t, cfg, 300)
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	cuts := []int{
		len(full) - 1,                           // inside the commit frame
		len(full) - frameOverhead - 17,          // just before the commit frame
		preambleSize + frameOverhead + 32 + 100, // mid page frame
		preambleSize + frameOverhead + 32,       // after the meta frame
		preambleSize + 3,                        // mid meta header
		preambleSize,                            // preamble only
	}
	for _, cut := range cuts {
		if cut < 0 || cut > len(full) {
			continue
		}
		if err := os.WriteFile(path, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		snap, err := ReadSnapshot(path)
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if snap.Complete {
			t.Fatalf("cut %d: truncated file decoded as complete", cut)
		}
		if len(snap.Records) > resident {
			t.Fatalf("cut %d: %d records from a %d-resident checkpoint", cut, len(snap.Records), resident)
		}
		restoreAndVerify(t, cfg.Dir, len(snap.Records))
	}
}

// TestRecoverCorrupted flips a byte in each region of a valid checkpoint:
// the reader must keep everything before the damaged frame and drop the
// rest, and the prefix must restore cleanly.
func TestRecoverCorrupted(t *testing.T) {
	cfg := ckptConfig(t)
	path, _ := checkpointOnce(t, cfg, 300)
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, flip := range []int{preambleSize + 6, preambleSize + frameOverhead + 32 + 20, len(full) - 2} {
		b := append([]byte(nil), full...)
		b[flip] ^= 0xFF
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		snap, err := ReadSnapshot(path)
		if err != nil {
			t.Fatalf("flip %d: %v", flip, err)
		}
		if snap.Complete {
			t.Fatalf("flip %d: corrupt file decoded as complete", flip)
		}
		if !snap.Truncated {
			t.Fatalf("flip %d: corruption not reported", flip)
		}
		restoreAndVerify(t, cfg.Dir, len(snap.Records))
	}
}

func TestNotACheckpoint(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, FileName)
	if err := os.WriteFile(path, []byte("definitely not a checkpoint"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadSnapshot(path); !errors.Is(err, ErrNotCheckpoint) {
		t.Fatalf("err = %v, want ErrNotCheckpoint", err)
	}
}

// TestTornWriteEveryFrame tears each write call of an in-place rewrite at
// a seeded random point and asserts the file always recovers to a valid
// frame prefix that restores with clean invariants.
func TestTornWriteEveryFrame(t *testing.T) {
	for call := 0; call < 4; call++ {
		dir := t.TempDir()
		e, _ := newEngine(t, 400)
		c, err := NewCheckpointer(e, Config{Dir: dir, Interval: time.Hour, InPlace: true})
		if err != nil {
			t.Fatal(err)
		}
		if err := c.CheckpointNow(); err != nil {
			t.Fatal(err)
		}
		// Re-arm: tear the call-th frame of the in-place rewrite.
		c2, err := NewCheckpointer(e, Config{
			Dir: dir, Interval: time.Hour, InPlace: true,
			Injector: NewInjector(int64(call)+1).TornWrite(call, -1),
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := c2.CheckpointNow(); !errors.Is(err, ErrCrashed) {
			t.Fatalf("call %d: err = %v, want ErrCrashed", call, err)
		}
		// A tear inside the preamble destroys the magic: the file is no
		// longer a checkpoint and recovery degrades to a cold start.
		want := 0
		snap, err := ReadSnapshot(c.Path())
		if err == nil {
			want = len(snap.Records)
		} else if !errors.Is(err, ErrNotCheckpoint) {
			t.Fatalf("call %d: %v", call, err)
		}
		e.Stop()
		restoreAndVerify(t, dir, want)
	}
}

// TestFaultsPreserveAtomicCheckpoint arms every clean-failure mode
// against the atomic (temp + rename) writer and asserts the previously
// published checkpoint survives intact every time.
func TestFaultsPreserveAtomicCheckpoint(t *testing.T) {
	faults := map[string]*Injector{
		"create-fail":  NewInjector(1).Fail(OpCreate, 0),
		"write-fail":   NewInjector(2).Fail(OpWrite, 1),
		"short-write":  NewInjector(3).ShortWrite(2, 5),
		"fsync-fail":   NewInjector(4).Fail(OpSync, 0),
		"rename-fail":  NewInjector(5).Fail(OpRename, 0),
		"crash-write":  NewInjector(6).CrashAt(OpWrite, 2),
		"crash-sync":   NewInjector(7).CrashAt(OpSync, 0),
		"crash-rename": NewInjector(8).CrashAt(OpRename, 0),
		"torn-write":   NewInjector(9).TornWrite(1, -1),
	}
	for name, inj := range faults {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			e, _ := newEngine(t, 200)
			defer e.Stop()
			good, err := NewCheckpointer(e, Config{Dir: dir, Interval: time.Hour})
			if err != nil {
				t.Fatal(err)
			}
			if err := good.CheckpointNow(); err != nil {
				t.Fatal(err)
			}
			want, err := ReadSnapshot(good.Path())
			if err != nil || !want.Complete {
				t.Fatalf("baseline checkpoint bad: %v", err)
			}
			bad, err := NewCheckpointer(e, Config{Dir: dir, Interval: time.Hour, Injector: inj})
			if err != nil {
				t.Fatal(err)
			}
			if err := bad.CheckpointNow(); err == nil {
				t.Fatal("injected fault did not surface")
			}
			if inj.Fired() == 0 {
				t.Fatal("fault never fired")
			}
			got, err := ReadSnapshot(good.Path())
			if err != nil {
				t.Fatal(err)
			}
			if !got.Complete || got.Seq != want.Seq || len(got.Records) != len(want.Records) {
				t.Fatalf("published checkpoint damaged by failed write: %+v", got)
			}
			if bad.Stats().Failures != 1 {
				t.Fatalf("failures = %d, want 1", bad.Stats().Failures)
			}
		})
	}
}

// TestWarmupPromotes restores a checkpoint with warm pages and lets the
// warm-up feeder drive them through the daemon queues: promotions must
// happen with no serve traffic at all.
func TestWarmupPromotes(t *testing.T) {
	cfg := ckptConfig(t)
	checkpointOnce(t, cfg, 500)
	e2, err := tiered.New(tiered.Config{
		DRAMPages:    64,
		NVMPages:     1024,
		ScanInterval: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	c2, err := NewCheckpointer(e2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, rs, err := c2.Restore()
	if err != nil {
		t.Fatal(err)
	}
	if rs.WarmQueued == 0 {
		t.Fatal("no warm pages queued")
	}
	if err := e2.Start(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for e2.WarmupPending() > 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if p := e2.WarmupPending(); p != 0 {
		t.Fatalf("%d warm pages still pending after 10s", p)
	}
	if err := e2.Stop(); err != nil {
		t.Fatal(err)
	}
	if got := e2.Stats().Promotions; got == 0 {
		t.Fatal("warm-up storm produced no promotions")
	}
	if err := e2.CheckInvariants(); err != nil {
		t.Fatalf("invariants after warm-up: %v", err)
	}
}

// TestStopDuringWarmup stops the engine while the warm-up storm is still
// feeding the queues; the feeder must exit promptly and leave the table
// consistent. Run under -race, this is the satellite's warm-up race test.
func TestStopDuringWarmup(t *testing.T) {
	cfg := ckptConfig(t)
	checkpointOnce(t, cfg, 800)
	for i := 0; i < 5; i++ {
		e2, err := tiered.New(tiered.Config{
			DRAMPages:    64,
			NVMPages:     1024,
			ScanInterval: 100 * time.Microsecond,
			WarmupRate:   8, // tiny rate: Stop always lands mid-storm
		})
		if err != nil {
			t.Fatal(err)
		}
		c2, err := NewCheckpointer(e2, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := c2.Restore(); err != nil {
			t.Fatal(err)
		}
		if err := e2.Start(); err != nil {
			t.Fatal(err)
		}
		time.Sleep(time.Duration(i) * 200 * time.Microsecond)
		if err := e2.Stop(); err != nil {
			t.Fatal(err)
		}
		if err := e2.CheckInvariants(); err != nil {
			t.Fatalf("iteration %d: invariants after Stop mid-warm-up: %v", i, err)
		}
	}
}

// TestStopRacesCheckpoint runs Engine.Stop concurrently with an in-flight
// CheckpointNow and the periodic loop: the checkpoint must either
// complete or fail cleanly, and the engine must quiesce with invariants
// intact. Run under -race, this is the satellite's shutdown race test.
func TestStopRacesCheckpoint(t *testing.T) {
	for i := 0; i < 5; i++ {
		e, _ := newEngine(t, 400)
		c, err := NewCheckpointer(e, Config{Dir: t.TempDir(), Interval: 100 * time.Microsecond})
		if err != nil {
			t.Fatal(err)
		}
		c.Start()
		done := make(chan error, 1)
		go func() { done <- c.CheckpointNow() }()
		time.Sleep(time.Duration(i) * 100 * time.Microsecond)
		if err := e.Stop(); err != nil {
			t.Fatal(err)
		}
		if err := <-done; err != nil {
			t.Fatalf("in-flight checkpoint failed: %v", err)
		}
		if err := c.Stop(true); err != nil {
			t.Fatalf("final checkpoint failed: %v", err)
		}
		if err := e.CheckInvariants(); err != nil {
			t.Fatalf("iteration %d: %v", i, err)
		}
		snap, err := ReadSnapshot(c.Path())
		if err != nil || !snap.Complete {
			t.Fatalf("final checkpoint unreadable: %v", err)
		}
	}
}

func TestRestoreLifecycleErrors(t *testing.T) {
	e, _ := newEngine(t, 10)
	defer e.Stop()
	if _, err := e.Restore(nil); !errors.Is(err, tiered.ErrRestoreStarted) {
		t.Fatalf("Restore after Start: %v", err)
	}
}

// TestRestoreSkipsMisfits feeds records the current config cannot hold:
// unknown tenants and more pages than NVM frames. Everything that fits
// restores; the rest is counted, and invariants still hold.
func TestRestoreSkipsMisfits(t *testing.T) {
	e, err := tiered.New(tiered.Config{DRAMPages: 8, NVMPages: 32, ScanInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	pages := []tiered.RestoredPage{
		{Tenant: tiered.DefaultTenant, Page: 0},
		{Tenant: tiered.DefaultTenant, Page: 0}, // duplicate, hits while NVM has room
	}
	for p := 1; p < 40; p++ {
		pages = append(pages, tiered.RestoredPage{Tenant: tiered.DefaultTenant, Page: uint64(p)})
	}
	for p := 0; p < 10; p++ {
		pages = append(pages, tiered.RestoredPage{Tenant: 7, Page: uint64(p)})
	}
	rs, err := e.Restore(pages)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Restored != 32 || rs.CapacityDrops != 8 || rs.Skipped != 10 || rs.Duplicates != 1 {
		t.Fatalf("stats %+v, want 32 restored / 8 capacity / 10 skipped / 1 dup", rs)
	}
	if err := e.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestServeZeroAllocWithCheckpointer guards the tentpole's perf
// constraint: attaching a checkpointer (and having it publish a
// checkpoint) must not put allocations on the engine's serve hit path —
// the checkpointer reads RCU snapshots off-path and never hooks Serve.
func TestServeZeroAllocWithCheckpointer(t *testing.T) {
	modes := []struct {
		name      string
		fullEvery int
		cuts      int
	}{
		{"full", 1, 1},
		{"delta", 4, 3}, // one base + two delta cuts before measuring
	}
	for _, mode := range modes {
		t.Run(mode.name, func(t *testing.T) {
			e, ps := newEngine(t, 32)
			defer e.Stop()
			cfg := ckptConfig(t)
			cfg.FullEvery = mode.fullEvery
			c, err := NewCheckpointer(e, cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Stop(false)
			for i := 0; i < mode.cuts; i++ {
				if err := c.CheckpointNow(); err != nil {
					t.Fatal(err)
				}
			}
			if mode.fullEvery > 1 && c.Stats().DeltaCuts == 0 {
				t.Fatal("delta mode never cut a delta")
			}
			i := 0
			if n := testing.AllocsPerRun(1000, func() {
				if _, err := e.Serve(uint64(i%32)*ps, trace.OpRead); err != nil {
					t.Fatal(err)
				}
				i++
			}); n > 0 {
				t.Fatalf("serve path allocated %.1f times per op with a checkpointer attached, want 0", n)
			}
		})
	}
}
