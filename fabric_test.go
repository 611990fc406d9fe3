package nesc

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

// Multi-device fabric tests: synchronous mirroring, device failover with
// zero acknowledged-write loss, resilvering back to full redundancy, and
// live VF migration under load.

// mirroredSim assembles a fleet platform with an (empty) fault plan so
// device kill latches are available.
func mirroredSim(devices int) *Simulation {
	cfg := DefaultConfig()
	cfg.Devices = devices
	cfg.MediumMB = 16
	cfg.Fault = &FaultPlan{Seed: 42}
	cfg.DriverTimeout = 2 * time.Millisecond
	cfg.DriverRetryMax = 4
	return New(cfg)
}

// slotBytes is the unit the mirror tests write and read back.
const slotBytes = 4096

// checkSlots reads slots [0, n) of vm and holds each to the oracle d.
func checkSlots(ctx *Ctx, vm *VM, d *disk, n int, when string) error {
	got := make([]byte, slotBytes)
	for slot := 0; slot < n; slot++ {
		off := int64(slot) * slotBytes
		if err := vm.ReadAt(ctx, got, off); err != nil {
			return fmt.Errorf("%s: read slot %d: %w", when, slot, err)
		}
		if !d.verify(got, off) {
			return fmt.Errorf("%s: slot %d lost or corrupt", when, slot)
		}
	}
	return nil
}

func TestMirroredWriteAndRead(t *testing.T) {
	s := mirroredSim(2)
	err := s.Run(func(ctx *Ctx) error {
		const imgBytes = 1 << 20
		for d := 0; d < 2; d++ {
			if err := ctx.CreateImageOn(d, "/m.img", 7, imgBytes, false); err != nil {
				return err
			}
		}
		vm, err := ctx.StartMirroredVM("m", "/m.img", 7, []int{0, 1}, MirrorConfig{})
		if err != nil {
			return err
		}
		if !vm.Mirrored() {
			return fmt.Errorf("vm not mirrored")
		}
		d := newDisk(1, imgBytes/soakBlock)
		buf := make([]byte, 8192)
		d.stamp(buf, 4096)
		if err := vm.WriteAt(ctx, buf, 4096); err != nil {
			return err
		}
		got := make([]byte, len(buf))
		if err := vm.ReadAt(ctx, got, 4096); err != nil {
			return err
		}
		if !d.verify(got, 4096) {
			return fmt.Errorf("mirrored read-back mismatch")
		}
		st := vm.FabricStatus()
		if len(st) != 2 || st[0].State != "healthy" || st[1].State != "healthy" {
			return fmt.Errorf("unexpected fabric status %+v", st)
		}
		vm.Stop(ctx) // a stopped VM's counters stay counted
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	fs := s.FabricStats()
	if fs.MirroredWrites == 0 {
		t.Fatalf("no mirrored writes recorded: %+v", fs)
	}
	if fs.DegradedWrites != 0 || fs.WriteFailures != 0 || fs.Failovers != 0 {
		t.Fatalf("healthy mirror saw degradation: %+v", fs)
	}
}

// TestDeviceKillZeroAckedWriteLoss is the headline chaos test: a 3-way
// mirror loses one device mid-workload. Every write acknowledged to the
// guest — before, during, and after the failure — must read back
// bit-exactly, the mirror must keep accepting writes in degraded mode, and
// reviving the device must resilver it back to full redundancy.
func TestDeviceKillZeroAckedWriteLoss(t *testing.T) {
	s := mirroredSim(3)
	acked := 0
	err := s.Run(func(ctx *Ctx) error {
		const imgBytes = 1 << 20
		for d := 0; d < 3; d++ {
			if err := ctx.CreateImageOn(d, "/w.img", 7, imgBytes, false); err != nil {
				return err
			}
		}
		vm, err := ctx.StartMirroredVM("w", "/w.img", 7, []int{0, 1, 2}, MirrorConfig{
			SuspectThreshold: 2, FailThreshold: 3, RecoverThreshold: 3,
			RegionBlocks: 32, ResilverInterval: 20 * time.Microsecond,
		})
		if err != nil {
			return err
		}
		d := newDisk(1, imgBytes/soakBlock)
		writer := ctx.Go("writer", func(ctx *Ctx) error {
			buf := make([]byte, slotBytes)
			for i := 0; i < 120; i++ {
				off := int64(i%64) * slotBytes
				d.stamp(buf, off)
				if err := vm.WriteAt(ctx, buf, off); err != nil {
					return fmt.Errorf("write %d: %w", i, err)
				}
				acked++
			}
			return nil
		})
		// Let the workload get going, then kill device 2 under it.
		ctx.Sleep(300 * time.Microsecond)
		if err := ctx.KillDevice(2); err != nil {
			return err
		}
		if err := writer.Wait(ctx); err != nil {
			return err
		}
		// The mirror must have fenced the dead device and kept going.
		st := vm.FabricStatus()
		if st[2].State != "failed" {
			return fmt.Errorf("device 2 not fenced: %+v", st)
		}
		if st[0].State != "healthy" || st[1].State != "healthy" {
			return fmt.Errorf("surviving replicas unhealthy: %+v", st)
		}
		// Zero acknowledged-write loss: every slot reads back as its last
		// acknowledged write.
		if err := checkSlots(ctx, vm, d, 64, "degraded"); err != nil {
			return err
		}
		// Revive and wait for the resilver to restore redundancy.
		if err := ctx.ReviveDevice(2); err != nil {
			return err
		}
		for i := 0; i < 200 && vm.FabricStatus()[2].State != "healthy"; i++ {
			ctx.Sleep(100 * time.Microsecond)
		}
		if st := vm.FabricStatus(); st[2].State != "healthy" || st[2].DirtyRegions != 0 {
			return fmt.Errorf("resilver did not restore redundancy: %+v", st)
		}
		// Re-verify the oracle after resilvering (reads may now land on the
		// rebuilt replica).
		return checkSlots(ctx, vm, d, 64, "resilvered")
	})
	if err != nil {
		t.Fatal(err)
	}
	if acked != 120 {
		t.Fatalf("writer finished %d/120 writes", acked)
	}
	fs := s.FabricStats()
	if fs.Failovers == 0 {
		t.Fatalf("no failover recorded: %+v", fs)
	}
	if fs.DegradedWrites == 0 {
		t.Fatalf("no degraded writes recorded (kill landed outside workload?): %+v", fs)
	}
	if fs.WriteFailures != 0 {
		t.Fatalf("writes lost entirely: %+v", fs)
	}
	if fs.ResilverRestores == 0 || fs.ResilverBlocks == 0 {
		t.Fatalf("resilver did not run: %+v", fs)
	}
}

// TestLiveMigrationUnderLoad migrates a mirror leg between devices while
// the guest keeps writing: data survives bit-exactly, the stop-and-copy
// pause is bounded, and the source device no longer carries the image.
func TestLiveMigrationUnderLoad(t *testing.T) {
	s := mirroredSim(2)
	var rep MigrationReport
	err := s.Run(func(ctx *Ctx) error {
		const imgBytes = 1 << 20
		if err := ctx.CreateImageOn(0, "/mig.img", 7, imgBytes, false); err != nil {
			return err
		}
		vm, err := ctx.StartMirroredVM("mig", "/mig.img", 7, []int{0}, MirrorConfig{})
		if err != nil {
			return err
		}
		d := newDisk(1, imgBytes/soakBlock)
		writer := ctx.Go("writer", func(ctx *Ctx) error {
			buf := make([]byte, slotBytes)
			for i := 0; i < 100; i++ {
				off := int64(i%32) * slotBytes
				d.stamp(buf, off)
				if err := vm.WriteAt(ctx, buf, off); err != nil {
					return fmt.Errorf("write %d: %w", i, err)
				}
			}
			return nil
		})
		ctx.Sleep(200 * time.Microsecond)
		rep, err = vm.Migrate(ctx, 0, 1)
		if err != nil {
			return err
		}
		if err := writer.Wait(ctx); err != nil {
			return err
		}
		if st := vm.FabricStatus(); st[0].Dev != 1 {
			return fmt.Errorf("leg not retargeted: %+v", st)
		}
		return checkSlots(ctx, vm, d, 32, "migrated")
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.BulkBlocks == 0 {
		t.Fatalf("bulk copy empty: %+v", rep)
	}
	if pause := time.Duration(rep.Pause); pause <= 0 || pause > 2*time.Millisecond {
		t.Fatalf("stop-and-copy pause out of bounds: %v", pause)
	}
	if fs := s.FabricStats(); fs.Migrations != 1 || fs.LastMigrationPause != time.Duration(rep.Pause) {
		t.Fatalf("migration stats mismatch: %+v vs report %+v", fs, rep)
	}
}

// TestFailedMigrationLeavesNothing kills the destination device under a
// migration: 300 us in, when the target image is being made, and 1.5 ms in,
// mid bulk copy. The call must fail and undo itself: no snapshot left on the
// source, no block still shared, no CoW fault on the guest's next writes (the
// image is no longer snapshotted), data bit-exact — and, when the dead device
// held nothing of the migration yet, the same migration succeeds once it is
// revived. (A target image half-copied onto a device that then died cannot be
// removed until the device is back; the error says so.)
func TestFailedMigrationLeavesNothing(t *testing.T) {
	for _, tc := range []struct {
		killAfter time.Duration
		phase     string
		retry     bool
	}{
		{300 * time.Microsecond, "migration target image", true},
		{1500 * time.Microsecond, "migration bulk copy", false},
	} {
		t.Run(tc.phase, func(t *testing.T) { failedMigration(t, tc.killAfter, tc.phase, tc.retry) })
	}
	t.Run("migration target VF", failedMigrationInsidePause)
}

// failedMigrationInsidePause fails the migration at its last fallible step,
// after the client was paused: the destination has one VF and a plain VM holds
// it, so the retargeted leg cannot be attached. The rollback must resume the
// guest, remove the target image and leave no snapshot; once the squatter is
// gone the same migration succeeds.
func failedMigrationInsidePause(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Devices = 2
	cfg.MediumMB = 16
	cfg.NumVFs = 1
	cfg.Fault = &FaultPlan{Seed: 42}
	s := New(cfg)
	err := s.Run(func(ctx *Ctx) error {
		if err := ctx.CreateImageOn(0, "/mig.img", 7, 1<<20, false); err != nil {
			return err
		}
		if err := ctx.CreateImageOn(1, "/squat.img", 8, 64<<10, false); err != nil {
			return err
		}
		vm, err := ctx.StartMirroredVM("mig", "/mig.img", 7, []int{0}, MirrorConfig{})
		if err != nil {
			return err
		}
		squatter, err := ctx.StartVMOn(1, "squatter", BackendNeSC, "/squat.img", 8)
		if err != nil {
			return err
		}
		d, buf := newDisk(1, 1<<10), make([]byte, slotBytes)
		write := func(slot int64) error {
			d.stamp(buf, slot*slotBytes)
			return vm.WriteAt(ctx, buf, slot*slotBytes)
		}
		for slot := int64(0); slot < 16; slot++ {
			if err := write(slot); err != nil {
				return err
			}
		}
		if _, err := vm.Migrate(ctx, 0, 1); err == nil || !strings.Contains(err.Error(), "migration target VF") {
			return fmt.Errorf("migration onto a device with no free VF: %v, want a migration target VF error", err)
		}
		// The client was paused when the step failed: a write completes only
		// if the rollback resumed it.
		if err := write(0); err != nil {
			return fmt.Errorf("write after the failed migration: %w", err)
		}
		if _, err := ctx.StatHost("/mig.img.migrating"); err == nil {
			return fmt.Errorf("the migration snapshot is still on the source")
		}
		dst, err := ctx.device(1)
		if err != nil {
			return err
		}
		if _, err := dst.HostFS.Stat(ctx.proc, "/mig.img", 0); err == nil {
			return fmt.Errorf("the target image is still on the destination")
		}
		if st := vm.FabricStatus(); len(st) != 1 || st[0].Dev != 0 {
			return fmt.Errorf("the leg moved: %+v", st)
		}
		squatter.Stop(ctx)
		if _, err := vm.Migrate(ctx, 0, 1); err != nil {
			return fmt.Errorf("migration retried after the squatter stopped: %w", err)
		}
		if st := vm.FabricStatus(); st[0].Dev != 1 {
			return fmt.Errorf("leg not retargeted by the retry: %+v", st)
		}
		return checkSlots(ctx, vm, d, 16, "after the retried migration")
	})
	if err != nil {
		t.Fatal(err)
	}
	if fs := s.FabricStats(); fs.Migrations != 1 {
		t.Fatalf("%d migrations counted, want 1: only the one that succeeded", fs.Migrations)
	}
}

func failedMigration(t *testing.T, killAfter time.Duration, phase string, retry bool) {
	s := mirroredSim(2)
	err := s.Run(func(ctx *Ctx) error {
		if err := ctx.CreateImageOn(0, "/mig.img", 7, 1<<20, false); err != nil {
			return err
		}
		vm, err := ctx.StartMirroredVM("mig", "/mig.img", 7, []int{0}, MirrorConfig{})
		if err != nil {
			return err
		}
		d, buf := newDisk(1, 1<<10), make([]byte, slotBytes)
		write := func(slot int64) error {
			d.stamp(buf, slot*slotBytes)
			return vm.WriteAt(ctx, buf, slot*slotBytes)
		}
		for slot := int64(0); slot < 32; slot++ {
			if err := write(slot); err != nil {
				return err
			}
		}
		killer := ctx.Go("killer", func(ctx *Ctx) error {
			ctx.Sleep(killAfter)
			return ctx.KillDevice(1)
		})
		if _, err := vm.Migrate(ctx, 0, 1); err == nil || !strings.Contains(err.Error(), phase) {
			return fmt.Errorf("migration onto a device killed under it: %v, want a %s error", err, phase)
		} else {
			t.Logf("failed migration: %v", err)
		}
		if err := killer.Wait(ctx); err != nil {
			return err
		}
		if _, err := ctx.StatHost("/mig.img.migrating"); err == nil {
			return fmt.Errorf("the migration snapshot is still on the source")
		}
		if n := ctx.SharedBlocks(); n != 0 {
			return fmt.Errorf("%d blocks still shared with a snapshot that is gone", n)
		}
		if st := vm.FabricStatus(); len(st) != 1 || st[0].Dev != 0 {
			return fmt.Errorf("the leg moved: %+v", st)
		}
		cow := s.Stats().CowFaults
		for slot := int64(0); slot < 8; slot++ {
			if err := write(slot); err != nil {
				return err
			}
		}
		if n := s.Stats().CowFaults - cow; n != 0 {
			return fmt.Errorf("%d CoW faults writing an image nobody snapshotted", n)
		}
		if err := checkSlots(ctx, vm, d, 32, "after the failed migration"); err != nil {
			return err
		}
		if !retry {
			return nil
		}
		if err := ctx.ReviveDevice(1); err != nil {
			return err
		}
		if _, err := vm.Migrate(ctx, 0, 1); err != nil {
			return fmt.Errorf("migration retried after the revive: %w", err)
		}
		if st := vm.FabricStatus(); st[0].Dev != 1 {
			return fmt.Errorf("leg not retargeted by the retry: %+v", st)
		}
		return checkSlots(ctx, vm, d, 32, "after the retried migration")
	})
	if err != nil {
		t.Fatal(err)
	}
	want := int64(0)
	if retry {
		want = 1
	}
	if fs := s.FabricStats(); fs.Migrations != want {
		t.Fatalf("%d migrations counted, want %d: only one that succeeds counts", fs.Migrations, want)
	}
}

// TestFabricExperimentDeterminism regenerates the fabric experiment twice:
// the rendered tables (the exact content of results/fabric.json) must be
// byte-identical across runs.
func TestFabricExperimentDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("two full experiment runs; skipped under -short")
	}
	a, err := RunExperiment("fabric")
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunExperiment("fabric")
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("fabric experiment not deterministic:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", a, b)
	}
}

// TestFabricDeterminism runs the failover scenario twice with the same
// seed and asserts identical fabric stats and virtual end time.
func TestFabricDeterminism(t *testing.T) {
	run := func() (FabricStats, time.Duration) {
		s := mirroredSim(3)
		err := s.Run(func(ctx *Ctx) error {
			for d := 0; d < 3; d++ {
				if err := ctx.CreateImageOn(d, "/d.img", 7, 1<<20, false); err != nil {
					return err
				}
			}
			vm, err := ctx.StartMirroredVM("d", "/d.img", 7, []int{0, 1, 2}, MirrorConfig{
				SuspectThreshold: 2, FailThreshold: 3, RecoverThreshold: 3,
				RegionBlocks: 32, ResilverInterval: 20 * time.Microsecond,
			})
			if err != nil {
				return err
			}
			d, buf := newDisk(1, 1<<10), make([]byte, slotBytes)
			w := ctx.Go("w", func(ctx *Ctx) error {
				for i := 0; i < 60; i++ {
					d.stamp(buf, int64(i%16)*slotBytes)
					if err := vm.WriteAt(ctx, buf, int64(i%16)*slotBytes); err != nil {
						return err
					}
				}
				return nil
			})
			ctx.Sleep(200 * time.Microsecond)
			if err := ctx.KillDevice(1); err != nil {
				return err
			}
			if err := w.Wait(ctx); err != nil {
				return err
			}
			if err := ctx.ReviveDevice(1); err != nil {
				return err
			}
			for i := 0; i < 200 && vm.FabricStatus()[1].State != "healthy"; i++ {
				ctx.Sleep(100 * time.Microsecond)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return s.FabricStats(), s.Stats().VirtualTime
	}
	fs1, t1 := run()
	fs2, t2 := run()
	if fs1 != fs2 {
		t.Fatalf("fabric stats diverged:\n%+v\n%+v", fs1, fs2)
	}
	if t1 != t2 {
		t.Fatalf("virtual end time diverged: %v vs %v", t1, t2)
	}
}
