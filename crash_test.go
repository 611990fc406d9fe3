package nesc

import (
	"fmt"
	"testing"
	"time"
)

// Crash-recovery harness: run a journaling workload, cut power at a seeded
// virtual time (Simulation.CrashAt discards every piece of volatile state —
// rings, page structures, in-flight requests), tear a random tail of
// acknowledged-but-unpersisted block writes off the surviving store, then
// restart a fresh platform around it. Every crash point must remount cleanly
// (journal replay), pass fsck, pass whole-device guard verification, and
// scrub clean.

// crashPoints is the seeded crash-schedule size the harness sweeps.
const crashPoints = 64

// crashMix advances a splitmix64 state for the harness's own decisions.
func crashMix(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func crashConfig() Config {
	cfg := DefaultConfig()
	cfg.MediumMB = 8
	cfg.UseIOMMU = true
	return cfg
}

// crashWorkload generates mixed journal and data traffic forever — VF
// stripe writes over a sparse image (each first touch lazily allocates,
// committing a journal transaction) plus host-file appends — until the power
// cut kills it mid-flight.
func crashWorkload(ctx *Ctx) error {
	if err := ctx.CreateImage("/t.img", 100, 1<<20, true); err != nil {
		return err
	}
	vm, err := ctx.StartVM("t", BackendNeSC, "/t.img", 100)
	if err != nil {
		return err
	}
	d := newDisk(1, 1<<10)
	buf := make([]byte, 8*soakBlock)
	for round := 0; ; round++ {
		off := int64(round%32) * int64(len(buf))
		d.stamp(buf, off)
		if err := vm.WriteAt(ctx, buf, off); err != nil {
			return err
		}
		if round%4 == 0 {
			if err := ctx.WriteHostFile(fmt.Sprintf("/log%d", round%3), buf[:soakBlock], int64(round)*soakBlock); err != nil {
				return err
			}
		}
	}
}

// crashOnce cuts power at tCrash, drops a seeded tail of persisted writes,
// and verifies the recovery contract end to end. It returns the write-log
// length at the crash (for the determinism check).
func crashOnce(t *testing.T, tCrash time.Duration, seed uint64) int {
	t.Helper()
	s := New(crashConfig())
	crash := s.CrashAt(tCrash, crashWorkload)
	logLen := crash.WriteLogLen()
	if logLen == 0 {
		t.Fatalf("crash at %v: no writes reached the medium; crash point too early", tCrash)
	}

	// Tear off a seeded tail: up to 32 of the newest acknowledged block
	// writes never made it out of the medium's volatile cache. (Bounded so
	// the long-persisted format/boot writes stay put, as they would.)
	maxDrop := 32
	if logLen < maxDrop {
		maxDrop = logLen
	}
	drop := int(crashMix(seed) % uint64(maxDrop+1))
	if got := crash.DropTail(drop); got != drop {
		t.Fatalf("DropTail(%d) undid %d writes", drop, got)
	}
	if bad := crash.VerifyGuards(); len(bad) != 0 {
		t.Fatalf("crash at %v drop %d: %d guard mismatches on the torn store (first at lba %d)",
			tCrash, drop, len(bad), bad[0])
	}

	// Recovery: fresh platform around the wreckage. Run remounts the host
	// filesystem, replaying the journal.
	s2 := crash.Restart()
	err := s2.Run(func(ctx *Ctx) error {
		if err := ctx.CheckHostFS(); err != nil {
			return fmt.Errorf("fsck after remount: %w", err)
		}
		if rep := ctx.Scrub(); rep.Errors != 0 {
			return fmt.Errorf("post-recovery scrub: %d of %d verify requests failed", rep.Errors, rep.Requests)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("crash at %v drop %d: recovery failed: %v", tCrash, drop, err)
	}
	if bad := s2.VerifyGuards(); len(bad) != 0 {
		t.Fatalf("crash at %v drop %d: %d guard mismatches after recovery", tCrash, drop, len(bad))
	}
	return logLen
}

// TestCrashRecoveryHarness sweeps crashPoints seeded power-cut instants
// spread across the workload's life.
func TestCrashRecoveryHarness(t *testing.T) {
	points := crashPoints
	if testing.Short() {
		points = 8
	}
	// Crash instants span from just after boot+first-writes deep into the
	// steady-state workload, stepping at a prime-ish stride so they land on
	// unrelated phases of the journal cycle.
	base := 3 * time.Millisecond
	step := 731 * time.Microsecond
	for i := 0; i < points; i++ {
		t.Run(fmt.Sprintf("point%02d", i), func(t *testing.T) {
			t.Parallel() // every point is its own pair of simulations
			crashOnce(t, base+time.Duration(i)*step, uint64(i)*0x9e3779b9+7)
		})
	}
}

// TestCrashDeterminism crashes the same workload at the same instant twice:
// the surviving write logs must agree exactly.
func TestCrashDeterminism(t *testing.T) {
	const at = 7 * time.Millisecond
	a := crashOnce(t, at, 1)
	b := crashOnce(t, at, 1)
	if a != b {
		t.Fatalf("same-instant crashes persisted different write counts: %d vs %d", a, b)
	}
}
