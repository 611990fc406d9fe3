package extfs

import (
	"runtime"
	"testing"

	"nesc/internal/sim"
)

// TestWarmTransactionAllocations: once the per-FS buffers exist, a metadata
// transaction allocates no block-sized buffer. The transaction is the
// hypervisor's lazy-allocation miss — Allocate of one block — on a
// 600-extent file, so each one renders and journals the inode block, the
// overflow leaf the new extent lands in (now and then two, when it splits)
// and a bitmap block, zero-fills the new block and writes its record. What is
// left is the dirty-table flush's sorted block list, far below one block;
// under a process, also the checkpoint process each commit starts.
func TestWarmTransactionAllocations(t *testing.T) {
	for _, timed := range []bool{false, true} {
		fs, _ := newFS(t, JournalMetadata)
		f, err := fs.Create(nil, "/img", 0, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		next := uint64(0)
		grow := func(p *sim.Proc) error {
			next += 2 // leave a hole: every call adds an extent
			return f.Allocate(p, next-2, 1)
		}
		for len(fs.inodes[f.ino].extents) < 600 {
			if err := grow(nil); err != nil {
				t.Fatal(err)
			}
		}
		const runs = 100
		var before, after runtime.MemStats
		measure := func(p *sim.Proc) {
			err := grow(p) // warms what a process adds
			runtime.ReadMemStats(&before)
			for i := 0; i < runs && err == nil; i++ {
				err = grow(p)
			}
			if err == nil {
				err = f.Sync(p) // waits out the last checkpoint
			}
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Error(err)
			}
		}
		if timed {
			eng := sim.NewEngine()
			eng.Go("host", measure)
			eng.Run()
		} else {
			measure(nil)
		}
		allocs := float64(after.Mallocs-before.Mallocs) / runs
		bytesPerRun := float64(after.TotalAlloc-before.TotalAlloc) / runs
		t.Logf("under a process %v: %v allocs, %.0f bytes per warm Allocate", timed, allocs, bytesPerRun)
		if bytesPerRun >= float64(fs.bs) {
			t.Errorf("under a process %v: a warm transaction allocates %.0f bytes, a block is %d", timed, bytesPerRun, fs.bs)
		}
	}
}
