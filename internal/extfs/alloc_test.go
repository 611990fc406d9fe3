package extfs

import (
	"runtime"
	"testing"
)

// TestWarmTransactionAllocations: once the per-FS buffers exist, a metadata
// transaction allocates no block-sized buffer. The transaction is the
// hypervisor's lazy-allocation miss — AllocateRange of one block — on a
// 600-extent file, so each one renders and journals the inode block, a dozen
// overflow blocks and a bitmap block, zero-fills the new block and writes a
// descriptor and a commit record: ≈ 30 blocks of buffer when every step made
// its own. What is left is the dirty-table flush's sorted block list and the
// path lookup's directory read, far below one block.
func TestWarmTransactionAllocations(t *testing.T) {
	fs, _ := newFS(t, JournalMetadata)
	f, err := fs.Create(nil, "/img", 0, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	next := uint64(0)
	grow := func() {
		if err := fs.AllocateRange(nil, "/img", next, 1); err != nil {
			t.Fatal(err)
		}
		next += 2 // leave a hole: every call adds an extent
	}
	for len(fs.inodes[f.ino].extents) < 600 {
		grow()
	}
	const runs = 100
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	allocs := testing.AllocsPerRun(runs, grow)
	runtime.ReadMemStats(&after)
	bytesPerRun := float64(after.TotalAlloc-before.TotalAlloc) / (runs + 1)
	t.Logf("%v allocs, %.0f bytes per warm AllocateRange", allocs, bytesPerRun)
	if bytesPerRun >= float64(fs.bs) {
		t.Errorf("a warm transaction allocates %.0f bytes, a block is %d", bytesPerRun, fs.bs)
	}
}
