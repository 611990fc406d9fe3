package guest

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"nesc/internal/extfs"
	"nesc/internal/hostmem"
	"nesc/internal/sim"
)

// memDriver is a timeless in-memory BlockDriver for exercising the kernel
// block layer in isolation.
type memDriver struct {
	mem     *hostmem.Memory
	bs      int
	blocks  int64
	data    []byte
	maxB    int
	perReq  sim.Time
	submits int64
	// failAfter injects an error after N submissions (<0 disables).
	failAfter int64
}

func newMemDriver(mem *hostmem.Memory, blocks int64, maxB int, perReq sim.Time) *memDriver {
	return &memDriver{mem: mem, bs: 1024, blocks: blocks, data: make([]byte, blocks*1024), maxB: maxB, perReq: perReq, failAfter: -1}
}

func (d *memDriver) Name() string          { return "mem" }
func (d *memDriver) BlockSize() int        { return d.bs }
func (d *memDriver) CapacityBlocks() int64 { return d.blocks }
func (d *memDriver) MaxBlocksPerReq() int  { return d.maxB }

func (d *memDriver) Submit(p *sim.Proc, write bool, lba int64, buf Buffer) error {
	d.submits++
	if d.failAfter >= 0 && d.submits > d.failAfter {
		return fmt.Errorf("memDriver: injected failure")
	}
	if len(buf.Data) > d.maxB*d.bs {
		return fmt.Errorf("memDriver: request of %d bytes exceeds driver limit", len(buf.Data))
	}
	p.Sleep(d.perReq)
	off := lba * int64(d.bs)
	if write {
		copy(d.data[off:], buf.Data)
	} else {
		copy(buf.Data, d.data[off:])
	}
	return nil
}

func newTestKernel(maxB int) (*Kernel, *memDriver, *sim.Engine) {
	eng := sim.NewEngine()
	mem := hostmem.New(16 << 20)
	drv := newMemDriver(mem, 8192, maxB, 5*sim.Microsecond)
	k := NewKernel(eng, mem, DefaultParams(), drv)
	return k, drv, eng
}

func run(t *testing.T, eng *sim.Engine, fn func(p *sim.Proc)) {
	t.Helper()
	done := false
	eng.Go("test", func(p *sim.Proc) { fn(p); done = true })
	eng.Run()
	eng.Shutdown()
	if !done {
		t.Fatal("test process deadlocked")
	}
}

func TestSubmitAlignedSplitsAtDriverLimit(t *testing.T) {
	k, drv, eng := newTestKernel(4)
	run(t, eng, func(p *sim.Proc) {
		buf := k.AllocBuffer(32 * 1024) // 32 blocks -> 8 chunks at 4 blocks
		rand.New(rand.NewSource(1)).Read(buf.Data)
		if err := k.SubmitAligned(p, true, 0, buf); err != nil {
			t.Error(err)
		}
		if drv.submits != 8 {
			t.Errorf("driver saw %d submissions, want 8", drv.submits)
		}
		if k.Requests != 1 {
			t.Errorf("block layer counted %d requests, want 1", k.Requests)
		}
		// Chunks ran concurrently: total time well under 8 serial requests.
		if p.Now() > 4*8*5*sim.Microsecond {
			t.Errorf("scatter-gather chunks did not overlap: %v", p.Now())
		}
	})
}

func TestSubmitAlignedRejectsUnaligned(t *testing.T) {
	k, _, eng := newTestKernel(4)
	run(t, eng, func(p *sim.Proc) {
		buf := k.AllocBuffer(1500)
		if err := k.SubmitAligned(p, true, 0, buf); err == nil {
			t.Error("unaligned submit accepted")
		}
	})
}

func TestSubmitAlignedPropagatesChunkErrors(t *testing.T) {
	k, drv, eng := newTestKernel(2)
	drv.failAfter = 3
	run(t, eng, func(p *sim.Proc) {
		buf := k.AllocBuffer(16 * 1024) // 8 chunks; later ones fail
		if err := k.SubmitAligned(p, true, 0, buf); err == nil {
			t.Error("chunk failure not propagated")
		}
	})
}

func TestReadWriteBytesUnaligned(t *testing.T) {
	k, drv, eng := newTestKernel(8)
	run(t, eng, func(p *sim.Proc) {
		// Pre-fill device with a known pattern.
		for i := range drv.data[:64*1024] {
			drv.data[i] = byte(i)
		}
		out := make([]byte, 3000)
		if err := k.ReadBytes(p, 517, out); err != nil {
			t.Fatal(err)
		}
		for i := range out {
			if out[i] != byte(517+i) {
				t.Fatalf("byte %d = %d, want %d", i, out[i], byte(517+i))
			}
		}
		// Unaligned write with RMW: neighbors must be preserved.
		patch := bytes.Repeat([]byte{0xEE}, 100)
		if err := k.WriteBytes(p, 1000, patch); err != nil {
			t.Fatal(err)
		}
		if drv.data[999] != byte(999&0xff) || drv.data[1100] != byte(1100&0xff) {
			t.Error("RMW corrupted neighboring bytes")
		}
		for i := 1000; i < 1100; i++ {
			if drv.data[i] != 0xEE {
				t.Fatalf("patched byte %d = %d", i, drv.data[i])
			}
		}
	})
}

func TestDiskCacheHitsSkipDevice(t *testing.T) {
	k, drv, eng := newTestKernel(8)
	run(t, eng, func(p *sim.Proc) {
		d := NewDisk(k)
		buf := make([]byte, 4096)
		if err := d.WriteBlocks(p, 10, buf); err != nil {
			t.Fatal(err)
		}
		submitsAfterWrite := drv.submits
		// Read of just-written blocks: pure cache.
		if err := d.ReadBlocks(p, 10, buf); err != nil {
			t.Fatal(err)
		}
		if drv.submits != submitsAfterWrite {
			t.Error("cached read hit the device")
		}
		if d.CacheHits < 4 {
			t.Errorf("cache hits = %d", d.CacheHits)
		}
		// Cold read misses.
		if err := d.ReadBlocks(p, 100, buf); err != nil {
			t.Fatal(err)
		}
		if drv.submits == submitsAfterWrite {
			t.Error("cold read did not reach the device")
		}
	})
}

func TestDiskCacheEvictionLRU(t *testing.T) {
	eng := sim.NewEngine()
	mem := hostmem.New(16 << 20)
	drv := newMemDriver(mem, 8192, 8, sim.Microsecond)
	params := DefaultParams()
	params.CacheBlocks = 4
	k := NewKernel(eng, mem, params, drv)
	run(t, eng, func(p *sim.Proc) {
		d := NewDisk(k)
		one := make([]byte, 1024)
		for lba := int64(0); lba < 8; lba++ { // 8 distinct blocks through a 4-block cache
			if err := d.ReadBlocks(p, lba, one); err != nil {
				t.Fatal(err)
			}
		}
		if len(d.cache) != 4 {
			t.Fatalf("cache holds %d blocks, cap 4", len(d.cache))
		}
		// Oldest blocks evicted; newest cached.
		misses := d.CacheMisses
		if err := d.ReadBlocks(p, 7, one); err != nil {
			t.Fatal(err)
		}
		if d.CacheMisses != misses {
			t.Error("most-recent block was evicted")
		}
		if err := d.ReadBlocks(p, 0, one); err != nil {
			t.Fatal(err)
		}
		if d.CacheMisses == misses {
			t.Error("oldest block survived eviction")
		}
	})
}

func TestDiskCacheWriteThroughConsistency(t *testing.T) {
	k, drv, eng := newTestKernel(8)
	run(t, eng, func(p *sim.Proc) {
		d := NewDisk(k)
		v1 := bytes.Repeat([]byte{1}, 1024)
		v2 := bytes.Repeat([]byte{2}, 1024)
		if err := d.WriteBlocks(p, 5, v1); err != nil {
			t.Fatal(err)
		}
		if err := d.WriteBlocks(p, 5, v2); err != nil {
			t.Fatal(err)
		}
		// Device sees the latest version (write-through).
		if drv.data[5*1024] != 2 {
			t.Error("write-through missed the device")
		}
		got := make([]byte, 1024)
		if err := d.ReadBlocks(p, 5, got); err != nil {
			t.Fatal(err)
		}
		if got[0] != 2 {
			t.Error("cache returned a stale version")
		}
	})
}

func TestDiskPartialCacheSpanCoalescing(t *testing.T) {
	k, drv, eng := newTestKernel(16)
	run(t, eng, func(p *sim.Proc) {
		d := NewDisk(k)
		one := make([]byte, 1024)
		// Cache block 5 only.
		if err := d.ReadBlocks(p, 5, one); err != nil {
			t.Fatal(err)
		}
		submits := drv.submits
		// Read blocks 3..8: expect 2 device requests (3-4 and 6-8) plus the
		// cached block 5.
		buf := make([]byte, 6*1024)
		if err := d.ReadBlocks(p, 3, buf); err != nil {
			t.Fatal(err)
		}
		if drv.submits != submits+2 {
			t.Errorf("span coalescing issued %d requests, want 2", drv.submits-submits)
		}
	})
}

func TestKernelMountFS(t *testing.T) {
	k, _, eng := newTestKernel(8)
	run(t, eng, func(p *sim.Proc) {
		fs, err := k.Mount(p, true, fsParamsForTest())
		if err != nil {
			t.Fatal(err)
		}
		f, err := fs.Create(p, "/x", 0, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteAt(p, []byte("through the whole stack"), 0); err != nil {
			t.Fatal(err)
		}
		if err := fs.Check(p); err != nil {
			t.Fatal(err)
		}
	})
}

func fsParamsForTest() extfs.Params {
	return extfs.Params{InodeCount: 32, JournalBlocks: 16, Mode: extfs.JournalMetadata}
}

// A grow-only buffer returns the allocation it outgrows: grown 1 → 4 → 16 KB it
// holds one 16 KB allocation, not three of 21 KB.
func TestEnsureFreesWhatItOutgrows(t *testing.T) {
	mem := hostmem.New(1 << 20)
	var b Buffer
	for _, n := range []int{1 << 10, 4 << 10, 16 << 10} {
		if got := b.Ensure(mem, n); len(got.Data) != n {
			t.Fatalf("Ensure(%d) returned %d bytes", n, len(got.Data))
		}
	}
	if mem.LiveAllocs() != 1 || mem.AllocBytes != 16<<10 {
		t.Errorf("%d allocations of %d bytes live, want one of %d", mem.LiveAllocs(), mem.AllocBytes, 16<<10)
	}
}

// The byte path's bounce lives for one request: once ReadBytes, WriteBytes or
// the filesystem view over them returns, with or without an error, the kernel
// holds no host memory.
func TestByteRequestsFreeTheirBounce(t *testing.T) {
	k, drv, eng := newTestKernel(4)
	run(t, eng, func(p *sim.Proc) {
		buf := make([]byte, 128<<10+300)
		for _, fail := range []bool{false, true} {
			d := NewDisk(k) // a cold cache: every read reaches the device
			if fail {
				drv.failAfter = drv.submits + 1 // the edge read succeeds, the rest fail
			}
			errs := []error{
				k.WriteBytes(p, 700, buf),
				k.ReadBytes(p, 700, buf),
				d.WriteBlocks(p, 300, buf[:8<<10]),
				d.ReadBlocks(p, 400, buf[:8<<10]),
			}
			for i, err := range errs {
				if (err != nil) != fail {
					t.Errorf("fail=%v: request %d returned %v", fail, i, err)
				}
			}
			if k.Mem.LiveAllocs() != 0 || k.Mem.AllocBytes != 0 {
				t.Errorf("fail=%v: %d allocations of %d bytes left behind", fail, k.Mem.LiveAllocs(), k.Mem.AllocBytes)
			}
		}
	})
}
