package bench

import (
	"fmt"
	"runtime"
	"testing"

	"nesc/internal/fault"
	"nesc/internal/ring"
	"nesc/internal/sim"
)

// TestTelemetryOffWriteAllocs pins what one 1 KB write through a directly
// assigned VF allocates with no telemetry sink attached — guest kernel, ring
// driver, controller pipeline, medium, completion. A later telemetry consumer
// (or anything else) that leaks an allocation into the off path trips it.
// The ceiling is the measured count (61 when the spine landed, 57 before the
// process-form DMA and the medium stopped copying the payload); lower it when
// the path gets cheaper.
func TestTelemetryOffWriteAllocs(t *testing.T) {
	const ceiling = 51
	pl := NewPlatform(DefaultConfig())
	var allocs float64
	err := pl.Run(func(p *sim.Proc) error {
		tgt, err := pl.RawTarget(p, BackendNeSC, rawImageBlocks)
		if err != nil {
			return err
		}
		var werr error
		write := func() {
			if err := tgt.WriteAt(p, 0, 1024); err != nil {
				werr = err
			}
		}
		for i := 0; i < 8; i++ {
			write() // warm the BTLB and every free list
		}
		allocs = testing.AllocsPerRun(200, write)
		return werr
	})
	if err != nil {
		t.Fatal(err)
	}
	if allocs > ceiling {
		t.Errorf("a 1 KB write with telemetry off allocates %v times, ceiling %d", allocs, ceiling)
	}
	t.Logf("%v allocs per 1 KB write", allocs)
}

// TestPlatformCostsWhatItTouches pins what building the paper's platform
// allocates before anything runs on it: 512 MB of host memory and a 128 MB
// medium are address spaces, backed where they are first written (640.5 MB
// when both were one slice each; the medium's guard table is the half megabyte
// that is left).
func TestPlatformCostsWhatItTouches(t *testing.T) {
	const ceiling = 4 << 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	pl := NewPlatform(DefaultConfig())
	runtime.ReadMemStats(&after)
	got := after.TotalAlloc - before.TotalAlloc
	if got > ceiling {
		t.Errorf("NewPlatform(DefaultConfig()) allocated %d bytes, ceiling %d", got, ceiling)
	}
	t.Logf("NewPlatform(DefaultConfig()) allocates %d KB", got>>10)
	runtime.KeepAlive(pl)
}

// pfRequestBytes is one PF request: pfMaxBlocksPerReq (1,024) blocks of 1 KB,
// as much PF bounce as the host may keep.
const pfRequestBytes = 1024 << 10

// TestBouncesLiveForOneRequest pins what a request leaves of its bounce buffer
// in host memory once it is over: nothing of a guest's, and at most one PF
// request of the host's. A guest that kept the bounce of its largest request
// held 124 KB more per VM written once with 128 KB than per VM written with
// 4 KB; a PF disk that bounced a whole write at once held 16 MB after
// zero-filling a 16 MB image.
func TestBouncesLiveForOneRequest(t *testing.T) {
	for _, row := range []struct {
		name string
		held func(t *testing.T) (got, limit int64)
	}{
		{"32 VMs written with 128 KB", func(t *testing.T) (int64, int64) {
			return vmsWrittenWith(t, 128<<10), vmsWrittenWith(t, 4<<10)
		}},
		{"16 MB preallocated image", func(t *testing.T) (int64, int64) {
			var held int64
			if _, err := runPoint(DefaultConfig(), func(p *sim.Proc, pl *Platform) error {
				before := pl.Mem.AllocBytes
				_, err := pl.Hyp.Device(0).MkImage(p, "/big.img", 100, 16<<10, false)
				held = pl.Mem.AllocBytes - before
				return err
			}); err != nil {
				t.Fatal(err)
			}
			return held, pfRequestBytes
		}},
	} {
		t.Run(row.name, func(t *testing.T) {
			if got, limit := row.held(t); got > limit {
				t.Errorf("%d bytes of host memory held, limit %d", got, limit)
			}
		})
	}
}

// vmsWrittenWith boots 32 VMs, writes size bytes once through each guest
// kernel's byte path and reports the host memory allocated then.
func vmsWrittenWith(t *testing.T, size int) int64 {
	var held int64
	if _, err := runPoint(DefaultConfig(), func(p *sim.Proc, pl *Platform) error {
		for i := 0; i < 32; i++ {
			vm, _, err := pl.directVM(p, fmt.Sprint("vm", i), fmt.Sprintf("/vm%d.img", i), 100, 256, false)
			if err != nil {
				return err
			}
			if err := vm.Kernel.WriteBytes(p, 0, make([]byte, size)); err != nil {
				return err
			}
		}
		held = pl.Mem.AllocBytes
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return held
}

// TestPFBounceSurvivesAFailedRequest moves 3 MB (three PF requests) each way
// through a PF disk, once cleanly and once with one payload DMA failed in
// every try of the second request: the transfer fails with the DMA fault and
// leaves at most one PF request of bounce behind either way.
func TestPFBounceSurvivesAFailedRequest(t *testing.T) {
	for _, write := range []bool{false, true} {
		t.Run(fmt.Sprint("write=", write), func(t *testing.T) {
			before, after, held, err := pfTransfer(write)
			if err != nil || held > pfRequestBytes {
				t.Fatalf("clean transfer: %v, %d bytes held", err, held)
			}
			n := (after - before) / 3 // the DMA operations of one request
			var shots []int64
			for try := int64(1); try <= 4; try++ { // hostBlockTries
				shots = append(shots, before+try*n+n/2)
			}
			_, _, held, err = pfTransfer(write, shots...)
			if want := ring.StatusError(ring.StatusDMAFault); err == nil || err.Error() != want.Error() {
				t.Errorf("failed transfer returned %v, want %v", err, want)
			}
			if held > pfRequestBytes {
				t.Errorf("failed transfer held %d bytes, limit %d", held, pfRequestBytes)
			}
		})
	}
}

// pfTransfer moves 3 MB between a fresh PF disk and the medium on a platform
// whose injector fails the listed operations of the transfer's DMA site (the
// device's DMA reads for a write, its DMA writes for a read). It reports the
// site's operation count before and after the transfer, the host memory the
// transfer left allocated, and its error.
func pfTransfer(write bool, shots ...int64) (before, after, held int64, err error) {
	site := fault.DMAWrite
	if write {
		site = fault.DMARead
	}
	cfg := DefaultConfig()
	cfg.Fault = &fault.Plan{}
	cfg.Fault.Sites[site].OneShot = shots
	_, err = runPoint(cfg, func(p *sim.Proc, pl *Platform) error {
		disk := pl.Hyp.Device(0).Disk()
		buf := make([]byte, 3<<20)
		mem := pl.Mem.AllocBytes
		before = pl.Inj.Ops(site)
		var err error
		if write {
			err = disk.WriteBlocks(p, 100_000, buf)
		} else {
			err = disk.ReadBlocks(p, 100_000, buf)
		}
		after, held = pl.Inj.Ops(site), pl.Mem.AllocBytes-mem
		return err
	})
	return before, after, held, err
}

// trampolineSlotBytes is what the trampoline semaphore lets a NeSC guest have
// out at once: 32 chunks of 4 KB.
const trampolineSlotBytes = 32 * 4 << 10

// TestTrampolineSlotsLiveForOneChunk pins what a trampoline-mode NeSC guest
// holds of host memory for its bounce slots: nothing while it is idle (a
// driver that made its slots up front held 128 KB per VM), at most the
// semaphore's 32 slots while a 256 KB write is in flight, and nothing again
// once the write has returned, whether it succeeded or failed with a DMA
// fault.
func TestTrampolineSlotsLiveForOneChunk(t *testing.T) {
	t.Run("idle VM", func(t *testing.T) {
		held := map[bool]int64{}
		for _, iommu := range []bool{false, true} {
			cfg := DefaultConfig()
			cfg.Hyp.UseIOMMU = iommu
			if _, err := runPoint(cfg, func(p *sim.Proc, pl *Platform) error {
				if _, err := pl.Hyp.Device(0).MkImage(p, "/vm.img", 100, 256, false); err != nil {
					return err
				}
				before := pl.Mem.AllocBytes
				_, _, err := pl.bootVM(p, "vm", "/vm.img", 100)
				held[iommu] = pl.Mem.AllocBytes - before
				return err
			}); err != nil {
				t.Fatal(err)
			}
		}
		if held[false] > held[true] {
			t.Errorf("an idle trampoline-mode VM holds %d bytes of host memory, %d more than one without trampolines", held[false], held[false]-held[true])
		}
	})
	for _, fail := range []bool{false, true} {
		t.Run(fmt.Sprint("256 KB write, DMA fault=", fail), func(t *testing.T) {
			before, after, _, _ := trampolineWrite(t)
			var shots []int64
			if fail {
				shots = append(shots, (before+after)/2)
			}
			_, _, peak, err := trampolineWrite(t, shots...)
			if want := ring.StatusError(ring.StatusDMAFault); fail && (err == nil || err.Error() != want.Error()) {
				t.Errorf("write returned %v, want %v", err, want)
			} else if !fail && err != nil {
				t.Fatal(err)
			}
			if peak <= 0 || peak > trampolineSlotBytes {
				t.Errorf("slots held %d bytes in flight, want some and at most %d", peak, trampolineSlotBytes)
			}
			t.Logf("slots held at most %d KB in flight", peak>>10)
		})
	}
}

// trampolineWrite writes 256 KB through a trampoline-mode VM's kernel on a
// platform whose injector fails the listed device DMA reads. It reports the
// DMA read count before and after the write, the most host memory the write's
// slots held at once (sampled every 100 ns of virtual time, less the kernel's
// own 256 KB bounce), and the write's error. It fails t unless the write leaves
// the live allocations and bytes of host memory as it found them.
func trampolineWrite(t *testing.T, shots ...int64) (before, after, peak int64, werr error) {
	const size = 256 << 10
	cfg := DefaultConfig()
	cfg.Fault = &fault.Plan{}
	cfg.Fault.Sites[fault.DMARead].OneShot = shots
	if _, err := runPoint(cfg, func(p *sim.Proc, pl *Platform) error {
		vm, _, err := pl.directVM(p, "vm", "/vm.img", 100, 1024, false)
		if err != nil {
			return err
		}
		live, bytes := pl.Mem.LiveAllocs(), pl.Mem.AllocBytes
		done := false
		f := pl.fanOut()
		f.Go("sampler", func(q *sim.Proc) error {
			for !done {
				peak = max(peak, pl.Mem.AllocBytes-bytes-size)
				q.Sleep(100 * sim.Nanosecond)
			}
			return nil
		})
		before = pl.Inj.Ops(fault.DMARead)
		werr = vm.Kernel.WriteBytes(p, 0, make([]byte, size))
		after, done = pl.Inj.Ops(fault.DMARead), true
		if err := f.Wait(p); err != nil {
			return err
		}
		if l, b := pl.Mem.LiveAllocs(), pl.Mem.AllocBytes; l != live || b != bytes {
			t.Errorf("after the write host memory holds %d allocations of %d bytes, %d of %d before", l, b, live, bytes)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return before, after, peak, werr
}
