package hypervisor

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"testing"

	"nesc/internal/blockdev"
	"nesc/internal/core"
	"nesc/internal/extfs"
	"nesc/internal/hostmem"
	"nesc/internal/pcie"
	"nesc/internal/sim"
)

// world is a fully wired platform: memory, fabric, medium, controller,
// hypervisor.
type world struct {
	eng *sim.Engine
	mem *hostmem.Memory
	fab *pcie.Fabric
	ctl *core.Controller
	h   *Hypervisor
	d   *Device // device 0
}

func newWorld(t *testing.T, mediumBlocks int64, mut func(*Params)) *world {
	return newWorldCore(t, mediumBlocks, nil, mut)
}

// newWorldCore additionally lets a test mutate the device parameters (e.g.
// QueuesPerVF).
func newWorldCore(t *testing.T, mediumBlocks int64, coreMut func(*core.Params), mut func(*Params)) *world {
	t.Helper()
	eng := sim.NewEngine()
	mem := hostmem.New(256 << 20)
	fab := pcie.New(eng, mem, pcie.DefaultParams())
	cp := core.DefaultParams()
	cp.NumVFs = 8
	if coreMut != nil {
		coreMut(&cp)
	}
	hp := DefaultParams()
	if mut != nil {
		mut(&hp)
	}
	w := &world{eng: eng, mem: mem, fab: fab, h: New(eng, mem, fab, hp, core.Sinks{})}
	w.d = w.addDevice(t, cp, mediumBlocks)
	w.ctl = w.d.Ctl
	return w
}

// addDevice attaches one more controller, with its own medium, to the fleet.
// Call before boot.
func (w *world) addDevice(t *testing.T, cp core.Params, mediumBlocks int64) *Device {
	t.Helper()
	cp.DeviceID = w.h.NumDevices()
	medium := blockdev.NewMedium(w.eng, blockdev.NewStore(cp.BlockSize, mediumBlocks), blockdev.DefaultMediumParams())
	ctl, err := core.New(w.eng, w.fab, medium, cp, core.Sinks{})
	if err != nil {
		t.Fatal(err)
	}
	return w.h.AddDevice(ctl)
}

// run executes fn as the initial host process and drives the simulation to
// quiescence, failing the test if fn never finished (deadlock).
func (w *world) run(t *testing.T, fn func(p *sim.Proc)) {
	t.Helper()
	done := false
	w.eng.Go("main", func(p *sim.Proc) {
		fn(p)
		done = true
	})
	w.eng.Run()
	w.eng.Shutdown()
	if !done {
		t.Fatal("main process deadlocked")
	}
}

func (w *world) boot(t *testing.T, p *sim.Proc) {
	t.Helper()
	if err := w.h.Boot(p, true, extfs.Params{InodeCount: 128, JournalBlocks: 64, Mode: extfs.JournalMetadata}); err != nil {
		t.Fatal(err)
	}
}

// mkImage creates and fully allocates a disk image on the host FS.
func (w *world) mkImage(t *testing.T, p *sim.Proc, path string, uid uint32, blocks uint64) {
	t.Helper()
	if err := w.d.MkImage(p, path, uid, blocks, false); err != nil {
		t.Fatal(err)
	}
}

func TestBootAndHostFS(t *testing.T) {
	w := newWorld(t, 8192, nil)
	w.run(t, func(p *sim.Proc) {
		w.boot(t, p)
		f, err := w.d.HostFS.Create(p, "/hello", 0, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteAt(p, []byte("through the PF rings"), 0); err != nil {
			t.Fatal(err)
		}
		got := make([]byte, 20)
		if _, err := f.ReadAt(p, got, 0); err != nil && err != io.EOF {
			t.Fatal(err)
		}
		if string(got) != "through the PF rings" {
			t.Fatalf("read %q", got)
		}
		if p.Now() == 0 {
			t.Fatal("host FS I/O consumed no virtual time")
		}
	})
}

// TestDirectVMRoundTrip also runs at a non-default device block size: the PF
// and VF drivers' protection information must be computed at the device's
// block size, not the platform default's, or every guarded request fails.
func TestDirectVMRoundTrip(t *testing.T) {
	for _, bs := range []int{core.DefaultParams().BlockSize, 2048} {
		t.Run(fmt.Sprintf("block%d", bs), func(t *testing.T) {
			w := newWorldCore(t, 8192, func(cp *core.Params) { cp.BlockSize = bs }, nil)
			w.run(t, func(p *sim.Proc) {
				w.boot(t, p)
				w.mkImage(t, p, "/disk.img", 100, 512)
				vm, err := w.h.NewVM(p, "vm0", VMConfig{Backend: BackendDirect, DiskPath: "/disk.img", UID: 100})
				if err != nil {
					t.Fatal(err)
				}
				if vm.Legs[0].Drv.CapacityBlocks() != 512 {
					t.Fatalf("capacity = %d", vm.Legs[0].Drv.CapacityBlocks())
				}
				buf := vm.Kernel.AllocBuffer(64 * 1024)
				rand.New(rand.NewSource(2)).Read(buf.Data)
				want := append([]byte(nil), buf.Data...)
				if err := vm.Kernel.SubmitAligned(p, true, 0, buf); err != nil {
					t.Fatal(err)
				}
				clear(buf.Data)
				if err := vm.Kernel.SubmitAligned(p, false, 0, buf); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(buf.Data, want) {
					t.Fatal("direct VM round trip mismatch")
				}
				// The bytes are visible through the host filesystem too: same file.
				f, err := w.d.HostFS.Open(p, "/disk.img", 0, extfs.PermRead)
				if err != nil {
					t.Fatal(err)
				}
				got := make([]byte, 64*1024)
				if _, err := f.ReadAt(p, got, 0); err != nil && err != io.EOF {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Fatal("host view of VF-written file differs")
				}
			})
		})
	}
}

func TestAllBackendsRoundTrip(t *testing.T) {
	for _, kind := range []BackendKind{BackendDirect, BackendVirtio, BackendEmulation} {
		t.Run(kind.String(), func(t *testing.T) {
			w := newWorld(t, 8192, nil)
			w.run(t, func(p *sim.Proc) {
				w.boot(t, p)
				w.mkImage(t, p, "/d.img", 7, 256)
				vm, err := w.h.NewVM(p, "vm", VMConfig{Backend: kind, DiskPath: "/d.img", UID: 7})
				if err != nil {
					t.Fatal(err)
				}
				buf := vm.Kernel.AllocBuffer(32 * 1024)
				rand.New(rand.NewSource(int64(kind))).Read(buf.Data)
				want := append([]byte(nil), buf.Data...)
				if err := vm.Kernel.SubmitAligned(p, true, 16, buf); err != nil {
					t.Fatal(err)
				}
				clear(buf.Data)
				if err := vm.Kernel.SubmitAligned(p, false, 16, buf); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(buf.Data, want) {
					t.Fatalf("%v round trip mismatch", kind)
				}
			})
		})
	}
}

func TestRawDeviceBackends(t *testing.T) {
	for _, kind := range []BackendKind{BackendDirect, BackendVirtio, BackendEmulation} {
		t.Run(kind.String(), func(t *testing.T) {
			w := newWorld(t, 4096, nil)
			w.run(t, func(p *sim.Proc) {
				w.boot(t, p)
				vm, err := w.h.NewVM(p, "vm", VMConfig{Backend: kind, RawDevice: true})
				if err != nil {
					t.Fatal(err)
				}
				buf := vm.Kernel.AllocBuffer(8 * 1024)
				for i := range buf.Data {
					buf.Data[i] = byte(i)
				}
				want := append([]byte(nil), buf.Data...)
				if err := vm.Kernel.SubmitAligned(p, true, 100, buf); err != nil {
					t.Fatal(err)
				}
				clear(buf.Data)
				if err := vm.Kernel.SubmitAligned(p, false, 100, buf); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(buf.Data, want) {
					t.Fatalf("%v raw round trip mismatch", kind)
				}
			})
		})
	}
}

func TestVFCreationPermissionDenied(t *testing.T) {
	w := newWorld(t, 4096, nil)
	w.run(t, func(p *sim.Proc) {
		w.boot(t, p)
		w.mkImage(t, p, "/alice.img", 100, 64)
		// Bob (uid 200) cannot map Alice's 0600 image.
		if _, err := w.h.NewVM(p, "mallory", VMConfig{Backend: BackendDirect, DiskPath: "/alice.img", UID: 200}); err == nil {
			t.Fatal("VF creation on a foreign file succeeded")
		}
		// Alice can.
		if _, err := w.h.NewVM(p, "alice", VMConfig{Backend: BackendDirect, DiskPath: "/alice.img", UID: 100}); err != nil {
			t.Fatalf("owner denied: %v", err)
		}
	})
}

func TestLazyAllocationThroughFullStack(t *testing.T) {
	w := newWorld(t, 8192, nil)
	w.run(t, func(p *sim.Proc) {
		w.boot(t, p)
		// Sparse image: size only, no blocks.
		f, err := w.d.HostFS.Create(p, "/sparse.img", 5, 0o600)
		if err != nil {
			t.Fatal(err)
		}
		if err := f.Truncate(p, 256*1024); err != nil {
			t.Fatal(err)
		}
		vm, err := w.h.NewVM(p, "vm", VMConfig{Backend: BackendDirect, DiskPath: "/sparse.img", UID: 5})
		if err != nil {
			t.Fatal(err)
		}
		// Reads of unallocated space return zeros without host involvement.
		buf := vm.Kernel.AllocBuffer(4096)
		buf.Data[0] = 0xFF
		if err := vm.Kernel.SubmitAligned(p, false, 8, buf); err != nil {
			t.Fatal(err)
		}
		for i, b := range buf.Data {
			if b != 0 {
				t.Fatalf("sparse read byte %d = %#x", i, b)
			}
		}
		if w.h.MissInterrupts != 0 {
			t.Fatalf("read of hole raised %d miss interrupts", w.h.MissInterrupts)
		}
		// Writes trigger lazy allocation through the miss path.
		rand.New(rand.NewSource(9)).Read(buf.Data)
		want := append([]byte(nil), buf.Data...)
		if err := vm.Kernel.SubmitAligned(p, true, 8, buf); err != nil {
			t.Fatal(err)
		}
		if w.h.MissInterrupts == 0 {
			t.Fatal("lazy-allocating write raised no miss interrupt")
		}
		clear(buf.Data)
		if err := vm.Kernel.SubmitAligned(p, false, 8, buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Data, want) {
			t.Fatal("lazily allocated data lost")
		}
		// Host filesystem stayed consistent and sees the same data.
		if err := w.d.HostFS.Check(p); err != nil {
			t.Fatal(err)
		}
		got := make([]byte, 4096)
		if _, err := f.ReadAt(p, got, 8*1024); err != nil && err != io.EOF {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatal("host view of lazily allocated data differs")
		}
	})
}

// Two tenants' misses latch together, so the first miss handler's bank
// snapshot shows both. It parks on VF 0 (a management operation holds that
// VF's lock) while the second tenant's own handler services VF 1 to
// completion. When the first handler gets to VF 1's bit its snapshot is stale:
// it must notice the miss is gone instead of servicing it again and writing a
// second rewalk verdict, which would land on whatever miss VF 1 latches next.
func TestStaleMissBankSnapshotIsNotServicedTwice(t *testing.T) {
	w := newWorld(t, 8192, nil)
	w.run(t, func(p *sim.Proc) {
		w.boot(t, p)
		var vms [2]*VM
		for i := range vms {
			path := fmt.Sprintf("/sparse%d.img", i)
			if err := w.d.MkImage(p, path, 5, 256, true); err != nil {
				t.Fatal(err)
			}
			vm, err := w.h.NewVM(p, path, VMConfig{Backend: BackendDirect, DiskPath: path, UID: 5})
			if err != nil {
				t.Fatal(err)
			}
			if vm.Legs[0].VFIdx != i {
				t.Fatalf("VM %d got VF %d", i, vm.Legs[0].VFIdx)
			}
			vms[i] = vm
		}
		w.d.vf(0).lock.Acquire(p) // a management operation holds VF 0
		var done [2]*sim.Signal
		for i, vm := range vms {
			i, vm := i, vm
			done[i] = sim.NewSignal(w.eng)
			w.eng.Go(fmt.Sprintf("writer%d", i), func(q *sim.Proc) {
				defer done[i].Fire()
				buf := vm.Kernel.AllocBuffer(1024)
				buf.Data[0] = byte(0xA0 + i)
				if err := vm.Kernel.SubmitAligned(q, true, 8, buf); err != nil {
					t.Errorf("writer %d: %v", i, err)
				}
			})
		}
		// VF 1's write finishes: its handler serviced the miss while the
		// first handler waits for VF 0's lock with VF 0 marked busy.
		done[1].Await(p)
		if !w.d.vf(0).busy || done[0].Fired() {
			t.Fatal("first handler is not parked on VF 0's lock")
		}
		w.d.vf(0).lock.Release()
		done[0].Await(p)
		// One service, so one rewalk verdict, per latched miss.
		if w.ctl.Misses != 2 || w.h.MissInterrupts != 2 {
			t.Fatalf("%d device misses were serviced %d times, want 2 and 2", w.ctl.Misses, w.h.MissInterrupts)
		}
		for i, vm := range vms {
			buf := vm.Kernel.AllocBuffer(1024)
			if err := vm.Kernel.SubmitAligned(p, false, 8, buf); err != nil || buf.Data[0] != byte(0xA0+i) {
				t.Fatalf("VM %d read back %#x, err %v", i, buf.Data[0], err)
			}
		}
	})
}

func TestPruneAndRegenerateThroughFullStack(t *testing.T) {
	w := newWorld(t, 16384, nil)
	w.run(t, func(p *sim.Proc) {
		w.boot(t, p)
		// A deliberately fragmented image so the tree has several levels.
		f, err := w.d.HostFS.Create(p, "/frag.img", 3, 0o600)
		if err != nil {
			t.Fatal(err)
		}
		blk := make([]byte, 1024)
		for i := 0; i < 300; i++ {
			blk[0] = byte(i)
			if _, err := f.WriteAt(p, blk, int64(i)*2048); err != nil {
				t.Fatal(err)
			}
		}
		vm, err := w.h.NewVM(p, "vm", VMConfig{Backend: BackendDirect, DiskPath: "/frag.img", UID: 3})
		if err != nil {
			t.Fatal(err)
		}
		resident := w.d.VFTree(vm.Legs[0].VFIdx).ResidentBytes()
		freed := w.d.PruneVFTrees(16)
		if freed == 0 {
			t.Fatal("prune freed nothing")
		}
		if w.d.VFTree(vm.Legs[0].VFIdx).ResidentBytes() >= resident {
			t.Fatal("pruning did not shrink the tree")
		}
		missesBefore := w.h.MissInterrupts
		// Read across the whole device: pruned subtrees must regenerate
		// transparently.
		buf := vm.Kernel.AllocBuffer(1024)
		for i := 0; i < 300; i += 37 {
			if err := vm.Kernel.SubmitAligned(p, false, int64(i)*2, buf); err != nil {
				t.Fatal(err)
			}
			if buf.Data[0] != byte(i) {
				t.Fatalf("block %d read %#x after prune", i, buf.Data[0])
			}
		}
		if w.h.MissInterrupts == missesBefore {
			t.Fatal("no regeneration interrupts despite pruning")
		}
	})
}

func TestNestedGuestFilesystem(t *testing.T) {
	w := newWorld(t, 32768, nil)
	w.run(t, func(p *sim.Proc) {
		w.boot(t, p)
		w.mkImage(t, p, "/guestdisk.img", 10, 4096)
		vm, err := w.h.NewVM(p, "vm", VMConfig{Backend: BackendDirect, DiskPath: "/guestdisk.img", UID: 10})
		if err != nil {
			t.Fatal(err)
		}
		gfs, err := vm.Kernel.Mount(p, true, extfs.Params{InodeCount: 64, JournalBlocks: 32, Mode: extfs.JournalMetadata})
		if err != nil {
			t.Fatal(err)
		}
		gf, err := gfs.Create(p, "/nested.txt", 0, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		payload := bytes.Repeat([]byte("nested filesystems! "), 500)
		if _, err := gf.WriteAt(p, payload, 0); err != nil {
			t.Fatal(err)
		}
		if err := gfs.Check(p); err != nil {
			t.Fatal(err)
		}
		vm.Teardown(p)

		// A second VM over the same image sees the same guest filesystem —
		// the nested FS really lives in the file's blocks.
		vm2, err := w.h.NewVM(p, "vm2", VMConfig{Backend: BackendDirect, DiskPath: "/guestdisk.img", UID: 10})
		if err != nil {
			t.Fatal(err)
		}
		gfs2, err := vm2.Kernel.Mount(p, false, extfs.Params{})
		if err != nil {
			t.Fatal(err)
		}
		got := make([]byte, len(payload))
		gf2, err := gfs2.Open(p, "/nested.txt", 0, extfs.PermRead)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := gf2.ReadAt(p, got, 0); err != nil && err != io.EOF {
			t.Fatal(err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatal("nested filesystem content lost across VMs")
		}
	})
}

func TestLatencyOrderingAcrossBackends(t *testing.T) {
	lat := func(kind BackendKind) sim.Time {
		w := newWorld(t, 8192, nil)
		var elapsed sim.Time
		w.run(t, func(p *sim.Proc) {
			w.boot(t, p)
			w.mkImage(t, p, "/d.img", 1, 256)
			vm, err := w.h.NewVM(p, "vm", VMConfig{Backend: kind, DiskPath: "/d.img", UID: 1})
			if err != nil {
				t.Fatal(err)
			}
			buf := vm.Kernel.AllocBuffer(1024)
			// Warm up, then measure.
			if err := vm.Kernel.SubmitAligned(p, true, 0, buf); err != nil {
				t.Fatal(err)
			}
			start := p.Now()
			const n = 20
			for i := 0; i < n; i++ {
				if err := vm.Kernel.SubmitAligned(p, true, int64(i), buf); err != nil {
					t.Fatal(err)
				}
			}
			elapsed = (p.Now() - start) / n
		})
		return elapsed
	}
	nesc := lat(BackendDirect)
	vio := lat(BackendVirtio)
	emu := lat(BackendEmulation)
	t.Logf("1KB write latency: nesc=%v virtio=%v emul=%v", nesc, vio, emu)
	if !(nesc < vio && vio < emu) {
		t.Fatalf("latency ordering violated: nesc=%v virtio=%v emul=%v", nesc, vio, emu)
	}
	if float64(vio)/float64(nesc) < 3 {
		t.Fatalf("virtio/nesc ratio %.1f too small (paper: >6x for small accesses)", float64(vio)/float64(nesc))
	}
	if float64(emu)/float64(nesc) < 8 {
		t.Fatalf("emulation/nesc ratio %.1f too small (paper: >20x)", float64(emu)/float64(nesc))
	}
}

func TestMultiVMFairShare(t *testing.T) {
	w := newWorld(t, 16384, nil)
	var ends [2]sim.Time
	w.eng.Go("main", func(p *sim.Proc) {
		w.boot(t, p)
		for i := 0; i < 2; i++ {
			path := []string{"/a.img", "/b.img"}[i]
			w.mkImage(t, p, path, uint32(i+1), 2048)
			vm, err := w.h.NewVM(p, path, VMConfig{Backend: BackendDirect, DiskPath: path, UID: uint32(i + 1)})
			if err != nil {
				t.Error(err)
				return
			}
			w.eng.Go("vmload", func(q *sim.Proc) {
				buf := vm.Kernel.AllocBuffer(64 * 1024)
				for r := 0; r < 16; r++ {
					if err := vm.Kernel.SubmitAligned(q, true, int64(r*64), buf); err != nil {
						t.Error(err)
						return
					}
				}
				ends[i] = q.Now()
			})
		}
	})
	w.eng.Run()
	w.eng.Shutdown()
	if ends[0] == 0 || ends[1] == 0 {
		t.Fatal("a VM did not finish")
	}
	ratio := float64(ends[0]) / float64(ends[1])
	if ratio < 0.7 || ratio > 1.4 {
		t.Fatalf("unfair multiplexing: %v vs %v", ends[0], ends[1])
	}
}

func TestVFTeardownReuse(t *testing.T) {
	w := newWorld(t, 4096, nil)
	w.run(t, func(p *sim.Proc) {
		w.boot(t, p)
		w.mkImage(t, p, "/x.img", 1, 64)
		for i := 0; i < 10; i++ {
			vm, err := w.h.NewVM(p, "vm", VMConfig{Backend: BackendDirect, DiskPath: "/x.img", UID: 1})
			if err != nil {
				t.Fatalf("iteration %d: %v", i, err)
			}
			if vm.Legs[0].VFIdx != 0 {
				t.Fatalf("iteration %d: VF index %d, want reuse of 0", i, vm.Legs[0].VFIdx)
			}
			vm.Teardown(p)
		}
		if w.ctl.SRIOV().NumEnabled != 0 {
			t.Fatalf("SR-IOV enabled count = %d after teardown", w.ctl.SRIOV().NumEnabled)
		}
	})
}

func TestIOMMUModeSkipsTrampolines(t *testing.T) {
	w := newWorld(t, 4096, func(p *Params) { p.UseIOMMU = true })
	w.run(t, func(p *sim.Proc) {
		w.boot(t, p)
		w.mkImage(t, p, "/d.img", 1, 128)
		vm, err := w.h.NewVM(p, "vm", VMConfig{Backend: BackendDirect, DiskPath: "/d.img", UID: 1})
		if err != nil {
			t.Fatal(err)
		}
		buf := vm.Kernel.AllocBuffer(16 * 1024)
		rand.New(rand.NewSource(4)).Read(buf.Data)
		want := append([]byte(nil), buf.Data...)
		if err := vm.Kernel.SubmitAligned(p, true, 0, buf); err != nil {
			t.Fatal(err)
		}
		clear(buf.Data)
		if err := vm.Kernel.SubmitAligned(p, false, 0, buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Data, want) {
			t.Fatal("IOMMU-mode round trip mismatch")
		}
		if vm.Legs[0].Drv.TrampolineCopies != 0 {
			t.Fatalf("IOMMU mode made %d trampoline copies", vm.Legs[0].Drv.TrampolineCopies)
		}
	})
}
