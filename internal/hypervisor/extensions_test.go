package hypervisor

import (
	"bytes"
	"io"
	"math/rand"
	"testing"

	"nesc/internal/guest"
	"nesc/internal/sim"
)

// Tests for the paper's §IV-D / §V-B extensions: shared extent trees, QoS
// weights, and host-side block migration with the BTLB flush.

func TestSharedExtentTree(t *testing.T) {
	w := newWorld(t, 8192, nil)
	w.run(t, func(p *sim.Proc) {
		w.boot(t, p)
		w.mkImage(t, p, "/shared.img", 0, 512)
		// Two VMs map the same file (world-accessible would be needed for
		// different uids; use the owner for both).
		vm1, err := w.h.NewVM(p, "vm1", VMConfig{Backend: BackendDirect, DiskPath: "/shared.img", UID: 0})
		if err != nil {
			t.Fatal(err)
		}
		vm2, err := w.h.NewVM(p, "vm2", VMConfig{Backend: BackendDirect, DiskPath: "/shared.img", UID: 0})
		if err != nil {
			t.Fatal(err)
		}
		if !w.d.SharesTreeWith(vm1.Legs[0].VFIdx, vm2.Legs[0].VFIdx) {
			t.Fatal("two VFs on one file did not share the extent tree")
		}
		// Data written by one VM is visible to the other: same blocks.
		msg := bytes.Repeat([]byte{0x42}, 4096)
		buf1 := vm1.Kernel.AllocBuffer(4096)
		copy(buf1.Data, msg)
		if err := vm1.Kernel.SubmitAligned(p, true, 8, buf1); err != nil {
			t.Fatal(err)
		}
		buf2 := vm2.Kernel.AllocBuffer(4096)
		if err := vm2.Kernel.SubmitAligned(p, false, 8, buf2); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf2.Data, msg) {
			t.Fatal("shared file: vm2 did not observe vm1's write")
		}
		// Destroying one sharer keeps the tree alive for the other.
		vm1.Teardown(p)
		if err := vm2.Kernel.SubmitAligned(p, false, 8, buf2); err != nil {
			t.Fatalf("surviving sharer broken after teardown: %v", err)
		}
		vm2.Teardown(p)
		if len(w.d.trees) != 0 {
			t.Fatalf("%d trees leaked after both sharers died", len(w.d.trees))
		}
	})
}

func TestSharedTreeMissRebuildUpdatesAllSharers(t *testing.T) {
	w := newWorld(t, 8192, nil)
	w.run(t, func(p *sim.Proc) {
		w.boot(t, p)
		// Sparse shared image: vm1's write triggers lazy allocation and a
		// tree rebuild; vm2's register must be updated too or its next walk
		// would chase freed nodes.
		f, err := w.d.HostFS.Create(p, "/ss.img", 0, 0o600)
		if err != nil {
			t.Fatal(err)
		}
		if err := f.Truncate(p, 512*1024); err != nil {
			t.Fatal(err)
		}
		vm1, err := w.h.NewVM(p, "vm1", VMConfig{Backend: BackendDirect, DiskPath: "/ss.img", UID: 0})
		if err != nil {
			t.Fatal(err)
		}
		vm2, err := w.h.NewVM(p, "vm2", VMConfig{Backend: BackendDirect, DiskPath: "/ss.img", UID: 0})
		if err != nil {
			t.Fatal(err)
		}
		payload := bytes.Repeat([]byte{0x77}, 8192)
		b1 := vm1.Kernel.AllocBuffer(8192)
		copy(b1.Data, payload)
		if err := vm1.Kernel.SubmitAligned(p, true, 64, b1); err != nil {
			t.Fatal(err)
		}
		if w.h.MissInterrupts == 0 {
			t.Fatal("no lazy-allocation miss")
		}
		// vm2 walks the rebuilt tree.
		b2 := vm2.Kernel.AllocBuffer(8192)
		if err := vm2.Kernel.SubmitAligned(p, false, 64, b2); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b2.Data, payload) {
			t.Fatal("vm2 read stale data after shared-tree rebuild")
		}
	})
}

func TestQoSWeightsSkewService(t *testing.T) {
	w := newWorld(t, 32768, nil)
	var done [2]int64
	w.eng.Go("main", func(p *sim.Proc) {
		w.boot(t, p)
		var vms [2]*VM
		for i := 0; i < 2; i++ {
			path := []string{"/qa.img", "/qb.img"}[i]
			w.mkImage(t, p, path, uint32(i+1), 8192)
			weight := 1
			if i == 0 {
				weight = 8
			}
			vm, err := w.h.NewVM(p, path, VMConfig{
				Backend: BackendDirect, DiskPath: path, UID: uint32(i + 1), IOWeight: weight,
			})
			if err != nil {
				t.Error(err)
				return
			}
			vms[i] = vm
		}
		stop := false
		for i := 0; i < 2; i++ {
			w.eng.Go("load", func(q *sim.Proc) {
				buf := vms[i].Kernel.AllocBuffer(64 * 1024)
				for !stop {
					if err := vms[i].Kernel.SubmitAligned(q, true, int64(done[i]/1024)%4096, buf); err != nil {
						t.Error(err)
						return
					}
					done[i] += 64 * 1024
				}
			})
		}
		p.Sleep(2 * sim.Millisecond)
		done[0], done[1] = 0, 0
		p.Sleep(8 * sim.Millisecond)
		stop = true
	})
	w.eng.Run()
	w.eng.Shutdown()
	if done[0] == 0 || done[1] == 0 {
		t.Fatal("a VM made no progress")
	}
	ratio := float64(done[0]) / float64(done[1])
	if ratio < 1.5 {
		t.Fatalf("weight 8:1 achieved only %.2fx service skew", ratio)
	}
}

func TestMigrationWithBTLBFlushIsTransparent(t *testing.T) {
	w := newWorld(t, 16384, nil)
	w.run(t, func(p *sim.Proc) {
		w.boot(t, p)
		w.mkImage(t, p, "/m.img", 3, 1024)
		vm, err := w.h.NewVM(p, "vm", VMConfig{Backend: BackendDirect, DiskPath: "/m.img", UID: 3})
		if err != nil {
			t.Fatal(err)
		}
		data := make([]byte, 64*1024)
		rand.New(rand.NewSource(12)).Read(data)
		buf := vm.Kernel.AllocBuffer(int64(len(data)))
		copy(buf.Data, data)
		if err := vm.Kernel.SubmitAligned(p, true, 0, buf); err != nil {
			t.Fatal(err)
		}
		// Warm the BTLB with reads.
		if err := vm.Kernel.SubmitAligned(p, false, 0, buf); err != nil {
			t.Fatal(err)
		}
		runsBefore, _, err := w.d.HostFS.Runs(p, "/m.img")
		if err != nil {
			t.Fatal(err)
		}
		if err := w.d.MigrateVFFile(p, vm.Legs[0].VFIdx); err != nil {
			t.Fatal(err)
		}
		runsAfter, _, err := w.d.HostFS.Runs(p, "/m.img")
		if err != nil {
			t.Fatal(err)
		}
		if runsBefore[0].Physical == runsAfter[0].Physical {
			t.Fatal("migration did not move any blocks")
		}
		// The VM reads the same content from the new location.
		clear(buf.Data)
		if err := vm.Kernel.SubmitAligned(p, false, 0, buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Data, data) {
			t.Fatal("data lost across migration")
		}
		if err := w.d.HostFS.Check(p); err != nil {
			t.Fatal(err)
		}
	})
}

func TestMigrationWithoutBTLBFlushServesStaleBlocks(t *testing.T) {
	// The hazard §V-B's flush requirement exists to prevent: after blocks
	// move, a stale BTLB entry still translates to the old physical blocks.
	w := newWorld(t, 16384, nil)
	w.run(t, func(p *sim.Proc) {
		w.boot(t, p)
		w.mkImage(t, p, "/m.img", 3, 64)
		vm, err := w.h.NewVM(p, "vm", VMConfig{Backend: BackendDirect, DiskPath: "/m.img", UID: 3})
		if err != nil {
			t.Fatal(err)
		}
		buf := vm.Kernel.AllocBuffer(4096)
		copy(buf.Data, bytes.Repeat([]byte{0xAA}, 4096))
		if err := vm.Kernel.SubmitAligned(p, true, 0, buf); err != nil {
			t.Fatal(err)
		}
		// Warm the BTLB.
		if err := vm.Kernel.SubmitAligned(p, false, 0, buf); err != nil {
			t.Fatal(err)
		}
		runsBefore, _, _ := w.d.HostFS.Runs(p, "/m.img")
		// MigrateVFFile without its flush — the bug: move the blocks and
		// rebuild the tree, nothing else.
		if err := w.d.HostFS.Migrate(p, "/m.img"); err != nil {
			t.Fatal(err)
		}
		if err := w.d.remap(p, w.d.vf(vm.Legs[0].VFIdx)); err != nil {
			t.Fatal(err)
		}
		// Scribble over the OLD physical location (now free, reused by the
		// host for something else).
		old := runsBefore[0]
		junk := bytes.Repeat([]byte{0xEE}, 4096)
		if err := w.ctl.Medium.Store().WriteBlocks(int64(old.Physical), junk); err != nil {
			t.Fatal(err)
		}
		// Without the flush, the stale BTLB entry serves the junk.
		clear(buf.Data)
		if err := vm.Kernel.SubmitAligned(p, false, 0, buf); err != nil {
			t.Fatal(err)
		}
		if buf.Data[0] != 0xEE {
			t.Fatal("expected stale-read hazard did not occur; BTLB model broken or test stale")
		}
		// The flush repairs it.
		w.d.FlushBTLB(p)
		if err := vm.Kernel.SubmitAligned(p, false, 0, buf); err != nil {
			t.Fatal(err)
		}
		if buf.Data[0] != 0xAA {
			t.Fatal("read still stale after BTLB flush")
		}
	})
}

func TestSoftwareBackendsRejectOutOfRangeIO(t *testing.T) {
	for _, kind := range []BackendKind{BackendVirtio, BackendEmulation} {
		t.Run(kind.String(), func(t *testing.T) {
			w := newWorld(t, 4096, nil)
			w.run(t, func(p *sim.Proc) {
				w.boot(t, p)
				w.mkImage(t, p, "/small.img", 1, 64)
				vm, err := w.h.NewVM(p, "vm", VMConfig{Backend: kind, DiskPath: "/small.img", UID: 1})
				if err != nil {
					t.Fatal(err)
				}
				buf := vm.Kernel.AllocBuffer(4096)
				// 64-block disk: reading block 100 must fail cleanly.
				if err := vm.Kernel.SubmitAligned(p, false, 100, buf); err == nil {
					t.Error("out-of-range read succeeded")
				}
				// The device still works afterwards.
				if err := vm.Kernel.SubmitAligned(p, false, 0, buf); err != nil {
					t.Errorf("backend wedged after error: %v", err)
				}
			})
		})
	}
}

func TestVirtioImageShorterThanDiskReadsZeros(t *testing.T) {
	w := newWorld(t, 8192, nil)
	w.run(t, func(p *sim.Proc) {
		w.boot(t, p)
		// Sparse image: size 256 blocks, nothing allocated.
		f, err := w.d.HostFS.Create(p, "/sparse.img", 1, 0o600)
		if err != nil {
			t.Fatal(err)
		}
		if err := f.Truncate(p, 256*1024); err != nil {
			t.Fatal(err)
		}
		vm, err := w.h.NewVM(p, "vm", VMConfig{Backend: BackendVirtio, DiskPath: "/sparse.img", UID: 1})
		if err != nil {
			t.Fatal(err)
		}
		buf := vm.Kernel.AllocBuffer(8192)
		buf.Data[0] = 0xFF
		if err := vm.Kernel.SubmitAligned(p, false, 100, buf); err != nil {
			t.Fatal(err)
		}
		for i, b := range buf.Data {
			if b != 0 {
				t.Fatalf("sparse virtio read byte %d = %#x", i, b)
			}
		}
	})
}

func TestMissHandlerOutOfSpaceFailsWrite(t *testing.T) {
	// Exhaust the host filesystem, then make a VF write that needs
	// allocation: the hypervisor must deny it and the guest must see an
	// I/O error, not a hang (paper §IV-C's write-failure flow).
	w := newWorld(t, 2048, nil)
	w.run(t, func(p *sim.Proc) {
		w.boot(t, p)
		f, err := w.d.HostFS.Create(p, "/sparse.img", 1, 0o600)
		if err != nil {
			t.Fatal(err)
		}
		if err := f.Truncate(p, 1<<20); err != nil {
			t.Fatal(err)
		}
		vm, err := w.h.NewVM(p, "vm", VMConfig{Backend: BackendDirect, DiskPath: "/sparse.img", UID: 1})
		if err != nil {
			t.Fatal(err)
		}
		// Fill the volume with another file.
		hog, err := w.d.HostFS.Create(p, "/hog", 0, 0o600)
		if err != nil {
			t.Fatal(err)
		}
		free := w.d.HostFS.FreeBlocks()
		if _, err := hog.WriteAt(p, make([]byte, free*1024), 0); err != nil {
			t.Fatal(err)
		}
		buf := vm.Kernel.AllocBuffer(4096)
		if err := vm.Kernel.SubmitAligned(p, true, 0, buf); err == nil {
			t.Fatal("write into a full volume succeeded")
		}
		// Reads of holes still work.
		if err := vm.Kernel.SubmitAligned(p, false, 0, buf); err != nil {
			t.Fatalf("device wedged after denied allocation: %v", err)
		}
	})
}

func TestIOMMURevocationFaultsDMA(t *testing.T) {
	// With DMA remapping enforced, revoking a VF's grants makes its data
	// DMAs fault; the device reports the fault as a completion status
	// instead of corrupting memory or hanging.
	w := newWorld(t, 4096, func(p *Params) { p.UseIOMMU = true })
	w.run(t, func(p *sim.Proc) {
		w.boot(t, p)
		w.mkImage(t, p, "/d.img", 1, 128)
		vm, err := w.h.NewVM(p, "vm", VMConfig{Backend: BackendDirect, DiskPath: "/d.img", UID: 1})
		if err != nil {
			t.Fatal(err)
		}
		buf := vm.Kernel.AllocBuffer(4096)
		if err := vm.Kernel.SubmitAligned(p, true, 0, buf); err != nil {
			t.Fatal(err)
		}
		// Pull the VF's IOMMU mappings (e.g. the VM is being torn down).
		w.fab.IOMMU().RevokeAll(w.ctl.VF(vm.Legs[0].VFIdx).ID())
		if err := vm.Kernel.SubmitAligned(p, true, 0, buf); err == nil {
			t.Fatal("DMA after IOMMU revocation succeeded")
		}
	})
}

// Full-stack randomized property: several VMs on mixed backends issue random
// reads and writes against their own images; every VM's view must match a
// shadow model byte-for-byte, the host filesystem must stay consistent, and
// no VM may ever observe another's data.
func TestFullStackRandomIOProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	w := newWorld(t, 32768, nil)
	const vms = 3
	const imgBlocks = 1024 // 1 MB per VM
	kinds := []BackendKind{BackendDirect, BackendVirtio, BackendEmulation}
	w.run(t, func(p *sim.Proc) {
		w.boot(t, p)
		type tenant struct {
			vm     *VM
			shadow []byte
			buf    guest.Buffer
		}
		var ts []*tenant
		for i := 0; i < vms; i++ {
			path := []string{"/r0.img", "/r1.img", "/r2.img"}[i]
			w.mkImage(t, p, path, uint32(i+1), imgBlocks)
			vm, err := w.h.NewVM(p, path, VMConfig{Backend: kinds[i%len(kinds)], DiskPath: path, UID: uint32(i + 1)})
			if err != nil {
				t.Fatal(err)
			}
			ts = append(ts, &tenant{
				vm:     vm,
				shadow: make([]byte, imgBlocks*1024),
				buf:    vm.Kernel.AllocBuffer(32 * 1024),
			})
		}
		for op := 0; op < 250; op++ {
			tn := ts[rng.Intn(len(ts))]
			lba := int64(rng.Intn(imgBlocks - 32))
			blocks := 1 + rng.Intn(16)
			n := blocks * 1024
			sub := guest.Buffer{Addr: tn.buf.Addr, Data: tn.buf.Data[:n]}
			if rng.Intn(2) == 0 {
				rng.Read(sub.Data)
				want := append([]byte(nil), sub.Data...)
				if err := tn.vm.Kernel.SubmitAligned(p, true, lba, sub); err != nil {
					t.Fatalf("op %d write: %v", op, err)
				}
				copy(tn.shadow[lba*1024:], want)
			} else {
				if err := tn.vm.Kernel.SubmitAligned(p, false, lba, sub); err != nil {
					t.Fatalf("op %d read: %v", op, err)
				}
				if !bytes.Equal(sub.Data, tn.shadow[lba*1024:lba*1024+int64(n)]) {
					t.Fatalf("op %d: VM %s view diverged from shadow", op, tn.vm.Name)
				}
			}
		}
		if err := w.d.HostFS.Check(p); err != nil {
			t.Fatal(err)
		}
		// Host-side cross-check: each image equals its shadow.
		for i, tn := range ts {
			path := []string{"/r0.img", "/r1.img", "/r2.img"}[i]
			f, err := w.d.HostFS.Open(p, path, 0, 4)
			if err != nil {
				t.Fatal(err)
			}
			got := make([]byte, len(tn.shadow))
			if _, err := f.ReadAt(p, got, 0); err != nil && err != io.EOF {
				t.Fatal(err)
			}
			if !bytes.Equal(got, tn.shadow) {
				t.Fatalf("host view of %s diverged from shadow", path)
			}
		}
	})
}
