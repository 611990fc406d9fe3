package hypervisor

import (
	"bytes"
	"io"
	"math/rand"
	"testing"

	"nesc/internal/extfs"
	"nesc/internal/sim"
)

// End-to-end CoW snapshot tests: the full stack from a guest write through
// the device's CoW fault, the hypervisor's share break, and the BTLB
// invalidation back to the retried walk.

func readHostFile(t *testing.T, p *sim.Proc, d *Device, path string, n int) []byte {
	t.Helper()
	f, err := d.HostFS.Open(p, path, 0, extfs.PermRead)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, n)
	if _, err := f.ReadAt(p, got, 0); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	return got
}

func TestSnapshotVFCowFaultEndToEnd(t *testing.T) {
	w := newWorld(t, 8192, nil)
	w.run(t, func(p *sim.Proc) {
		w.boot(t, p)
		w.mkImage(t, p, "/vm.img", 100, 256)
		vm, err := w.h.NewVM(p, "vm0", VMConfig{Backend: BackendDirect, DiskPath: "/vm.img", UID: 100})
		if err != nil {
			t.Fatal(err)
		}
		buf := vm.Kernel.AllocBuffer(16 * 1024)
		rand.New(rand.NewSource(11)).Read(buf.Data)
		base := append([]byte(nil), buf.Data...)
		if err := vm.Kernel.SubmitAligned(p, true, 0, buf); err != nil {
			t.Fatal(err)
		}

		if err := w.d.SnapshotVF(p, 0, "/vm.snap", 100); err != nil {
			t.Fatal(err)
		}
		if w.h.Snapshots != 1 {
			t.Fatalf("Snapshots = %d", w.h.Snapshots)
		}
		if w.d.HostFS.SharedBlocks() == 0 {
			t.Fatal("snapshot left no shared blocks")
		}

		// Reads do not fault: fill the BTLB with the (protected) mapping.
		clear(buf.Data)
		if err := vm.Kernel.SubmitAligned(p, false, 0, buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Data, base) {
			t.Fatal("post-snapshot read through VF differs")
		}
		if w.ctl.CowFaults != 0 {
			t.Fatalf("reads raised %d CoW faults", w.ctl.CowFaults)
		}

		// First write to a shared extent must take the miss path: CoW fault
		// raised, share broken, stale BTLB entry invalidated, write retried.
		one := vm.Kernel.AllocBuffer(1024)
		for i := range one.Data {
			one.Data[i] = 0xD7
		}
		if err := vm.Kernel.SubmitAligned(p, true, 3, one); err != nil {
			t.Fatal(err)
		}
		if w.ctl.CowFaults == 0 {
			t.Fatal("first shared write raised no device CoW fault")
		}
		if w.h.CowBreaks == 0 {
			t.Fatal("hypervisor serviced no CoW break")
		}
		if w.ctl.BTLBInvalidations == 0 {
			t.Fatal("CoW break invalidated no BTLB entries")
		}

		// The snapshot still reads the pre-write image; the VF sees its own
		// write.
		want := append([]byte(nil), base...)
		copy(want[3*1024:], one.Data)
		clear(buf.Data)
		if err := vm.Kernel.SubmitAligned(p, false, 0, buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Data, want) {
			t.Fatal("VF does not see its own post-snapshot write")
		}
		if got := readHostFile(t, p, w.d, "/vm.snap", 16*1024); !bytes.Equal(got, base) {
			t.Fatal("guest write leaked into snapshot")
		}

		// The broken block is private now: writing it again must not fault.
		faults := w.ctl.CowFaults
		if err := vm.Kernel.SubmitAligned(p, true, 3, one); err != nil {
			t.Fatal(err)
		}
		if w.ctl.CowFaults != faults {
			t.Fatalf("re-write of private block faulted again (%d -> %d)", faults, w.ctl.CowFaults)
		}
		if err := w.d.HostFS.Check(p); err != nil {
			t.Fatal(err)
		}
	})
}

func TestCloneToNewVFIsolation(t *testing.T) {
	w := newWorld(t, 16384, nil)
	w.run(t, func(p *sim.Proc) {
		w.boot(t, p)
		w.mkImage(t, p, "/parent.img", 100, 256)
		vm1, err := w.h.NewVM(p, "parent", VMConfig{Backend: BackendDirect, DiskPath: "/parent.img", UID: 100})
		if err != nil {
			t.Fatal(err)
		}
		buf := vm1.Kernel.AllocBuffer(32 * 1024)
		rand.New(rand.NewSource(23)).Read(buf.Data)
		base := append([]byte(nil), buf.Data...)
		if err := vm1.Kernel.SubmitAligned(p, true, 0, buf); err != nil {
			t.Fatal(err)
		}

		if err := w.d.CloneVF(p, 0, "/clone.img", 100); err != nil {
			t.Fatal(err)
		}
		cloneIdx, err := w.d.CreateVF(p, "/clone.img", 100)
		if err != nil {
			t.Fatal(err)
		}
		if w.h.Clones != 1 {
			t.Fatalf("Clones = %d", w.h.Clones)
		}
		if w.d.SharesTreeWith(0, cloneIdx) {
			t.Fatal("clone shares the parent's extent tree")
		}
		// Attach a guest to the clone file; its VF shares the clone's tree.
		vm2, err := w.h.NewVM(p, "clone", VMConfig{Backend: BackendDirect, DiskPath: "/clone.img", UID: 100})
		if err != nil {
			t.Fatal(err)
		}
		if !w.d.SharesTreeWith(cloneIdx, vm2.Legs[0].VFIdx) {
			t.Fatal("two VFs on the clone file do not share a tree")
		}

		// Clone reads byte-identical to the parent at snapshot time.
		cbuf := vm2.Kernel.AllocBuffer(32 * 1024)
		if err := vm2.Kernel.SubmitAligned(p, false, 0, cbuf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(cbuf.Data, base) {
			t.Fatal("clone does not read parent's snapshot-time bytes")
		}

		// Diverge both sides on different blocks; neither write may leak
		// into the other disk.
		pw := vm1.Kernel.AllocBuffer(1024)
		for i := range pw.Data {
			pw.Data[i] = 0x11
		}
		if err := vm1.Kernel.SubmitAligned(p, true, 1, pw); err != nil {
			t.Fatal(err)
		}
		cw := vm2.Kernel.AllocBuffer(1024)
		for i := range cw.Data {
			cw.Data[i] = 0x22
		}
		if err := vm2.Kernel.SubmitAligned(p, true, 5, cw); err != nil {
			t.Fatal(err)
		}

		wantParent := append([]byte(nil), base...)
		copy(wantParent[1*1024:], pw.Data)
		wantClone := append([]byte(nil), base...)
		copy(wantClone[5*1024:], cw.Data)

		clear(buf.Data)
		if err := vm1.Kernel.SubmitAligned(p, false, 0, buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Data, wantParent) {
			t.Fatal("parent disk wrong after divergence")
		}
		clear(cbuf.Data)
		if err := vm2.Kernel.SubmitAligned(p, false, 0, cbuf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(cbuf.Data, wantClone) {
			t.Fatal("clone disk wrong after divergence")
		}
		if w.ctl.CowFaults == 0 {
			t.Fatal("divergence raised no CoW faults")
		}
		if err := w.d.HostFS.Check(p); err != nil {
			t.Fatal(err)
		}
	})
}

func TestDeleteSnapshotLifecycle(t *testing.T) {
	w := newWorld(t, 8192, nil)
	w.run(t, func(p *sim.Proc) {
		w.boot(t, p)
		w.mkImage(t, p, "/d.img", 100, 128)
		if _, err := w.h.NewVM(p, "vm", VMConfig{Backend: BackendDirect, DiskPath: "/d.img", UID: 100}); err != nil {
			t.Fatal(err)
		}
		if err := w.d.CloneVF(p, 0, "/d.clone", 100); err != nil {
			t.Fatal(err)
		}
		cloneIdx, err := w.d.CreateVF(p, "/d.clone", 100)
		if err != nil {
			t.Fatal(err)
		}
		// Refused while exported.
		if err := w.d.DeleteSnapshot(p, "/d.clone", 100); err == nil {
			t.Fatal("deleted a snapshot still exported through a VF")
		}
		w.d.DestroyVF(p, cloneIdx)
		if err := w.d.DeleteSnapshot(p, "/d.clone", 100); err != nil {
			t.Fatal(err)
		}
		if w.d.HostFS.SharedBlocks() != 0 {
			t.Fatalf("%d blocks still shared after deleting only snapshot", w.d.HostFS.SharedBlocks())
		}
		if err := w.d.HostFS.Check(p); err != nil {
			t.Fatal(err)
		}
	})
}

// twoOnOneImage boots two direct VMs, A on VF 0 and B on VF 1, exporting the
// same host file and so sharing one device extent tree, with blocks 0-15
// written through A.
func twoOnOneImage(t *testing.T, w *world, p *sim.Proc) (a, b *VM, base []byte) {
	t.Helper()
	w.boot(t, p)
	w.mkImage(t, p, "/s.img", 100, 256)
	var err error
	if a, err = w.h.NewVM(p, "a", VMConfig{Backend: BackendDirect, DiskPath: "/s.img", UID: 100}); err != nil {
		t.Fatal(err)
	}
	if b, err = w.h.NewVM(p, "b", VMConfig{Backend: BackendDirect, DiskPath: "/s.img", UID: 100}); err != nil {
		t.Fatal(err)
	}
	if !w.d.SharesTreeWith(0, 1) {
		t.Fatal("two exports of one file do not share a tree")
	}
	buf := a.Kernel.AllocBuffer(16 * 1024)
	rand.New(rand.NewSource(31)).Read(buf.Data)
	if err := a.Kernel.SubmitAligned(p, true, 0, buf); err != nil {
		t.Fatal(err)
	}
	return a, b, append([]byte(nil), buf.Data...)
}

// A snapshot taken through one VF write-protects the tree every sharer
// walks, so every sharer's cached translations must go — not only the acting
// VF's. Otherwise a sharer keeps writing through its stale unprotected BTLB
// entry, straight into the block the snapshot now owns.
func TestSnapshotInvalidatesEverySharersBTLB(t *testing.T) {
	w := newWorld(t, 8192, nil)
	w.run(t, func(p *sim.Proc) {
		_, b, base := twoOnOneImage(t, w, p)
		one := b.Kernel.AllocBuffer(1024)
		// B writes block 5: its function now caches the unprotected extent.
		copy(one.Data, base[5*1024:6*1024])
		if err := b.Kernel.SubmitAligned(p, true, 5, one); err != nil {
			t.Fatal(err)
		}
		if err := w.d.SnapshotVF(p, 0, "/s.snap", 100); err != nil {
			t.Fatal(err)
		}
		for i := range one.Data {
			one.Data[i] = 0xB5
		}
		if err := b.Kernel.SubmitAligned(p, true, 5, one); err != nil {
			t.Fatal(err)
		}
		if w.ctl.CowFaults == 0 {
			t.Error("sharer's post-snapshot write raised no CoW fault: it used a stale BTLB entry")
		}
		if got := readHostFile(t, p, w.d, "/s.snap", 16*1024); !bytes.Equal(got, base) {
			t.Error("sharer's post-snapshot write landed in the snapshot")
		}
		if err := w.d.HostFS.Check(p); err != nil {
			t.Fatal(err)
		}
	})
}

// The CoW-break twin: when one sharer's write moves a shared block to a
// private copy, the other sharer of the same file must stop reading the old
// physical block through its cached translation.
func TestCowBreakInvalidatesEverySharersBTLB(t *testing.T) {
	w := newWorld(t, 8192, nil)
	w.run(t, func(p *sim.Proc) {
		a, b, base := twoOnOneImage(t, w, p)
		if err := w.d.SnapshotVF(p, 0, "/s.snap", 100); err != nil {
			t.Fatal(err)
		}
		// B reads block 5: its function caches the protected mapping to the
		// block the snapshot shares.
		got := b.Kernel.AllocBuffer(1024)
		if err := b.Kernel.SubmitAligned(p, false, 5, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Data, base[5*1024:6*1024]) {
			t.Fatal("sharer's first read differs from what was written")
		}
		// A breaks the sharing of block 5.
		one := a.Kernel.AllocBuffer(1024)
		for i := range one.Data {
			one.Data[i] = 0xA5
		}
		if err := a.Kernel.SubmitAligned(p, true, 5, one); err != nil {
			t.Fatal(err)
		}
		if w.h.CowBreaks == 0 {
			t.Fatal("write to a shared block serviced no CoW break")
		}
		clear(got.Data)
		if err := b.Kernel.SubmitAligned(p, false, 5, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Data, one.Data) {
			t.Error("sharer still reads the pre-break physical block through a stale BTLB entry")
		}
	})
}
