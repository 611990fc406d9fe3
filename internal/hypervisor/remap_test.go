package hypervisor

import (
	"fmt"
	"slices"
	"testing"

	"nesc/internal/extent"
	"nesc/internal/ring"
	"nesc/internal/sim"
)

// Two VFs exporting one sparse file take lazy-allocation misses at the same
// time, so one handler sweep services both and their remaps of the shared
// tree interleave. Afterwards every sharer's root register must name the
// tree's root and the serialized tree must be the file's extent map.
func TestConcurrentSharerMissesLeaveOneTree(t *testing.T) {
	w := newWorld(t, 8192, nil)
	w.run(t, func(p *sim.Proc) {
		w.boot(t, p)
		if err := w.d.MkImage(p, "/shared.img", 0, 512, true); err != nil {
			t.Fatal(err)
		}
		var vms [2]*VM
		for i := range vms {
			vm, err := w.h.NewVM(p, fmt.Sprintf("vm%d", i), VMConfig{Backend: BackendDirect, DiskPath: "/shared.img", UID: 0})
			if err != nil {
				t.Fatal(err)
			}
			vms[i] = vm
		}
		if !w.d.SharesTreeWith(vms[0].Legs[0].VFIdx, vms[1].Legs[0].VFIdx) {
			t.Fatal("two VFs on one file did not share the extent tree")
		}
		for round := 0; round < 4; round++ {
			var done [2]*sim.Signal
			for i, vm := range vms {
				i, vm := i, vm
				done[i] = sim.NewSignal(w.eng)
				w.eng.Go(fmt.Sprintf("writer%d", i), func(q *sim.Proc) {
					defer done[i].Fire()
					buf := vm.Kernel.AllocBuffer(1024)
					buf.Data[0] = byte(0xA0 + i)
					// Far-apart holes, so every write adds an extent.
					if err := vm.Kernel.SubmitAligned(q, true, int64(16*round+128*i), buf); err != nil {
						t.Errorf("writer %d: %v", i, err)
					}
				})
			}
			done[0].Await(p)
			done[1].Await(p)
		}
		if w.h.MissInterrupts < 8 {
			t.Fatalf("%d miss services, want one per write", w.h.MissInterrupts)
		}
		tree := w.d.VFTree(vms[0].Legs[0].VFIdx)
		for i, vm := range vms {
			if got := w.h.mmioR(p, w.d.mgmtAddr(vm.Legs[0].VFIdx)+ring.MgmtTreeRoot); int64(got) != tree.Root() {
				t.Fatalf("VF of vm%d walks root %#x, the shared tree's is %#x", i, got, tree.Root())
			}
		}
		want := w.d.vf(vms[0].Legs[0].VFIdx).shared.file.Extents()
		got, err := extent.CollectRuns(w.mem, tree.Root(), tree.Fanout())
		if err != nil || len(want) != 8 || !slices.Equal(got, want) {
			t.Fatalf("serialized tree %+v (%v), file's extent map %+v", got, err, want)
		}
	})
}

// A miss is one host-filesystem operation (paper Fig. 5b's "filesystem
// query", which MissHandlerTime prices): the export holds the file open, so
// the service allocates or breaks the share through the handle and rebuilds
// the tree from the inode's own extent map, resolving no path and reading no
// directory. Both a lazy-allocation miss and a CoW-break miss count exactly one
// HostFS operation.
func TestMissServiceIsOneHostFilesystemOperation(t *testing.T) {
	w := newWorld(t, 8192, nil)
	w.run(t, func(p *sim.Proc) {
		vm := w.directVM(t, p, 64, true)
		buf := vm.Kernel.AllocBuffer(1024)
		write := func(what string, cow int64) {
			t.Helper()
			ops, misses, breaks := w.d.HostFS.Ops, w.h.MissInterrupts, w.h.CowBreaks
			if err := vm.Kernel.SubmitAligned(p, true, 5, buf); err != nil {
				t.Fatal(err)
			}
			if n := w.h.MissInterrupts - misses; n != 1 || w.h.CowBreaks-breaks != cow {
				t.Fatalf("%s: %d miss services, %d CoW breaks; want one miss", what, n, w.h.CowBreaks-breaks)
			}
			if n := w.d.HostFS.Ops - ops; n != 1 {
				t.Errorf("%s miss ran %d host-filesystem operations, want 1", what, n)
			}
		}
		write("lazy-allocation", 0)
		if err := w.d.SnapshotVF(p, vm.Legs[0].VFIdx, "/disk.snap", 9); err != nil {
			t.Fatal(err)
		}
		write("CoW-break", 1)
	})
}

// A miss edits only the tree's path to the missed range, but a pruned tree has
// no path to edit there: its next miss regenerates the whole tree, so a read
// of a second range the prune detached takes no miss of its own.
func TestPrunedTreesNextMissRebuildsItInFull(t *testing.T) {
	w := newWorld(t, 16384, nil)
	w.run(t, func(p *sim.Proc) {
		w.boot(t, p)
		// 300 one-block extents at every other block: 30 leaves under 3 inner
		// nodes under the root.
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
		tree := w.d.VFTree(vm.Legs[0].VFIdx)
		nodes := tree.Nodes()
		if freed := w.d.PruneVFTrees(20); freed != 22 {
			t.Fatalf("pruned %d nodes, want the first two inner nodes' subtrees (22)", freed)
		}
		buf := vm.Kernel.AllocBuffer(1024)
		read := func(i int, wantMisses int64) {
			t.Helper()
			before := w.h.MissInterrupts
			if err := vm.Kernel.SubmitAligned(p, false, int64(i)*2, buf); err != nil {
				t.Fatal(err)
			}
			if buf.Data[0] != byte(i) {
				t.Fatalf("extent %d read %#x", i, buf.Data[0])
			}
			if got := w.h.MissInterrupts - before; got != wantMisses {
				t.Fatalf("a read of extent %d took %d misses, want %d", i, got, wantMisses)
			}
		}
		read(5, 1) // under the first pruned inner node: regenerates
		if tree.Nodes() != nodes {
			t.Fatalf("the regenerated tree has %d nodes, the one built at export %d", tree.Nodes(), nodes)
		}
		read(150, 0) // under the second: already back
	})
}
