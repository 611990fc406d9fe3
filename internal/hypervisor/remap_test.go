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
// time, so one handler sweep services both and both remaps fill the shared
// tree's one run buffer. Afterwards every sharer's root register must name the
// tree's root and the serialized tree must be the file's extent map.
func TestSharersRemapThroughOneBuffer(t *testing.T) {
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
		want, _, err := w.d.HostFS.Runs(p, "/shared.img")
		if err != nil {
			t.Fatal(err)
		}
		got, err := extent.CollectRuns(w.mem, tree.Root(), tree.Fanout())
		if err != nil || len(want) != 8 || !slices.Equal(got, want) {
			t.Fatalf("serialized tree %+v (%v), file's extent map %+v", got, err, want)
		}
	})
}
