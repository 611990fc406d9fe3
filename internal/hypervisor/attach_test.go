package hypervisor

import (
	"errors"
	"testing"

	"nesc/internal/extfs"
	"nesc/internal/sim"
)

// TestFailedAttachLeaksNothing walks the points at which building a VM's
// leg can fail. After the error no VF may be exported or enabled on any
// device, only the two PF routes may remain, and the next valid VM gets VF 0.
// (The points at which a mirrored VM's legs can fail are walked the same way
// by TestFailedMirrorAttachLeaksNothing in internal/fabric.)
func TestFailedAttachLeaksNothing(t *testing.T) {
	direct := VMConfig{Backend: BackendDirect, DiskPath: "/d.img", UID: 1}
	cases := []struct {
		name string
		// images lists, per device, the size in blocks of /d.img (0 = absent).
		images [2]uint64
		cfg    VMConfig
	}{
		{name: "image missing", cfg: direct},
		{name: "driver rings exceed host memory", images: [2]uint64{64, 0},
			cfg: VMConfig{Backend: BackendDirect, DiskPath: "/d.img", UID: 1, VFRingEntries: 1 << 24}},
	}
	for _, tc := range cases {
		w := newWorld(t, 8192, nil)
		w.addDevice(t, w.ctl.P, 8192)
		w.run(t, func(p *sim.Proc) {
			w.boot(t, p)
			for i, blocks := range tc.images {
				if blocks == 0 {
					continue
				}
				if err := w.h.Device(i).MkImage(p, "/d.img", 1, blocks, false); err != nil {
					t.Fatal(err)
				}
			}
			_, err := w.h.NewVM(p, "vm", tc.cfg)
			if err == nil {
				t.Fatalf("%s: the VM was built", tc.name)
			}
			t.Logf("%s: %v", tc.name, err)
			for _, d := range w.h.Devices() {
				for idx := 0; idx < d.Ctl.P.NumVFs; idx++ {
					if d.VFInUse(idx) {
						t.Errorf("%s: device %d VF %d still exported after %v", tc.name, d.Idx, idx, err)
					}
				}
				if n := d.Ctl.SRIOV().NumEnabled; n != 0 {
					t.Errorf("%s: device %d still has %d VFs enabled", tc.name, d.Idx, n)
				}
				if leased, _ := d.QueuePoolStatus(p); leased != 1 {
					t.Errorf("%s: device %d has %d queue pairs leased, want the PF's 1", tc.name, d.Idx, leased)
				}
			}
			if n := w.h.Routes(); n != 2 {
				t.Errorf("%s: %d interrupt routes, want the two PF routes", tc.name, n)
			}
			if tc.images[0] == 0 {
				w.mkImage(t, p, "/d.img", 1, 64)
			}
			vm, err := w.h.NewVM(p, "next", direct)
			if err != nil {
				t.Fatalf("%s: valid VM after the failure: %v", tc.name, err)
			}
			if vm.Legs[0].VFIdx != 0 {
				t.Errorf("%s: next VM got VF %d, want 0", tc.name, vm.Legs[0].VFIdx)
			}
		})
	}
}

// TestFailedMkImageLeavesNothing: an image that cannot be preallocated (32 MB
// on an 8 MB medium) is removed again — no file, no blocks held, a consistent
// filesystem — so the smaller retry under the same name succeeds.
func TestFailedMkImageLeavesNothing(t *testing.T) {
	w := newWorld(t, 8192, nil)
	w.run(t, func(p *sim.Proc) {
		w.boot(t, p)
		w.mkImage(t, p, "/other.img", 1, 64) // the root directory has its first block from here on
		free := w.d.HostFS.FreeBlocks()
		err := w.d.MkImage(p, "/big.img", 1, 32<<10, false)
		if !errors.Is(err, extfs.ErrNoSpace) {
			t.Fatalf("32 MB image on an 8 MB medium: %v, want ErrNoSpace", err)
		}
		if _, err := w.d.HostFS.Stat(p, "/big.img", 1); !errors.Is(err, extfs.ErrNotExist) {
			t.Errorf("the failed image is still there (Stat: %v)", err)
		}
		if got := w.d.HostFS.FreeBlocks(); got != free {
			t.Errorf("%d free blocks after the failed create, %d before it", got, free)
		}
		if err := w.d.HostFS.Check(p); err != nil {
			t.Errorf("filesystem check after the failed create: %v", err)
		}
		if err := w.d.MkImage(p, "/big.img", 1, 1<<10, false); err != nil {
			t.Errorf("1 MB retry under the same name: %v", err)
		}
	})
}
