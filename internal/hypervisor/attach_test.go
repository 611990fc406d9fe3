package hypervisor

import (
	"testing"

	"nesc/internal/fabric"
	"nesc/internal/sim"
)

// TestFailedAttachLeaksNothing walks the points at which building a VM's
// legs can fail. After the error no VF may be exported or enabled on any
// device, only the two PF routes may remain, and the next valid VM gets VF 0.
func TestFailedAttachLeaksNothing(t *testing.T) {
	direct := VMConfig{Backend: BackendDirect, DiskPath: "/d.img", UID: 1}
	cases := []struct {
		name string
		// images lists, per device, the size in blocks of /d.img (0 = absent).
		images  [2]uint64
		cfg     VMConfig
		devices []int // nil = NewVM on device 0, else NewMirroredVM
	}{
		{name: "image missing", cfg: direct},
		{name: "driver rings exceed host memory", images: [2]uint64{64, 0},
			cfg: VMConfig{Backend: BackendDirect, DiskPath: "/d.img", UID: 1, VFRingEntries: 1 << 24}},
		{name: "image missing on the second mirror device", images: [2]uint64{64, 0}, cfg: direct, devices: []int{0, 1}},
		{name: "second mirror device outside the fleet", images: [2]uint64{64, 64}, cfg: direct, devices: []int{0, 2}},
		{name: "mirror replicas differ in size", images: [2]uint64{64, 32}, cfg: direct, devices: []int{0, 1}},
		// Two legs on one device would share one tree: K = 2 over one copy.
		{name: "mirror lists a device twice", images: [2]uint64{64, 64}, cfg: direct, devices: []int{0, 0}},
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
			var err error
			if tc.devices == nil {
				_, err = w.h.NewVM(p, "vm", tc.cfg)
			} else {
				_, err = w.h.NewMirroredVM(p, "vm", tc.cfg, tc.devices, fabric.Config{})
			}
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
			if len(w.h.qps) != 2 {
				t.Errorf("%s: %d interrupt routes, want the two PF routes", tc.name, len(w.h.qps))
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
