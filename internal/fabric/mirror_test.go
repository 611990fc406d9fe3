package fabric

import (
	"testing"

	"nesc/internal/blockdev"
	"nesc/internal/core"
	"nesc/internal/extfs"
	"nesc/internal/hostmem"
	"nesc/internal/hypervisor"
	"nesc/internal/pcie"
	"nesc/internal/sim"
)

// TestFailedMirrorAttachLeaksNothing walks the points at which building a
// mirrored VM's legs can fail (the cases moved here with NewMirroredVM from
// the hypervisor's TestFailedAttachLeaksNothing, which keeps the single-leg
// ones). After the error no VF may be exported or enabled on any device, only
// the two PF routes may remain, and the next valid VM gets VF 0.
func TestFailedMirrorAttachLeaksNothing(t *testing.T) {
	direct := hypervisor.VMConfig{Backend: hypervisor.BackendDirect, DiskPath: "/d.img", UID: 1}
	cases := []struct {
		name string
		// images lists, per device, the size in blocks of /d.img (0 = absent).
		images  [2]uint64
		devices []int
	}{
		{name: "image missing on the second mirror device", images: [2]uint64{64, 0}, devices: []int{0, 1}},
		{name: "second mirror device outside the fleet", images: [2]uint64{64, 64}, devices: []int{0, 2}},
		{name: "mirror replicas differ in size", images: [2]uint64{64, 32}, devices: []int{0, 1}},
		// Two legs on one device would share one tree: K = 2 over one copy.
		{name: "mirror lists a device twice", images: [2]uint64{64, 64}, devices: []int{0, 0}},
	}
	for _, tc := range cases {
		eng := sim.NewEngine()
		mem := hostmem.New(256 << 20)
		fab := pcie.New(eng, mem, pcie.DefaultParams())
		h := hypervisor.New(eng, mem, fab, hypervisor.DefaultParams(), core.Sinks{})
		for i := 0; i < 2; i++ {
			cp := core.DefaultParams()
			cp.NumVFs, cp.DeviceID = 8, i
			medium := blockdev.NewMedium(eng, blockdev.NewStore(cp.BlockSize, 8192), blockdev.DefaultMediumParams())
			ctl, err := core.New(eng, fab, medium, cp, core.Sinks{})
			if err != nil {
				t.Fatal(err)
			}
			h.AddDevice(ctl)
		}
		fleet := NewFleet(h, core.Sinks{})
		done := false
		eng.Go("main", func(p *sim.Proc) {
			defer func() { done = true }()
			if err := h.Boot(p, true, extfs.Params{InodeCount: 128, JournalBlocks: 64, Mode: extfs.JournalMetadata}); err != nil {
				t.Error(err)
				return
			}
			for i, blocks := range tc.images {
				if blocks == 0 {
					continue
				}
				if err := h.Device(i).MkImage(p, "/d.img", 1, blocks, false); err != nil {
					t.Error(err)
					return
				}
			}
			_, err := fleet.NewMirroredVM(p, "vm", direct, tc.devices, Config{})
			if err == nil {
				t.Errorf("%s: the VM was built", tc.name)
				return
			}
			t.Logf("%s: %v", tc.name, err)
			for _, d := range h.Devices() {
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
			if n := h.Routes(); n != 2 {
				t.Errorf("%s: %d interrupt routes, want the two PF routes", tc.name, n)
			}
			if n := fleet.Stats().Clients; n != 0 {
				t.Errorf("%s: the fleet counts %d mirrored VMs after the failure", tc.name, n)
			}
			vm, err := h.NewVM(p, "next", direct)
			if err != nil {
				t.Errorf("%s: valid VM after the failure: %v", tc.name, err)
				return
			}
			if vm.Legs[0].VFIdx != 0 {
				t.Errorf("%s: next VM got VF %d, want 0", tc.name, vm.Legs[0].VFIdx)
			}
		})
		eng.Run()
		eng.Shutdown()
		if !done {
			t.Fatalf("%s: main process deadlocked", tc.name)
		}
	}
}
