package core

import (
	"fmt"
	"math"
	"testing"

	"nesc/internal/extent"
	"nesc/internal/ring"
	"nesc/internal/sim"
)

// TestDMAAddressOutsideHostMemoryFaultsTheRequest holds the device to the
// paper's isolation claim for the one word of a descriptor nothing else checks:
// the buffer address is the guest's, so a transfer to or from an address that
// is not host memory must end as StatusDMAFault on that guest's own request —
// with the IOMMU off (the default, which admits everything) and with it on
// (whose grant check must not be wrapped by an address near 2^63).
func TestDMAAddressOutsideHostMemoryFaultsTheRequest(t *testing.T) {
	const memSize = 32 << 20 // newRig's host memory
	addrs := []int64{memSize - 512, memSize, 1 << 40, math.MaxInt64 - 100, -4096}
	ops := []struct {
		name string
		op   uint32
		lba  uint64
	}{{"read", ring.OpRead, 0}, {"write", ring.OpWrite, 1}, {"hole-read", ring.OpRead, 3}}
	for _, iommu := range []bool{false, true} {
		for _, op := range ops {
			for _, addr := range addrs {
				t.Run(fmt.Sprintf("iommu=%v/%s/%#x", iommu, op.name, addr), func(t *testing.T) {
					r := newRig(t, smallParams())
					tr := r.buildTree([]extent.Run{{Logical: 0, Physical: 50, Count: 2}})
					if iommu {
						// The PF fetches rings and walks trees anywhere; the VF is
						// granted a window that ends where host memory does.
						r.fab.IOMMU().Enable()
						r.fab.IOMMU().Grant(r.ctl.PF().ID(), 0, memSize)
						r.fab.IOMMU().Grant(r.ctl.VF(0).ID(), memSize-4096, 4096)
					}
					status, done := uint32(0), false
					r.eng.Go("guest", func(p *sim.Proc) {
						r.setVF(p, 0, tr.Root(), 4)
						d := r.openFunction(p, 1)
						status = d.io(p, op.op, op.lba, 1, addr)
						done = true
					})
					r.eng.RunUntil(sim.Second)
					r.eng.Shutdown()
					if !done {
						t.Fatal("the request never completed")
					}
					if status != ring.StatusDMAFault {
						t.Errorf("status %d, want StatusDMAFault", status)
					}
					if r.ctl.Medium.Writes != 0 {
						t.Errorf("%d writes reached the medium", r.ctl.Medium.Writes)
					}
				})
			}
		}
	}
}

// TestQueueAndTreeBasesOutsideHostMemoryDropTheWork covers the other addresses
// a guest or the host programs: a ring, completion-ring or shadow-doorbell base
// and a tree root outside host memory cost that function its own doorbell,
// completion or walk, and nothing else.
func TestQueueAndTreeBasesOutsideHostMemoryDropTheWork(t *testing.T) {
	const outside = 1 << 40
	for _, reg := range []string{"ring", "cpl", "shadow", "root"} {
		t.Run(reg, func(t *testing.T) {
			r := newRig(t, smallParams())
			tr := r.buildTree([]extent.Run{{Logical: 0, Physical: 50, Count: 2}})
			buf := r.mem.MustAlloc(4096, 64)
			r.eng.Go("guest", func(p *sim.Proc) {
				root := tr.Root()
				if reg == "root" {
					root = outside
				}
				r.setVF(p, 0, root, 4)
				d := r.openFunction(p, 1)
				switch reg {
				case "ring":
					r.mmioW(p, d.qOff+ring.QRegRingBase, outside)
				case "cpl":
					r.mmioW(p, d.qOff+ring.QRegCplBase, outside)
				case "shadow":
					r.mmioW(p, d.qOff+ring.QRegShadow, outside)
				}
				var desc [ring.DescBytes]byte
				ring.EncodeDescriptor(desc[:], ring.OpRead, 1, 0, 1, buf)
				if err := r.mem.Write(d.ringBase, desc[:]); err != nil {
					t.Error(err)
				}
				r.mmioW(p, d.qOff+ring.QRegDoorbell, 1)
			})
			r.eng.RunUntil(sim.Second)
			r.eng.Shutdown()
			vf := r.ctl.VF(0)
			if vf.Inflight() != 0 {
				t.Errorf("%d requests still in flight", vf.Inflight())
			}
			c := r.ctl.Counters()
			switch reg {
			case "ring":
				if c.FetchDrops == 0 {
					t.Error("a ring outside host memory dropped no fetch")
				}
			case "cpl":
				if c.CplDrops == 0 {
					t.Error("a completion ring outside host memory dropped no completion")
				}
			}
		})
	}
}
