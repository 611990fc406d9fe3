package core

import (
	"testing"

	"nesc/internal/extent"
	"nesc/internal/ring"
	"nesc/internal/sim"
)

// FuzzGuestDescriptor feeds the device the bytes a guest controls: a request
// descriptor, the ring size it programs and the producer index it rings. The
// VF exports four blocks (two mapped, two holes), its data DMA is confined by
// the IOMMU to one buffer, and a denying miss handler stands in for the
// hypervisor. Whatever the bytes, the device must not panic, must complete
// everything it fetched within a bounded virtual time, and must never report
// StatusOK — or execute a chunk — for a range outside the VF or an opcode it
// does not know.
func FuzzGuestDescriptor(f *testing.F) {
	const vfBlocks = 4
	desc := func(op uint32, lba uint64, count uint32, bufOff int64) []byte {
		b := make([]byte, ring.DescBytes)
		ring.EncodeDescriptorPI(b, op, 7, lba, count, bufOff, 0)
		return b
	}
	// The legal shapes; the adversarial ones (wrapping ranges, an unknown
	// opcode, a rejected ring size, an incoherent doorbell, a buffer outside
	// the grant) are checked in under testdata/fuzz/FuzzGuestDescriptor.
	f.Add(desc(ring.OpRead, 0, 4, 0), uint64(testRing), uint32(1))
	f.Add(desc(ring.OpWrite, 1, 1, 1024), uint64(testRing), uint32(testRing))
	f.Add(desc(ring.OpWrite, 2, 2, 0), uint64(8), uint32(3)) // into the holes: denied misses
	f.Add(desc(ring.OpVerify|ring.OpFlagPI, 0, 2, 0), uint64(testRing), uint32(1))
	f.Add(desc(ring.OpRead|0xFFFFFE00, 0, 2, 0), uint64(testRing), uint32(testRing)) // every flag bit

	f.Fuzz(func(t *testing.T, d []byte, ringSize uint64, doorbell uint32) {
		if len(d) != ring.DescBytes {
			t.Skip("a descriptor is exactly ring.DescBytes")
		}
		r := newRig(t, smallParams())
		tr := r.buildTree([]extent.Run{{Logical: 0, Physical: 50, Count: 2}})
		mgmt := r.bar + r.ctl.MgmtPageOffset()
		r.missHandler = func(p *sim.Proc) {
			r.mmioW(p, mgmt+ring.MgmtRewalk, ring.RewalkFail)
		}
		entries := uint32(testRing)
		if ring.ValidSize(ringSize) {
			entries = uint32(ringSize)
		}
		ringBase := r.mem.MustAlloc(int64(entries)*ring.DescBytes, 64)
		cplBase := r.mem.MustAlloc(int64(entries)*ring.CplBytes, 64)
		buf := r.mem.MustAlloc(4096, 4096)
		// The descriptor's buffer word is an offset from the granted buffer, so
		// small values exercise the data path and large ones the IOMMU — or,
		// under an even request id, the fabric with the IOMMU off (the
		// platform's default), where only host memory's own size stops a DMA.
		rawOp, id, lba, count, bufOff, guard := ring.DecodeDescriptorPI(d)
		ring.EncodeDescriptorPI(d, rawOp, id, lba, count, buf+bufOff, guard)
		vf := r.ctl.VF(0)
		if id%2 == 1 {
			r.fab.IOMMU().Enable()
			r.fab.IOMMU().Grant(r.ctl.PF().ID(), 0, 32<<20)
			r.fab.IOMMU().Grant(vf.ID(), buf, 4096)
		}

		r.eng.Go("guest", func(p *sim.Proc) {
			r.setVF(p, 0, tr.Root(), vfBlocks)
			if err := r.mem.Zero(cplBase, int64(entries)*ring.CplBytes); err != nil {
				t.Error(err)
				return
			}
			for s := uint32(0); s < entries; s++ {
				if err := r.mem.Write(ring.DescSlot(ringBase, s, entries), d); err != nil {
					t.Error(err)
					return
				}
			}
			q := r.bar + r.ctl.FunctionPageOffset(1) + queueBlock(0)
			r.mmioW(p, q+ring.QRegRingBase, uint64(ringBase))
			r.mmioW(p, q+ring.QRegRingSize, ringSize)
			r.mmioW(p, q+ring.QRegCplBase, uint64(cplBase))
			r.mmioW(p, q+ring.QRegDoorbell, uint64(doorbell))
		})
		// A full ring of four-block requests is tens of milliseconds of medium
		// time; a second is far past any legal schedule.
		r.eng.RunUntil(sim.Second)
		r.eng.Shutdown()

		if vf.Inflight() != 0 {
			t.Fatalf("%d requests still in flight after 1 s of virtual time (fetched %d)", vf.Inflight(), vf.Reqs)
		}
		op := ring.OpCode(rawOp)
		legal := lba <= vfBlocks && uint64(count) <= vfBlocks-lba &&
			(op == ring.OpRead || op == ring.OpWrite || op == ring.OpVerify)
		if legal {
			return
		}
		if r.ctl.ChunksDone != 0 || r.missMSIs != 0 {
			t.Errorf("illegal descriptor (op %#x lba %#x count %d) executed %d chunks, raised %d misses",
				rawOp, lba, count, r.ctl.ChunksDone, r.missMSIs)
		}
		entry := make([]byte, ring.CplBytes)
		for s := uint32(0); s < entries; s++ {
			if err := r.mem.Read(cplBase+int64(s)*ring.CplBytes, entry); err != nil {
				t.Fatal(err)
			}
			if _, status, seq := ring.DecodeCompletion(entry); seq != 0 && status == ring.StatusOK {
				t.Fatalf("illegal descriptor (op %#x lba %#x count %d) completed StatusOK (completion %d)", rawOp, lba, count, seq)
			}
		}
	})
}
