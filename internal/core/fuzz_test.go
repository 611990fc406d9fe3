package core

import (
	"bytes"
	"encoding/binary"
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

// FuzzShadowDoorbell feeds the device the one guest-written structure it
// parses outside the rings: the shadow-doorbell block. The input is a ring
// size (1 << (ringLog % 9) entries), the block's offset from a page the guest
// set aside for it (an offset that leaves host memory is kept as is, any other
// is folded into that page) and a script of 5-byte records, each one SHADOW
// producer word the guest publishes: a control byte, then the word (big
// endian). The control byte's low seven bits are the guest's pause before the
// record, in 250 ns units, so words land between the device's polls; its top
// bit toggles the queue's shadow base register (0 disarms it) first. After
// each word the guest reads EVENT and rings the MMIO doorbell with the word
// when ring.ShouldRing says the device may have parked, as the guest driver
// does. Every ring slot holds a zero-length read tagged with its slot number.
//
// Whatever the input, the device must not panic and must hold:
//   - every descriptor it fetches is the ring slot ring.DescSlot names for
//     its consumer index, inside the programmed ring;
//   - a producer word failing ring.DoorbellValid fetches nothing: every
//     fetched index k has a word announced before the fetch that passes
//     ring.DoorbellValid(word, k, entries) and lies ahead of k;
//   - it writes host memory only in the completion ring and the EVENT word of
//     the shadow block;
//   - everything it fetched completes within one second of virtual time.
func FuzzShadowDoorbell(f *testing.F) {
	rec := func(ctl uint8, word uint32) []byte {
		return binary.BigEndian.AppendUint32([]byte{ctl}, word)
	}
	script := func(recs ...[]byte) []byte { return bytes.Join(recs, nil) }
	// The legal shapes; the adversarial ones (an index behind the consumer, an
	// incoherent producer, a base outside host memory, a base disarmed
	// mid-chase, and the two inputs that found a stale doorbell and a disarm
	// during the SHADOW read) are checked in under
	// testdata/fuzz/FuzzShadowDoorbell.
	f.Add(uint8(5), int64(0), script(rec(0, 4), rec(1, 8), rec(1, 20), rec(40, 32)))
	f.Add(uint8(3), int64(4), script(rec(0, 1), rec(0, 2), rec(0, 3), rec(0, 8), rec(127, 16)))
	f.Add(uint8(0), int64(13), script(rec(0, 1), rec(40, 2), rec(40, 3), rec(40, 4)))

	f.Fuzz(func(t *testing.T, ringLog uint8, shadowOff int64, script []byte) {
		const (
			pageBytes = 4096
			maxRecs   = 32
			window    = 1 << 20 // host memory the rig allocates from, checked at the end
			slotTag   = 0x5D000000
			guardTag  = 0xBAD0BAD0
		)
		if len(script) > 5*maxRecs {
			script = script[:5*maxRecs]
		}
		entries := uint32(1) << (ringLog % 9)
		obs := &recorder{}
		r := newRigWith(t, smallParams(), obs)
		tr := r.buildTree([]extent.Run{{Logical: 0, Physical: 50, Count: 2}})

		// The ring sits between two guard slots, tagged so a fetch outside it
		// shows.
		desc := make([]byte, ring.DescBytes)
		ringAlloc := r.mem.MustAlloc(int64(entries+2)*ring.DescBytes, 64)
		ringBase := ringAlloc + ring.DescBytes
		for s := int64(-1); s <= int64(entries); s++ {
			id := uint32(guardTag)
			if s >= 0 && s < int64(entries) {
				id = slotTag | uint32(s)
			}
			ring.EncodeDescriptor(desc, ring.OpRead, id, 0, 0, 0)
			if err := r.mem.Write(ringBase+s*ring.DescBytes, desc); err != nil {
				t.Fatal(err)
			}
		}
		cplBase := r.mem.MustAlloc(int64(entries)*ring.CplBytes, 64)
		page := r.mem.MustAlloc(pageBytes, pageBytes)
		if page+pageBytes > window {
			t.Fatalf("the rig's allocations end at %#x, past the checked window", page+pageBytes)
		}
		base := page + shadowOff
		if base >= 0 && base <= r.mem.Size()-ring.ShadowBytes {
			base = page + int64(uint64(shadowOff)%(pageBytes-ring.ShadowBytes+1))
		}
		want := make([]byte, window)
		if err := r.mem.Read(0, want); err != nil {
			t.Fatal(err)
		}

		// announced is every producer word the guest published, with when.
		type word struct {
			at  sim.Time
			val uint32
		}
		var announced []word
		vf := r.ctl.VF(0)
		r.eng.Go("guest", func(p *sim.Proc) {
			r.setVF(p, 0, tr.Root(), 4)
			q := r.bar + r.ctl.FunctionPageOffset(1) + queueBlock(0)
			r.mmioW(p, q+ring.QRegRingBase, uint64(ringBase))
			r.mmioW(p, q+ring.QRegRingSize, uint64(entries))
			r.mmioW(p, q+ring.QRegCplBase, uint64(cplBase))
			r.mmioW(p, q+ring.QRegShadow, uint64(base))
			armed, prev := true, uint32(0)
			w := make([]byte, 4)
			for ; len(script) >= 5; script = script[5:] {
				ctl, val := script[0], binary.BigEndian.Uint32(script[1:5])
				if gap := sim.Time(ctl&0x7f) * 250 * sim.Nanosecond; gap > 0 {
					p.Sleep(gap)
				}
				if ctl&0x80 != 0 {
					armed = !armed
					shadow := uint64(0)
					if armed {
						shadow = uint64(base)
					}
					r.mmioW(p, q+ring.QRegShadow, shadow)
				}
				binary.BigEndian.PutUint32(w, val)
				if r.mem.Write(base+ring.ShadowOffProd, w) == nil && base+ring.ShadowOffProd < window {
					copy(want[base+ring.ShadowOffProd:], w)
				}
				announced = append(announced, word{p.Now(), val})
				ringIt := !armed || r.mem.Read(base+ring.ShadowOffEvent, w) != nil ||
					ring.ShouldRing(prev, binary.BigEndian.Uint32(w))
				if ringIt {
					r.mmioW(p, q+ring.QRegDoorbell, uint64(val))
				}
				prev = val
			}
		})
		// The longest script is 32 pauses of 31.75 µs and 32 full rings of
		// zero-length reads: a few milliseconds.
		r.eng.RunUntil(sim.Second)
		r.eng.Shutdown()

		if vf.Inflight() != 0 {
			t.Fatalf("%d requests still in flight after 1 s of virtual time (fetched %d)", vf.Inflight(), vf.Reqs)
		}
		k := uint32(0) // the consumer index of the next fetch
		for _, c := range obs.calls {
			if c.step == nil || c.step.Stage != StFetch {
				continue
			}
			if wantID := slotTag | k%entries; c.r.ID != wantID {
				t.Fatalf("fetch of index %d read id %#x, want %#x: not slot %d of the %d-entry ring",
					k, c.r.ID, wantID, k%entries, entries)
			}
			justified := false
			for _, a := range announced {
				if a.at <= c.step.From && a.val != k && ring.DoorbellValid(a.val, k, entries) {
					justified = true
					break
				}
			}
			if !justified {
				t.Fatalf("fetched index %d at %v with no valid producer word ahead of it announced (ring %d, words %v)",
					k, c.step.From, entries, announced)
			}
			k++
		}

		got := make([]byte, window)
		if err := r.mem.Read(0, got); err != nil {
			t.Fatal(err)
		}
		for _, span := range [][2]int64{
			{cplBase, cplBase + int64(entries)*ring.CplBytes},
			{base + ring.ShadowOffEvent, base + ring.ShadowBytes},
		} {
			lo, hi := max(span[0], 0), min(span[1], window)
			if lo < hi {
				copy(want[lo:hi], got[lo:hi])
			}
		}
		if i := firstDiffByte(got, want); i >= 0 {
			t.Fatalf("the device wrote host memory at %#x, outside the completion ring [%#x, %#x) and the EVENT word at %#x",
				i, cplBase, cplBase+int64(entries)*ring.CplBytes, base+ring.ShadowOffEvent)
		}
	})
}

// firstDiffByte returns the first index at which a and b differ, or -1.
func firstDiffByte(a, b []byte) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	return -1
}
