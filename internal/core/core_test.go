package core

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"

	"nesc/internal/blockdev"
	"nesc/internal/extent"
	"nesc/internal/hostmem"
	"nesc/internal/pcie"
	"nesc/internal/ring"
	"nesc/internal/sim"
)

// rig wires a controller to a fabric plus the minimal host-side glue the
// register-level tests need: an MSI dispatcher, a test block driver, and a
// mock hypervisor miss handler.
type rig struct {
	t   *testing.T
	eng *sim.Engine
	mem *hostmem.Memory
	fab *pcie.Fabric
	ctl *Controller
	bar int64

	cplSignals map[pcie.FnID]*sim.Signal
	// missHandler runs as a fresh process per miss interrupt.
	missHandler func(p *sim.Proc)
	missMSIs    int

	// Scenario state of the observer contract tests (observe_test.go).
	buf  int64
	tree *extent.Tree
}

func newRig(t *testing.T, p Params) *rig { return newRigWith(t, p, nil) }

// stored reads n blocks at pLBA lba straight from the medium's store.
func (r *rig) stored(lba, n int64) []byte {
	r.t.Helper()
	store := r.ctl.Medium.Store()
	buf := make([]byte, n*int64(store.BlockSize()))
	if err := store.ReadBlocks(lba, buf); err != nil {
		r.t.Fatal(err)
	}
	return buf
}

// newRigWith is newRig with an observer attached.
func newRigWith(t *testing.T, p Params, obs Observer) *rig {
	t.Helper()
	eng := sim.NewEngine()
	mem := hostmem.New(32 << 20)
	fab := pcie.New(eng, mem, pcie.DefaultParams())
	store := blockdev.NewStore(p.BlockSize, 4096)
	medium := blockdev.NewMedium(eng, store, blockdev.DefaultMediumParams())
	ctl, err := New(eng, fab, medium, p, obs)
	if err != nil {
		t.Fatal(err)
	}
	r := &rig{t: t, eng: eng, mem: mem, fab: fab, ctl: ctl, cplSignals: map[pcie.FnID]*sim.Signal{}}
	// BAR base: the controller is the first (only) mapped device.
	r.bar = 0x1000
	fab.SetMSIHandler(func(from pcie.FnID, vec uint8) {
		switch vec {
		case ring.VecCompletion:
			if s := r.cplSignals[from]; s != nil {
				s.Fire()
			}
		case ring.VecMiss:
			r.missMSIs++
			if r.missHandler != nil {
				eng.Go("hyp-miss", r.missHandler)
			}
		}
	})
	return r
}

func (r *rig) run() {
	r.eng.Run()
	r.eng.Shutdown()
}

// dev is a minimal block driver bound to one function.
type dev struct {
	r        *rig
	fn       *Function
	pageOff  int64 // the function's register page
	qOff     int64 // the driven queue's register block within it
	ringBase int64
	cplBase  int64
	prod     uint32
	lastSeq  uint32
	nextID   uint32
}

const testRing = 32

// openFunction programs queue 0 of a function, acting as the guest (or
// hypervisor) driver.
func (r *rig) openFunction(p *sim.Proc, fnIdx int) *dev { return r.openQueue(p, fnIdx, 0) }

// queueBlock computes the BAR offset of queue q's register block within a
// function page.
func queueBlock(q int) int64 { return ring.QueueRegBase + int64(q)*ring.QueueRegStride }

// openQueue programs queue q of a function, acting as a multi-queue driver.
func (r *rig) openQueue(p *sim.Proc, fnIdx, q int) *dev {
	d := &dev{
		r:        r,
		pageOff:  r.bar + r.ctl.FunctionPageOffset(fnIdx),
		ringBase: r.mem.MustAlloc(testRing*ring.DescBytes, 64),
		cplBase:  r.mem.MustAlloc(testRing*ring.CplBytes, 64),
	}
	d.qOff = d.pageOff + queueBlock(q)
	// Drivers must clear their rings: allocations may recycle memory.
	if err := r.mem.Zero(d.ringBase, testRing*ring.DescBytes); err != nil {
		r.t.Fatal(err)
	}
	if err := r.mem.Zero(d.cplBase, testRing*ring.CplBytes); err != nil {
		r.t.Fatal(err)
	}
	if fnIdx == 0 {
		d.fn = r.ctl.PF()
	} else {
		d.fn = r.ctl.VF(fnIdx - 1)
	}
	r.mmioW(p, d.qOff+ring.QRegRingBase, uint64(d.ringBase))
	r.mmioW(p, d.qOff+ring.QRegRingSize, testRing)
	r.mmioW(p, d.qOff+ring.QRegCplBase, uint64(d.cplBase))
	return d
}

func (r *rig) mmioW(p *sim.Proc, addr int64, val uint64) {
	if err := r.fab.MMIOWrite(p, addr, 8, val); err != nil {
		r.t.Error(err)
	}
}

func (r *rig) mmioR(p *sim.Proc, addr int64) uint64 {
	v, err := r.fab.MMIORead(p, addr, 8)
	if err != nil {
		r.t.Error(err)
	}
	return v
}

// io submits one request and blocks until its completion arrives, returning
// the completion status.
func (d *dev) io(p *sim.Proc, op uint32, lba uint64, count uint32, buf int64) uint32 {
	r := d.r
	d.nextID++
	id := d.nextID
	var desc [ring.DescBytes]byte
	ring.EncodeDescriptor(desc[:], op, id, lba, count, buf)
	slot := int64(d.prod % testRing)
	if err := r.mem.Write(d.ringBase+slot*ring.DescBytes, desc[:]); err != nil {
		r.t.Fatal(err)
	}
	d.prod++
	r.mmioW(p, d.qOff+ring.QRegDoorbell, uint64(d.prod))
	// Wait for a completion with our seq.
	for {
		entry := make([]byte, ring.CplBytes)
		if err := r.mem.Read(d.cplBase+int64(d.lastSeq%testRing)*ring.CplBytes, entry); err != nil {
			r.t.Fatal(err)
		}
		gotID, status, seq := ring.DecodeCompletion(entry)
		if seq == d.lastSeq+1 {
			d.lastSeq = seq
			if gotID != id {
				r.t.Errorf("completion for id %d, want %d", gotID, id)
			}
			return status
		}
		s := sim.NewSignal(r.eng)
		r.cplSignals[d.fn.ID()] = s
		s.Await(p)
	}
}

// setVF programs a VF's management block (hypervisor side).
func (r *rig) setVF(p *sim.Proc, vfIdx int, treeRoot int64, sizeBlocks uint64) {
	mgmt := r.bar + r.ctl.MgmtPageOffset() + int64(vfIdx)*ring.MgmtStride
	r.mmioW(p, mgmt+ring.MgmtTreeRoot, uint64(treeRoot))
	r.mmioW(p, mgmt+ring.MgmtDeviceSize, sizeBlocks)
	r.mmioW(p, mgmt+ring.MgmtEnable, 1)
}

func (r *rig) buildTree(runs []extent.Run) *extent.Tree {
	tr, err := extent.Build(r.mem, runs, extent.DefaultFanout)
	if err != nil {
		r.t.Fatal(err)
	}
	return tr
}

func smallParams() Params {
	p := DefaultParams()
	p.NumVFs = 4
	return p
}

func TestPFReadWriteRoundTrip(t *testing.T) {
	r := newRig(t, smallParams())
	buf := r.mem.MustAlloc(8192, 64)
	done := false
	r.eng.Go("host", func(p *sim.Proc) {
		d := r.openFunction(p, 0)
		src := bytes.Repeat([]byte{0x5A}, 8192)
		if err := r.mem.Write(buf, src); err != nil {
			t.Fatal(err)
		}
		if st := d.io(p, ring.OpWrite, 100, 8, buf); st != ring.StatusOK {
			t.Errorf("write status %d", st)
		}
		if err := r.mem.Zero(buf, 8192); err != nil {
			t.Fatal(err)
		}
		if st := d.io(p, ring.OpRead, 100, 8, buf); st != ring.StatusOK {
			t.Errorf("read status %d", st)
		}
		got := make([]byte, 8192)
		if err := r.mem.Read(buf, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, src) {
			t.Error("PF round trip mismatch")
		}
		// The data must physically live at pLBA 100.
		if !bytes.Equal(r.stored(100, 8), src) {
			t.Error("data not at pLBA 100")
		}
		done = true
	})
	r.run()
	if !done {
		t.Fatal("host process deadlocked")
	}
}

// TestWriteLandsHostMemoryAtDataPhase holds the property guests rely on: a
// write carries the bytes host memory held when the payload DMA's data phase
// completed. A guest that rewrites its buffer while the DMA is still in flight
// lands the rewrite; once the device holds the payload — the medium access has
// begun — host memory no longer matters. Neither the fabric nor the medium
// takes a copy on the way, and neither needs to.
func TestWriteLandsHostMemoryAtDataPhase(t *testing.T) {
	r := newRig(t, smallParams())
	bs := int64(r.ctl.P.BlockSize)
	buf := r.mem.MustAlloc(bs, 64)
	if err := r.mem.Write(buf, bytes.Repeat([]byte{1}, int(bs))); err != nil {
		t.Fatal(err)
	}
	status := uint32(0xFFFF)
	r.eng.Go("guest", func(p *sim.Proc) {
		status = r.openFunction(p, 0).io(p, ring.OpWrite, 100, 1, buf)
	})
	poke := func(off int64, v byte) {
		if err := r.mem.Write(buf+off, []byte{v}); err != nil {
			t.Fatal(err)
		}
	}
	// The second DMA read the fabric admits is the payload (the first fetched
	// the descriptor): it is in flight from here until the medium write begins.
	for r.fab.DMAReads < 2 && r.eng.Step() {
	}
	poke(0, 2)
	for r.ctl.Medium.Writes < 1 && r.eng.Step() {
	}
	poke(1, 3)
	r.run()
	if status != ring.StatusOK {
		t.Fatalf("write status %d", status)
	}
	sl := r.stored(100, 1)
	if sl[0] != 2 || sl[1] != 1 {
		t.Fatalf("medium holds % x, want 02 01: the rewrite made in flight and not the one made after the data phase", sl[:2])
	}
}

func TestVFTranslatedIO(t *testing.T) {
	r := newRig(t, smallParams())
	// vLBA [0,8) -> pLBA [500,508); vLBA [8,16) -> pLBA [200,208).
	tr := r.buildTree([]extent.Run{
		{Logical: 0, Physical: 500, Count: 8},
		{Logical: 8, Physical: 200, Count: 8},
	})
	buf := r.mem.MustAlloc(16*1024, 64)
	done := false
	r.eng.Go("guest", func(p *sim.Proc) {
		r.setVF(p, 0, tr.Root(), 16)
		d := r.openFunction(p, 1)
		src := make([]byte, 16*1024)
		rand.New(rand.NewSource(1)).Read(src)
		if err := r.mem.Write(buf, src); err != nil {
			t.Fatal(err)
		}
		if st := d.io(p, ring.OpWrite, 0, 16, buf); st != ring.StatusOK {
			t.Errorf("write status %d", st)
		}
		// Physical placement respects the extent map.
		lo, hi := r.stored(500, 8), r.stored(200, 8)
		if !bytes.Equal(lo, src[:8192]) || !bytes.Equal(hi, src[8192:]) {
			t.Error("translated write landed at wrong pLBAs")
		}
		if err := r.mem.Zero(buf, 16*1024); err != nil {
			t.Fatal(err)
		}
		if st := d.io(p, ring.OpRead, 0, 16, buf); st != ring.StatusOK {
			t.Errorf("read status %d", st)
		}
		got := make([]byte, 16*1024)
		if err := r.mem.Read(buf, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, src) {
			t.Error("VF round trip mismatch")
		}
		done = true
	})
	r.run()
	if !done {
		t.Fatal("guest deadlocked")
	}
}

func TestVFIsolation(t *testing.T) {
	r := newRig(t, smallParams())
	tr1 := r.buildTree([]extent.Run{{Logical: 0, Physical: 100, Count: 4}})
	tr2 := r.buildTree([]extent.Run{{Logical: 0, Physical: 300, Count: 4}})
	buf := r.mem.MustAlloc(4096, 64)
	done := false
	r.eng.Go("guests", func(p *sim.Proc) {
		r.setVF(p, 0, tr1.Root(), 4)
		r.setVF(p, 1, tr2.Root(), 4)
		d1 := r.openFunction(p, 1)
		d2 := r.openFunction(p, 2)
		// VF2 pre-writes its blocks.
		secret := bytes.Repeat([]byte{0xEE}, 4096)
		if err := r.mem.Write(buf, secret); err != nil {
			t.Fatal(err)
		}
		if st := d2.io(p, ring.OpWrite, 0, 4, buf); st != ring.StatusOK {
			t.Errorf("vf2 write status %d", st)
		}
		// VF1 writes everything it can address.
		if err := r.mem.Write(buf, bytes.Repeat([]byte{0x11}, 4096)); err != nil {
			t.Fatal(err)
		}
		if st := d1.io(p, ring.OpWrite, 0, 4, buf); st != ring.StatusOK {
			t.Errorf("vf1 write status %d", st)
		}
		// VF1 cannot reach past its device size.
		if st := d1.io(p, ring.OpRead, 4, 1, buf); st != ring.StatusOutOfRange {
			t.Errorf("out-of-range read status %d", st)
		}
		// VF2's physical blocks are untouched by VF1's writes.
		if !bytes.Equal(r.stored(300, 4), secret) {
			t.Error("isolation violated: VF1 affected VF2's blocks")
		}
		done = true
	})
	r.run()
	if !done {
		t.Fatal("deadlock")
	}
}

func TestHoleReadReturnsZeros(t *testing.T) {
	r := newRig(t, smallParams())
	// Only vLBA 2 is mapped; 0,1,3 are holes.
	tr := r.buildTree([]extent.Run{{Logical: 2, Physical: 50, Count: 1}})
	buf := r.mem.MustAlloc(4096, 64)
	done := false
	r.eng.Go("guest", func(p *sim.Proc) {
		r.setVF(p, 0, tr.Root(), 4)
		d := r.openFunction(p, 1)
		// Dirty the buffer and the mapped block.
		if err := r.mem.Write(buf, bytes.Repeat([]byte{0xFF}, 4096)); err != nil {
			t.Fatal(err)
		}
		if err := r.ctl.Medium.Store().WriteBlocks(50, bytes.Repeat([]byte{0xAB}, 1024)); err != nil {
			t.Fatal(err)
		}
		if st := d.io(p, ring.OpRead, 0, 4, buf); st != ring.StatusOK {
			t.Errorf("read status %d", st)
		}
		got := make([]byte, 4096)
		if err := r.mem.Read(buf, got); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2048; i++ {
			if got[i] != 0 {
				t.Fatalf("hole byte %d = %#x", i, got[i])
			}
		}
		for i := 2048; i < 3072; i++ {
			if got[i] != 0xAB {
				t.Fatalf("mapped byte %d = %#x", i, got[i])
			}
		}
		for i := 3072; i < 4096; i++ {
			if got[i] != 0 {
				t.Fatalf("hole byte %d = %#x", i, got[i])
			}
		}
		done = true
	})
	r.run()
	if !done {
		t.Fatal("deadlock")
	}
}

func TestWriteMissAllocationFlow(t *testing.T) {
	r := newRig(t, smallParams())
	tr := r.buildTree([]extent.Run{{Logical: 0, Physical: 10, Count: 2}})
	mgmt := r.bar + r.ctl.MgmtPageOffset()
	// Mock hypervisor: on miss, map the missing range to pLBA 600+ and
	// signal a rewalk.
	r.missHandler = func(p *sim.Proc) {
		pending := r.mmioR(p, r.bar+ring.PFRegMissPendingBank)
		if pending&1 == 0 {
			t.Error("miss bitmap does not report VF0")
			return
		}
		missAddr := r.mmioR(p, mgmt+ring.MgmtMissAddr)
		missSize, reason, isWrite := ring.DecodeMiss(r.mmioR(p, mgmt+ring.MgmtMissSize))
		if !isWrite || reason != ring.MissReasonTranslate {
			t.Errorf("miss word says write %v, reason %d", isWrite, reason)
		}
		runs, err := extent.CollectRuns(r.mem, tr.Root(), tr.Fanout())
		if err != nil {
			t.Error(err)
			return
		}
		runs = append(runs, extent.Run{Logical: missAddr, Physical: 600 + missAddr, Count: missSize})
		if err := tr.Rebuild(runs); err != nil {
			t.Error(err)
			return
		}
		r.mmioW(p, mgmt+ring.MgmtTreeRoot, uint64(tr.Root()))
		r.mmioW(p, mgmt+ring.MgmtRewalk, ring.RewalkRetry)
	}
	buf := r.mem.MustAlloc(1024, 64)
	done := false
	r.eng.Go("guest", func(p *sim.Proc) {
		r.setVF(p, 0, tr.Root(), 8)
		d := r.openFunction(p, 1)
		if err := r.mem.Write(buf, bytes.Repeat([]byte{0x77}, 1024)); err != nil {
			t.Fatal(err)
		}
		if st := d.io(p, ring.OpWrite, 5, 1, buf); st != ring.StatusOK {
			t.Errorf("miss write status %d", st)
		}
		// The hypervisor mapped vLBA 5 -> pLBA 605.
		if r.stored(605, 1)[0] != 0x77 {
			t.Error("allocated write did not land at the hypervisor-assigned pLBA")
		}
		done = true
	})
	r.run()
	if !done {
		t.Fatal("deadlock")
	}
	if r.missMSIs == 0 || r.ctl.Misses == 0 {
		t.Fatalf("no miss interrupt observed (MSIs=%d, misses=%d)", r.missMSIs, r.ctl.Misses)
	}
}

func TestWriteMissDeniedReportsNoSpace(t *testing.T) {
	r := newRig(t, smallParams())
	tr := r.buildTree(nil)
	mgmt := r.bar + r.ctl.MgmtPageOffset()
	r.missHandler = func(p *sim.Proc) {
		r.mmioW(p, mgmt+ring.MgmtRewalk, ring.RewalkFail) // quota exhausted
	}
	buf := r.mem.MustAlloc(1024, 64)
	done := false
	r.eng.Go("guest", func(p *sim.Proc) {
		r.setVF(p, 0, tr.Root(), 8)
		d := r.openFunction(p, 1)
		if st := d.io(p, ring.OpWrite, 0, 1, buf); st != ring.StatusNoSpace {
			t.Errorf("denied write status %d, want %d", st, ring.StatusNoSpace)
		}
		done = true
	})
	r.run()
	if !done {
		t.Fatal("deadlock")
	}
}

func TestPrunedSubtreeTriggersRegeneration(t *testing.T) {
	r := newRig(t, smallParams())
	var runs []extent.Run
	for i := 0; i < 64; i++ {
		runs = append(runs, extent.Run{Logical: uint64(i * 2), Physical: uint64(1000 + i*2), Count: 1})
	}
	tr := r.buildTree(runs)
	if _, err := tr.Prune(1000); err != nil {
		t.Fatal(err)
	}
	mgmt := r.bar + r.ctl.MgmtPageOffset()
	regenerated := false
	r.missHandler = func(p *sim.Proc) {
		regenerated = true
		if err := tr.Rebuild(runs); err != nil {
			t.Error(err)
			return
		}
		r.mmioW(p, mgmt+ring.MgmtTreeRoot, uint64(tr.Root()))
		r.mmioW(p, mgmt+ring.MgmtRewalk, ring.RewalkRetry)
	}
	buf := r.mem.MustAlloc(1024, 64)
	done := false
	r.eng.Go("guest", func(p *sim.Proc) {
		r.setVF(p, 0, tr.Root(), 128)
		d := r.openFunction(p, 1)
		if err := r.ctl.Medium.Store().WriteBlocks(1000, bytes.Repeat([]byte{0xCC}, 1024)); err != nil {
			t.Fatal(err)
		}
		if st := d.io(p, ring.OpRead, 0, 1, buf); st != ring.StatusOK {
			t.Errorf("read status %d", st)
		}
		got := make([]byte, 1024)
		if err := r.mem.Read(buf, got); err != nil {
			t.Fatal(err)
		}
		if got[0] != 0xCC {
			t.Error("read after regeneration returned wrong data")
		}
		done = true
	})
	r.run()
	if !done {
		t.Fatal("deadlock")
	}
	if !regenerated {
		t.Fatal("pruned read did not interrupt the host")
	}
}

// TestCyclicTreeFailsTheChunk programs a VF whose tree root is a depth-1 node
// pointing at itself. The walker must fail the chunk on the second node read
// (a child is not one level below its parent), not chase the pointer forever.
func TestCyclicTreeFailsTheChunk(t *testing.T) {
	r := newRig(t, smallParams())
	node := r.mem.MustAlloc(extent.NodeBytes(extent.DefaultFanout), 64)
	img := make([]byte, extent.NodeBytes(extent.DefaultFanout))
	binary.BigEndian.PutUint16(img[0:], extent.Magic)
	binary.BigEndian.PutUint16(img[2:], 1) // depth
	binary.BigEndian.PutUint16(img[4:], 1) // entries
	binary.BigEndian.PutUint16(img[6:], extent.DefaultFanout)
	binary.BigEndian.PutUint32(img[extent.HeaderSize+8:], 16)            // the entry covers vLBAs 0..15
	binary.BigEndian.PutUint64(img[extent.HeaderSize+16:], uint64(node)) // and its child is the node
	if err := r.mem.Write(node, img); err != nil {
		t.Fatal(err)
	}
	buf := r.mem.MustAlloc(4096, 64)
	done := false
	r.eng.Go("guest", func(p *sim.Proc) {
		r.setVF(p, 0, node, 16)
		d := r.openFunction(p, 1)
		if st := d.io(p, ring.OpRead, 3, 1, buf); st != ring.StatusDMAFault {
			t.Errorf("read through a cyclic tree: status %d, want StatusDMAFault", st)
		}
		done = true
	})
	// A walker that follows the cycle never lets the simulation drain.
	r.eng.RunUntil(10 * sim.Millisecond)
	r.eng.Shutdown()
	if !done {
		t.Fatal("the request never completed: the walker is still following the cycle")
	}
	if r.ctl.WalkNodeReads != 2 {
		t.Errorf("%d node reads, want 2 (the root, then the node that is not below it)", r.ctl.WalkNodeReads)
	}
}

func TestDisabledVFRejectsIO(t *testing.T) {
	r := newRig(t, smallParams())
	buf := r.mem.MustAlloc(1024, 64)
	done := false
	r.eng.Go("guest", func(p *sim.Proc) {
		d := r.openFunction(p, 1) // never enabled by the hypervisor
		if st := d.io(p, ring.OpRead, 0, 1, buf); st != ring.StatusDisabled {
			t.Errorf("status %d, want %d", st, ring.StatusDisabled)
		}
		done = true
	})
	r.run()
	if !done {
		t.Fatal("deadlock")
	}
}

// TestDisableEndsTheOldTenantsWalk disables a VF while its tenant's write is
// in translation — the walk's node fetch still out, or a miss latched and
// unserviced — then exports the index to a new tenant on another tree. The
// old walk may neither re-cache its extent nor leave its latch for the new
// tenant's miss handler, and the new tenant's write lands on its own tree.
func TestDisableEndsTheOldTenantsWalk(t *testing.T) {
	for _, tc := range []struct {
		name   string
		old    extent.Run
		paused func(r *rig) bool
	}{
		{"node fetch out", extent.Run{Logical: 0, Physical: 100, Count: 16}, func(r *rig) bool { return r.fab.DMAReads >= 2 }},
		{"miss latched", extent.Run{Logical: 8, Physical: 100, Count: 8}, func(r *rig) bool { return r.missMSIs > 0 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newRig(t, smallParams())
			old := r.buildTree([]extent.Run{tc.old})
			buf := r.mem.MustAlloc(1024, 64)
			r.eng.Go("old tenant", func(p *sim.Proc) {
				r.setVF(p, 0, old.Root(), 16)
				r.openFunction(p, 1).io(p, ring.OpWrite, 0, 1, buf) // never completes
			})
			for !tc.paused(r) && r.eng.Step() {
			}
			r.ctl.MMIOWrite(r.ctl.MgmtPageOffset()+ring.MgmtEnable, 8, 0)
			for r.eng.Step() {
			}
			if _, _, ok := r.ctl.btlb.lookup(1, 0); ok {
				t.Error("the walk that returned after the disable cached the old tenant's extent")
			}
			if bank := r.ctl.MMIORead(ring.PFRegMissPendingBank, 8); bank != 0 {
				t.Errorf("miss-pending bank reads %#x after the disable: the next tenant's handler would service the old latch", bank)
			}

			fresh := r.buildTree([]extent.Run{{Logical: 0, Physical: 300, Count: 16}})
			data := bytes.Repeat([]byte{0xBB}, 1024)
			status := uint32(0xFFFF)
			r.eng.Go("new tenant", func(p *sim.Proc) {
				r.setVF(p, 0, fresh.Root(), 16)
				if err := r.mem.Write(buf, data); err != nil {
					t.Error(err)
				}
				status = r.openFunction(p, 1).io(p, ring.OpWrite, 0, 1, buf)
			})
			r.run()
			if status != ring.StatusOK {
				t.Fatalf("new tenant's write: status %d", status)
			}
			if !bytes.Equal(r.stored(300, 1), data) || bytes.Equal(r.stored(100, 1), data) {
				t.Error("the new tenant's write did not land on its own tree")
			}
		})
	}
}

func TestGuestCannotProgramManagementViaVFPage(t *testing.T) {
	r := newRig(t, smallParams())
	tr := r.buildTree([]extent.Run{{Logical: 0, Physical: 100, Count: 4}})
	done := false
	r.eng.Go("guest", func(p *sim.Proc) {
		r.setVF(p, 0, tr.Root(), 4)
		vfPage := r.bar + r.ctl.FunctionPageOffset(1)
		// A malicious guest writes management offsets through its own page.
		r.mmioW(p, vfPage+ring.MgmtTreeRoot, 0xDEAD) // no register at that offset of a function page: ignored
		r.mmioW(p, vfPage+0x800, 1)                  // PF-only BTLB flush offset: ignored
		r.mmioW(p, vfPage+ring.MgmtDeviceSize, 1<<40)
		vf := r.ctl.VF(0)
		if vf.TreeRoot() != tr.Root() {
			t.Error("guest overwrote its extent tree root")
		}
		if vf.SizeBlocks() != 4 {
			t.Errorf("guest changed its device size to %d", vf.SizeBlocks())
		}
		done = true
	})
	r.run()
	if !done {
		t.Fatal("deadlock")
	}
}

func TestBTLBHitRateAndFlush(t *testing.T) {
	r := newRig(t, smallParams())
	tr := r.buildTree([]extent.Run{{Logical: 0, Physical: 100, Count: 256}})
	buf := r.mem.MustAlloc(4096, 64)
	done := false
	r.eng.Go("guest", func(p *sim.Proc) {
		r.setVF(p, 0, tr.Root(), 256)
		d := r.openFunction(p, 1)
		for i := 0; i < 16; i++ {
			if st := d.io(p, ring.OpRead, uint64(i*4), 4, buf); st != ring.StatusOK {
				t.Errorf("read status %d", st)
			}
		}
		// One extent: only the first chunk(s) in flight miss — at most one
		// per overlapped walker.
		maxMisses := int64(r.ctl.P.Walkers)
		if m := r.ctl.BTLBStats.Misses; m < 1 || m > maxMisses {
			t.Errorf("BTLB misses = %d, want 1..%d", m, maxMisses)
		}
		if r.ctl.BTLBStats.Rate() < 0.9 {
			t.Errorf("hit rate = %.2f", r.ctl.BTLBStats.Rate())
		}
		walks := r.ctl.WalkNodeReads
		missesBefore := r.ctl.BTLBStats.Misses
		// Flush and repeat: fresh misses appear.
		r.mmioW(p, r.bar+ring.PFRegBTLBFlush, 1)
		if st := d.io(p, ring.OpRead, 0, 4, buf); st != ring.StatusOK {
			t.Errorf("read status %d", st)
		}
		extra := r.ctl.BTLBStats.Misses - missesBefore
		if extra < 1 || extra > maxMisses {
			t.Errorf("misses after flush grew by %d, want 1..%d", extra, maxMisses)
		}
		if r.ctl.WalkNodeReads <= walks {
			t.Error("flush did not force a new tree walk")
		}
		done = true
	})
	r.run()
	if !done {
		t.Fatal("deadlock")
	}
}

func TestOOBChannelBypassesStalledTranslation(t *testing.T) {
	r := newRig(t, smallParams())
	tr := r.buildTree(nil) // everything is a hole: any VF write stalls
	// No miss handler: the VF's walk parks forever.
	buf := r.mem.MustAlloc(1024, 64)
	pfDone := false
	r.eng.Go("host", func(p *sim.Proc) {
		r.setVF(p, 0, tr.Root(), 8)
		vf := r.openFunction(p, 1)
		pf := r.openFunction(p, 0)
		// Saturate both walkers with stalling writes, submitted and
		// abandoned (no completion wait: submit via raw ring).
		var desc [ring.DescBytes]byte
		for i := 0; i < 2; i++ {
			ring.EncodeDescriptor(desc[:], ring.OpWrite, uint32(100+i), uint64(i), 1, buf)
			slot := int64(vf.prod % testRing)
			if err := r.mem.Write(vf.ringBase+slot*ring.DescBytes, desc[:]); err != nil {
				t.Fatal(err)
			}
			vf.prod++
		}
		r.mmioW(p, vf.qOff+ring.QRegDoorbell, uint64(vf.prod))
		p.Sleep(50 * sim.Microsecond) // let the walkers stall
		// The PF must still complete I/O through the OOB channel.
		if st := pf.io(p, ring.OpWrite, 0, 1, buf); st != ring.StatusOK {
			t.Errorf("PF write while VF stalled: status %d", st)
		}
		pfDone = true
	})
	r.run()
	if !pfDone {
		t.Fatal("PF I/O blocked behind a stalled VF translation")
	}
}

func TestRoundRobinFairness(t *testing.T) {
	r := newRig(t, smallParams())
	tr1 := r.buildTree([]extent.Run{{Logical: 0, Physical: 0, Count: 512}})
	tr2 := r.buildTree([]extent.Run{{Logical: 0, Physical: 1024, Count: 512}})
	var end1, end2 sim.Time
	buf := r.mem.MustAlloc(16*1024, 64)
	const reqs = 32
	r.eng.Go("vm1", func(p *sim.Proc) {
		r.setVF(p, 0, tr1.Root(), 512)
		d := r.openFunction(p, 1)
		for i := 0; i < reqs; i++ {
			d.io(p, ring.OpWrite, uint64(i*4), 4, buf)
		}
		end1 = p.Now()
	})
	r.eng.Go("vm2", func(p *sim.Proc) {
		r.setVF(p, 1, tr2.Root(), 512)
		d := r.openFunction(p, 2)
		for i := 0; i < reqs; i++ {
			d.io(p, ring.OpWrite, uint64(i*4), 4, buf)
		}
		end2 = p.Now()
	})
	r.run()
	if end1 == 0 || end2 == 0 {
		t.Fatal("a VM did not finish")
	}
	ratio := float64(end1) / float64(end2)
	if ratio < 0.8 || ratio > 1.25 {
		t.Fatalf("unfair service: vm1=%v vm2=%v (ratio %.2f)", end1, end2, ratio)
	}
}

func TestCompletionRingWraparound(t *testing.T) {
	r := newRig(t, smallParams())
	tr := r.buildTree([]extent.Run{{Logical: 0, Physical: 0, Count: 256}})
	buf := r.mem.MustAlloc(1024, 64)
	done := false
	r.eng.Go("guest", func(p *sim.Proc) {
		r.setVF(p, 0, tr.Root(), 256)
		d := r.openFunction(p, 1)
		for i := 0; i < int(testRing)*3; i++ {
			if st := d.io(p, ring.OpWrite, uint64(i%256), 1, buf); st != ring.StatusOK {
				t.Fatalf("request %d status %d", i, st)
			}
		}
		done = true
	})
	r.run()
	if !done {
		t.Fatal("deadlock before ring wrapped")
	}
}

func TestZeroCountRequestCompletes(t *testing.T) {
	r := newRig(t, smallParams())
	tr := r.buildTree(nil)
	done := false
	r.eng.Go("guest", func(p *sim.Proc) {
		r.setVF(p, 0, tr.Root(), 8)
		d := r.openFunction(p, 1)
		if st := d.io(p, ring.OpRead, 0, 0, 0); st != ring.StatusOK {
			t.Errorf("zero-count status %d", st)
		}
		done = true
	})
	r.run()
	if !done {
		t.Fatal("deadlock")
	}
}

// A guest descriptor whose LBA sits at the top of the 64-bit space must not
// wrap the range check and come back in at block 0: it completes
// StatusOutOfRange with nothing executed and no miss raised.
func TestRangeCheckDoesNotWrap(t *testing.T) {
	r := newRig(t, smallParams())
	tr := r.buildTree([]extent.Run{{Logical: 0, Physical: 50, Count: 2}})
	buf := r.mem.MustAlloc(4096, 64)
	done := false
	r.eng.Go("guest", func(p *sim.Proc) {
		r.setVF(p, 0, tr.Root(), 4)
		d := r.openFunction(p, 1)
		for _, c := range []struct {
			lba   uint64
			count uint32
		}{{1<<64 - 1, 2}, {1<<64 - 2, 4}, {4, 1<<32 - 1}} {
			for _, op := range []uint32{ring.OpRead, ring.OpWrite} {
				if st := d.io(p, op, c.lba, c.count, buf); st != ring.StatusOutOfRange {
					t.Errorf("op %d lba %#x count %d: status %d, want StatusOutOfRange", op, c.lba, c.count, st)
				}
			}
		}
		done = true
	})
	r.run()
	if !done {
		t.Fatal("deadlock")
	}
	if r.ctl.ChunksDone != 0 || r.missMSIs != 0 {
		t.Errorf("out-of-range requests executed %d chunks and raised %d misses, want 0 and 0", r.ctl.ChunksDone, r.missMSIs)
	}
}

// Property: random scattered mappings and random I/O patterns through two
// VFs always produce data identical to a shadow model, and never touch
// physical blocks outside each VF's mapping.
func TestRandomIOModelProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 3; trial++ {
		r := newRig(t, smallParams())
		// Two disjoint random mappings of 64 blocks each.
		perm := rng.Perm(2048)
		mkRuns := func(base int) []extent.Run {
			var runs []extent.Run
			for i := 0; i < 64; i++ {
				runs = append(runs, extent.Run{Logical: uint64(i), Physical: uint64(1000 + perm[base+i]), Count: 1})
			}
			return runs
		}
		runs1, runs2 := mkRuns(0), mkRuns(64)
		tr1, tr2 := r.buildTree(runs1), r.buildTree(runs2)
		shadow1 := make([]byte, 64*1024)
		shadow2 := make([]byte, 64*1024)
		buf := r.mem.MustAlloc(8*1024, 64)
		ok := false
		r.eng.Go("guest", func(p *sim.Proc) {
			r.setVF(p, 0, tr1.Root(), 64)
			r.setVF(p, 1, tr2.Root(), 64)
			d1 := r.openFunction(p, 1)
			d2 := r.openFunction(p, 2)
			for op := 0; op < 60; op++ {
				d, shadow := d1, shadow1
				if rng.Intn(2) == 1 {
					d, shadow = d2, shadow2
				}
				lba := uint64(rng.Intn(60))
				count := uint32(1 + rng.Intn(4))
				n := int(count) * 1024
				if rng.Intn(2) == 0 {
					chunkData := make([]byte, n)
					rng.Read(chunkData)
					if err := r.mem.Write(buf, chunkData); err != nil {
						t.Fatal(err)
					}
					if st := d.io(p, ring.OpWrite, lba, count, buf); st != ring.StatusOK {
						t.Fatalf("write status %d", st)
					}
					copy(shadow[lba*1024:], chunkData)
				} else {
					if st := d.io(p, ring.OpRead, lba, count, buf); st != ring.StatusOK {
						t.Fatalf("read status %d", st)
					}
					got := make([]byte, n)
					if err := r.mem.Read(buf, got); err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(got, shadow[lba*1024:lba*1024+uint64(n)]) {
						t.Fatalf("trial %d op %d: read mismatch", trial, op)
					}
				}
			}
			ok = true
		})
		r.run()
		if !ok {
			t.Fatal("deadlock")
		}
		// Cross-check physical placement for both VFs.
		verify := func(runs []extent.Run, shadow []byte) {
			for _, rn := range runs {
				if !bytes.Equal(r.stored(int64(rn.Physical), int64(rn.Count)), shadow[rn.Logical*1024:(rn.Logical+rn.Count)*1024]) {
					t.Fatalf("physical block %d does not match shadow", rn.Physical)
				}
			}
		}
		verify(runs1, shadow1)
		verify(runs2, shadow2)
	}
}

func TestBTLBUnit(t *testing.T) {
	b := newBTLB(2)
	b.insert(1, extent.Run{Logical: 0, Physical: 100, Count: 10})
	if p, _, ok := b.lookup(1, 5); !ok || p != 105 {
		t.Fatalf("lookup = %d, %v", p, ok)
	}
	if _, _, ok := b.lookup(2, 5); ok {
		t.Fatal("cross-function BTLB hit")
	}
	if _, _, ok := b.lookup(1, 10); ok {
		t.Fatal("hit past extent end")
	}
	// FIFO eviction.
	b.insert(1, extent.Run{Logical: 100, Physical: 500, Count: 1})
	b.insert(1, extent.Run{Logical: 200, Physical: 600, Count: 1})
	if _, _, ok := b.lookup(1, 5); ok {
		t.Fatal("oldest entry not evicted")
	}
	// Duplicate insert does not evict.
	b2 := newBTLB(2)
	run := extent.Run{Logical: 0, Physical: 1, Count: 1}
	b2.insert(3, run)
	b2.insert(3, extent.Run{Logical: 5, Physical: 9, Count: 1})
	b2.insert(3, run) // duplicate
	if _, _, ok := b2.lookup(3, 5); !ok {
		t.Fatal("duplicate insert evicted a live entry")
	}
	// A whole-function invalidation only clears one function.
	b2.insert(4, extent.Run{Logical: 0, Physical: 7, Count: 1})
	b2.invalidateRange(3, 0, 0)
	if _, _, ok := b2.lookup(3, 0); ok {
		t.Fatal("a whole-function invalidation left entries")
	}
	// Zero-entry BTLB never hits and never crashes.
	b0 := newBTLB(0)
	b0.insert(1, run)
	if _, _, ok := b0.lookup(1, 0); ok {
		t.Fatal("zero-entry BTLB hit")
	}
}
