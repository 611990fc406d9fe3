package core

import (
	"bytes"
	"testing"

	"nesc/internal/extent"
	"nesc/internal/pcie"
	"nesc/internal/ring"
	"nesc/internal/sim"
)

func mqParams(queues int) Params {
	p := DefaultParams()
	p.NumVFs = 4
	p.QueuesPerVF = queues
	return p
}

func TestRingSizeValidation(t *testing.T) {
	r := newRig(t, smallParams())
	r.eng.Go("host", func(p *sim.Proc) {
		page := r.bar + r.ctl.FunctionPageOffset(0)
		for _, bad := range []uint64{0, 3, 100, 1 << 20} {
			r.mmioW(p, page+queueBlock(0)+ring.QRegRingSize, bad)
		}
		r.mmioW(p, page+queueBlock(0)+ring.QRegRingSize, 64) // valid
		if got := r.mmioR(p, page+queueBlock(0)+ring.QRegRingSize); got != 64 {
			t.Errorf("ring.QRegRingSize = %d, want 64 (bad writes must not stick)", got)
		}
	})
	r.run()
	if r.ctl.Counters().BadRingSizes != 4 {
		t.Errorf("controller BadRingSizes = %d, want 4", r.ctl.Counters().BadRingSizes)
	}
}

func TestDoorbellValidation(t *testing.T) {
	r := newRig(t, mqParams(2))
	r.eng.Go("host", func(p *sim.Proc) {
		page := r.bar + r.ctl.FunctionPageOffset(1)
		base := r.mem.MustAlloc(testRing*ring.DescBytes, 64)
		r.mmioW(p, page+queueBlock(0)+ring.QRegRingBase, uint64(base))
		r.mmioW(p, page+queueBlock(0)+ring.QRegRingSize, testRing)
		// Producer index claiming more than one full ring of descriptors.
		r.mmioW(p, page+queueBlock(0)+ring.QRegDoorbell, testRing+1)
		// Doorbell on an unprogrammed queue (queue 1 has no ring size).
		r.mmioW(p, page+queueBlock(1)+ring.QRegDoorbell, 1)
		// Doorbell on a queue beyond the active count.
		r.mmioW(p, page+queueBlock(5)+ring.QRegDoorbell, 1)
		// A coherent doorbell still works after the rejections.
		r.mmioW(p, page+queueBlock(0)+ring.QRegDoorbell, 0)
	})
	r.run()
	vf := r.ctl.VF(0)
	if vf.BadDoorbells != 3 || r.ctl.Counters().BadDoorbells != 3 {
		t.Errorf("BadDoorbells fn=%d ctl=%d, want 3/3", vf.BadDoorbells, r.ctl.Counters().BadDoorbells)
	}
	// None of the bad doorbells may have reached the fetch stage.
	if vf.Reqs != 0 {
		t.Errorf("fetched %d requests from rejected doorbells", vf.Reqs)
	}
}

func TestMultiQueueIORoundTrip(t *testing.T) {
	r := newRig(t, mqParams(4))
	// Completions on queue q>0 arrive on vector 1+q; re-route every
	// completion vector at the test MSI dispatcher.
	r.fab.SetMSIHandler(func(from pcie.FnID, vec uint8) {
		if _, ok := ring.QueueOfVector(vec); ok {
			if s := r.cplSignals[from]; s != nil {
				s.Fire()
			}
		}
	})
	done := false
	r.eng.Go("host", func(p *sim.Proc) {
		tr := r.buildTree([]extent.Run{{Logical: 0, Physical: 0, Count: 64}})
		r.setVF(p, 0, tr.Root(), 64)
		d := r.openQueue(p, 1, 2)
		page := r.bar + r.ctl.FunctionPageOffset(1)
		if got := r.mmioR(p, page+ring.RegNumQueues); got != 4 {
			t.Errorf("ring.RegNumQueues = %d, want 4", got)
		}
		buf := r.mem.MustAlloc(4096, 64)
		src := bytes.Repeat([]byte{0xC3}, 4096)
		if err := r.mem.Write(buf, src); err != nil {
			t.Fatal(err)
		}
		if st := d.io(p, ring.OpWrite, 8, 4, buf); st != ring.StatusOK {
			t.Errorf("write on queue 2: status %d", st)
		}
		if err := r.mem.Zero(buf, 4096); err != nil {
			t.Fatal(err)
		}
		if st := d.io(p, ring.OpRead, 8, 4, buf); st != ring.StatusOK {
			t.Errorf("read on queue 2: status %d", st)
		}
		got := make([]byte, 4096)
		if err := r.mem.Read(buf, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, src) {
			t.Error("queue-2 round trip mismatch")
		}
		// The traffic ran on queue 2 alone.
		qs := r.ctl.VF(0).queues
		if seq := qs[2].cplSeq; seq != 2 {
			t.Errorf("queue 2 cplSeq = %d, want 2", seq)
		}
		if qs[0] != nil && qs[0].cplSeq != 0 {
			t.Errorf("queue 0 cplSeq = %d, want 0", qs[0].cplSeq)
		}
		done = true
	})
	r.run()
	if !done {
		t.Fatal("host process deadlocked")
	}
	vf := r.ctl.VF(0)
	if vf.QueueReqs(2) != 2 || vf.QueueReqs(0) != 0 {
		t.Errorf("per-queue requests q2=%d q0=%d, want 2/0", vf.QueueReqs(2), vf.QueueReqs(0))
	}
}

// TestIntraVFQueueFairness drives every queue of one VF with a backlog of
// single-descriptor doorbells rung in zero virtual time, so the device's
// fetch stage sees all queues pending at once. The fetch order must be
// strict round-robin across the function's queues.
func TestIntraVFQueueFairness(t *testing.T) {
	const queues, perQueue = 4, 4
	rec := &recorder{}
	r := newRigWith(t, mqParams(queues), rec)
	r.eng.Go("host", func(p *sim.Proc) {
		tr := r.buildTree([]extent.Run{{Logical: 0, Physical: 0, Count: 256}})
		r.setVF(p, 0, tr.Root(), 256)
		page := r.bar + r.ctl.FunctionPageOffset(1)
		buf := r.mem.MustAlloc(int64(r.ctl.P.BlockSize), 64)
		// Program all queues and stage every descriptor: queue q reads LBA
		// q*16+i so the trace identifies the owning queue.
		rings := make([]int64, queues)
		for q := 0; q < queues; q++ {
			rings[q] = r.mem.MustAlloc(testRing*ring.DescBytes, 64)
			cpl := r.mem.MustAlloc(testRing*ring.CplBytes, 64)
			if err := r.mem.Zero(rings[q], testRing*ring.DescBytes); err != nil {
				t.Fatal(err)
			}
			if err := r.mem.Zero(cpl, testRing*ring.CplBytes); err != nil {
				t.Fatal(err)
			}
			blk := page + queueBlock(q)
			r.mmioW(p, blk+ring.QRegRingBase, uint64(rings[q]))
			r.mmioW(p, blk+ring.QRegRingSize, testRing)
			r.mmioW(p, blk+ring.QRegCplBase, uint64(cpl))
			for i := 0; i < perQueue; i++ {
				var desc [ring.DescBytes]byte
				ring.EncodeDescriptor(desc[:], ring.OpRead, uint32(q*perQueue+i+1), uint64(q*16+i), 1, buf)
				if err := r.mem.Write(rings[q]+int64(i)*ring.DescBytes, desc[:]); err != nil {
					t.Fatal(err)
				}
			}
		}
		// Ring every doorbell with no CPU cost (p=nil skips the issue
		// sleep): all of them land before the fetch stage first wakes, so
		// the observed order isolates the device's scheduling policy.
		for i := 1; i <= perQueue; i++ {
			for q := 0; q < queues; q++ {
				if err := r.fab.MMIOWrite(nil, page+queueBlock(q)+ring.QRegDoorbell, 4, uint64(i)); err != nil {
					t.Fatal(err)
				}
			}
		}
	})
	r.run()
	var order []int
	for _, s := range rec.steps(1, StFetch) {
		order = append(order, int(s.LBA)/16)
	}
	if len(order) != queues*perQueue {
		t.Fatalf("fetched %d descriptors, want %d (order %v)", len(order), queues*perQueue, order)
	}
	for i, q := range order {
		if q != i%queues {
			t.Fatalf("fetch %d came from queue %d, want strict round-robin (order %v)", i, q, order)
		}
	}
	vf := r.ctl.VF(0)
	for q := 0; q < queues; q++ {
		if vf.QueueReqs(q) != perQueue {
			t.Errorf("queue %d served %d requests, want %d", q, vf.QueueReqs(q), perQueue)
		}
	}
}

func TestMgmtQueueCount(t *testing.T) {
	r := newRig(t, mqParams(8))
	r.eng.Go("host", func(p *sim.Proc) {
		mgmt := r.bar + r.ctl.MgmtPageOffset()
		page := r.bar + r.ctl.FunctionPageOffset(1)
		if got := r.mmioR(p, page+ring.RegNumQueues); got != 8 {
			t.Errorf("ring.RegNumQueues = %d, want 8 (device capability)", got)
		}
		// The hypervisor programs the VF down to 2 active queues.
		r.mmioW(p, mgmt+ring.MgmtQueues, 2)
		if got := r.mmioR(p, page+ring.RegNumQueues); got != 2 {
			t.Errorf("ring.RegNumQueues = %d, want 2 after ring.MgmtQueues", got)
		}
		// Out-of-range programmings are ignored.
		r.mmioW(p, mgmt+ring.MgmtQueues, 0)
		r.mmioW(p, mgmt+ring.MgmtQueues, 99)
		if got := r.mmioR(p, page+ring.RegNumQueues); got != 2 {
			t.Errorf("ring.RegNumQueues = %d, want 2 after bad programmings", got)
		}
		// Registers of deactivated queues read as zero.
		r.mmioW(p, page+queueBlock(1)+ring.QRegRingSize, testRing)
		if got := r.mmioR(p, page+queueBlock(1)+ring.QRegRingSize); got != testRing {
			t.Errorf("queue 1 ring size = %d, want %d", got, testRing)
		}
		if got := r.mmioR(p, page+queueBlock(5)+ring.QRegRingSize); got != 0 {
			t.Errorf("inactive queue 5 ring size = %d, want 0", got)
		}
	})
	r.run()
}
