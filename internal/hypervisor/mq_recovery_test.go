package hypervisor

import (
	"bytes"
	"errors"
	"testing"

	"nesc/internal/core"
	"nesc/internal/fault"
	"nesc/internal/guest"
	"nesc/internal/ring"
	"nesc/internal/sim"
)

// Multi-queue data path through the full stack: guest MultiQueue driver →
// per-queue VF rings → device fetch round-robin → hypervisor vector routing.

func newMQWorld(t *testing.T, queues int, mut func(*Params)) *world {
	return newWorldCore(t, 8192, func(cp *core.Params) { cp.QueuesPerVF = queues }, mut)
}

func TestMultiQueueEndToEndIO(t *testing.T) {
	w := newMQWorld(t, 4, nil)
	w.run(t, func(p *sim.Proc) {
		vm := w.directVM(t, p, 256, false)
		mq := vm.Legs[0].Drv.MQ()
		if mq.NumQueues() != 4 {
			t.Fatalf("driver runs %d queues, want 4", mq.NumQueues())
		}
		// Bit-exact round trip through every queue explicitly.
		for q := 0; q < mq.NumQueues(); q++ {
			buf := w.mem.MustAlloc(1024, 64)
			src := bytes.Repeat([]byte{byte(0xA0 + q)}, 1024)
			if err := w.mem.Write(buf, src); err != nil {
				t.Fatal(err)
			}
			lba := uint64(q * 8)
			if st, err := mq.Queue(q).Submit(p, ring.OpWrite, lba, 1, buf); err != nil || st != ring.StatusOK {
				t.Fatalf("write on queue %d: status %d err %v", q, st, err)
			}
			if err := w.mem.Zero(buf, 1024); err != nil {
				t.Fatal(err)
			}
			if st, err := mq.Queue(q).Submit(p, ring.OpRead, lba, 1, buf); err != nil || st != ring.StatusOK {
				t.Fatalf("read on queue %d: status %d err %v", q, st, err)
			}
			got := make([]byte, 1024)
			if err := w.mem.Read(buf, got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, src) {
				t.Errorf("queue %d round trip mismatch", q)
			}
		}
		// The device saw traffic on each queue, counted per queue.
		vf := w.ctl.VF(vm.Legs[0].VFIdx)
		for q := 0; q < 4; q++ {
			if vf.QueueReqs(q) != 2 {
				t.Errorf("device queue %d served %d requests, want 2", q, vf.QueueReqs(q))
			}
		}
	})
}

func TestMultiQueueKernelIOSpreads(t *testing.T) {
	w := newMQWorld(t, 4, nil)
	w.run(t, func(p *sim.Proc) {
		vm := w.directVM(t, p, 1024, false)
		buf := vm.Kernel.AllocBuffer(256 * 1024)
		if err := vm.Kernel.SubmitAligned(p, true, 0, buf); err != nil {
			t.Fatal(err)
		}
		vf := w.ctl.VF(vm.Legs[0].VFIdx)
		busy := 0
		for q := 0; q < 4; q++ {
			if vf.QueueReqs(q) > 0 {
				busy++
			}
		}
		if busy < 2 {
			t.Errorf("hash policy used %d of 4 queues for a 256 KB burst", busy)
		}
	})
}

// FLR with four queues: submitters wedged on different queues are all
// aborted, every ring is rebuilt, and each queue carries fresh I/O after.
func TestMultiQueueFLRRecovery(t *testing.T) {
	w := newMQWorld(t, 4, nil)
	errs := make([]error, 4)
	w.run(t, func(p *sim.Proc) {
		vm := w.directVM(t, p, 256, false)
		mq := vm.Legs[0].Drv.MQ()
		plan := fault.Plan{Seed: 11}
		// Drop the next four DMA reads: one descriptor fetch per queue. With
		// no timeout configured all four submitters park forever.
		plan.Sites[fault.DMARead] = fault.SiteParams{OneShot: []int64{1, 2, 3, 4}}
		w.installPlan(plan)
		for q := 0; q < 4; q++ {
			buf := w.mem.MustAlloc(1024, 64)
			w.eng.Go("wedged", func(gp *sim.Proc) {
				_, errs[q] = mq.Queue(q).Submit(gp, ring.OpRead, uint64(q), 1, buf)
			})
		}
		p.Sleep(500 * sim.Microsecond)
		if err := w.d.ResetVF(p, vm.Legs[0].VFIdx); err != nil {
			t.Fatal(err)
		}
		// Every queue was re-armed and works again.
		for q := 0; q < 4; q++ {
			qp := mq.Queue(q)
			if qp.Resets != 1 {
				t.Errorf("queue %d Resets = %d, want 1", q, qp.Resets)
			}
			buf := w.mem.MustAlloc(1024, 64)
			if st, err := qp.Submit(p, ring.OpRead, uint64(q), 1, buf); err != nil || st != ring.StatusOK {
				t.Errorf("post-reset read on queue %d: status %d err %v", q, st, err)
			}
		}
		if vf := w.ctl.VF(vm.Legs[0].VFIdx); vf.Inflight() != 0 {
			t.Errorf("inflight = %d after drain, want 0", vf.Inflight())
		}
	})
	for q, err := range errs {
		if !errors.Is(err, guest.ErrReset) {
			t.Errorf("queue %d wedged submitter returned %v, want ErrReset", q, err)
		}
	}
}

// A dropped completion MSI on a high queue is recovered by that queue's own
// timeout poll without touching its siblings.
func TestMultiQueueTimeoutRecoveryIsPerQueue(t *testing.T) {
	w := newMQWorld(t, 4, func(hp *Params) {
		hp.Ring.Timeout = 300 * sim.Microsecond
		hp.Ring.RetryMax = 2
	})
	w.run(t, func(p *sim.Proc) {
		vm := w.directVM(t, p, 256, false)
		mq := vm.Legs[0].Drv.MQ()
		plan := fault.Plan{Seed: 7}
		plan.Sites[fault.MSI] = fault.SiteParams{Prob: 1.0}
		w.installPlan(plan)
		buf := w.mem.MustAlloc(1024, 64)
		if st, err := mq.Queue(3).Submit(p, ring.OpRead, 5, 1, buf); err != nil || st != ring.StatusOK {
			t.Errorf("read with dropped MSI: status %d err %v, want StatusOK", st, err)
		}
		if mq.Queue(3).PolledCompletions == 0 {
			t.Error("queue 3 never polled its ring")
		}
		for q := 0; q < 3; q++ {
			if mq.Queue(q).Timeouts != 0 {
				t.Errorf("idle queue %d counted %d timeouts", q, mq.Queue(q).Timeouts)
			}
		}
	})
}
