package hypervisor

import (
	"bytes"
	"errors"
	"testing"

	"nesc/internal/fault"
	"nesc/internal/guest"
	"nesc/internal/ring"
	"nesc/internal/sim"
)

// holdMisses arms the MissHandler site so every later miss service is held
// for hold before it starts its work.
func (w *world) holdMisses(hold sim.Time) {
	plan := fault.Plan{Seed: 1}
	plan.Sites[fault.MissHandler] = fault.SiteParams{DelayProb: 1, Delay: hold}
	w.installPlan(plan)
}

// A miss stalls its own function, not the device (paper §IV: each VF is
// isolated in hardware). VF A's first-touch write misses, and a MissHandler
// delay holds its service for 500 µs. VF B's 4 KB reads on the same device
// meanwhile take no longer than they do unloaded, and a read A issues behind
// its miss, of blocks already mapped, waits for A's verdict.
func TestAMissStallsOnlyItsFunction(t *testing.T) {
	const hold = 500 * sim.Microsecond
	w := newWorld(t, 8192, nil)
	w.run(t, func(p *sim.Proc) {
		w.boot(t, p)
		w.mkSparseImage(t, p, "/a.img", 9, 64)
		w.mkImage(t, p, "/b.img", 9, 64)
		var vms [2]*VM
		for i, path := range []string{"/a.img", "/b.img"} {
			vm, err := w.h.NewVM(p, path, VMConfig{Backend: BackendDirect, DiskPath: path, UID: 9})
			if err != nil {
				t.Fatal(err)
			}
			vms[i] = vm
		}
		a, b := vms[0].Kernel, vms[1].Kernel
		io := func(q *sim.Proc, k *guest.Kernel, write bool, lba int64) sim.Time {
			start := q.Now()
			if err := k.SubmitAligned(q, write, lba, k.AllocBuffer(4096)); err != nil {
				t.Error(err)
			}
			return q.Now() - start
		}
		io(p, a, true, 0) // maps A's blocks 0-3, unheld
		io(p, b, false, 0)
		unloaded := io(p, b, false, 0) // B's BTLB is warm from here on

		w.holdMisses(hold)
		services := w.h.MissInterrupts
		done := sim.NewWaitGroup(w.eng)
		done.Add(2)
		w.eng.Go("A first touch", func(q *sim.Proc) {
			defer done.Done()
			io(q, a, true, 16)
		})
		for w.h.MissInterrupts == services {
			p.Sleep(sim.Microsecond)
		}
		held := p.Now() // A's service is in its hold from here
		w.eng.Go("A behind its miss", func(q *sim.Proc) {
			defer done.Done()
			io(q, a, false, 0)
			if q.Now() < held+hold {
				t.Errorf("A's read of mapped blocks finished %v into a %v hold of A's miss: it did not wait for A's verdict", q.Now()-held, hold)
			}
		})
		for i := 0; i < 8; i++ {
			if lat := io(p, b, false, int64(4*i)); lat > unloaded {
				t.Errorf("B's read %d took %v during A's miss, %v unloaded", i, lat, unloaded)
			}
		}
		if p.Now() >= held+hold {
			t.Fatalf("B's reads ran past A's hold (%v): they did not overlap it", p.Now()-held)
		}
		done.WaitFor(p)
	})
}

// The driver does not abort a request it timed out, so its original copy
// can still be parked behind the miss when the guest, told the write timed
// out, writes the same blocks again. Parked chunks go back in arrival order:
// the newer write lands last and a read returns it.
func TestATimedOutWriteCannotLandOverANewerOne(t *testing.T) {
	const hold = 500 * sim.Microsecond
	w := newWorld(t, 8192, func(hp *Params) { hp.Ring.Timeout = 300 * sim.Microsecond })
	w.run(t, func(p *sim.Proc) {
		vm := w.directVM(t, p, 64, true)
		w.holdMisses(hold)
		qp := vm.Legs[0].Drv.QueuePair()
		buf := func(fill byte) int64 {
			addr := w.mem.MustAlloc(4096, 64)
			if err := w.mem.Write(addr, bytes.Repeat([]byte{fill}, 4096)); err != nil {
				t.Fatal(err)
			}
			return addr
		}
		stale, newer, back := buf(0x5A), buf(0xC3), buf(0)
		if _, err := qp.Submit(p, ring.OpWrite, 8, 4, stale); !errors.Is(err, guest.ErrTimeout) {
			t.Fatalf("the write held behind its miss returned %v, want a timeout", err)
		}
		if st, err := qp.Submit(p, ring.OpWrite, 8, 4, newer); err != nil || st != ring.StatusOK {
			t.Fatalf("the newer write: status %d, %v", st, err)
		}
		if st, err := qp.Submit(p, ring.OpRead, 8, 4, back); err != nil || st != ring.StatusOK {
			t.Fatalf("read back: status %d, %v", st, err)
		}
		got := make([]byte, 4096)
		if err := w.mem.Read(back, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, bytes.Repeat([]byte{0xC3}, 4096)) {
			t.Fatalf("the blocks read back %#x...: the timed-out write landed over the newer one", got[:4])
		}
	})
}
