package hypervisor

import (
	"bytes"
	"testing"

	"nesc/internal/guest"
	"nesc/internal/ring"
	"nesc/internal/sim"
)

// Shadow doorbells end to end: a raw VF attached without a VM, a burst of
// concurrent submitters sharing one queue, and the driver eliding MMIO
// doorbells whenever the device is already fetching.

func TestShadowDoorbellBatchingEndToEnd(t *testing.T) {
	w := newWorld(t, 8192, nil)
	w.run(t, func(p *sim.Proc) {
		w.boot(t, p)
		idx, err := w.d.CreateRawVF(p)
		if err != nil {
			t.Fatal(err)
		}
		mq, err := guest.NewMultiQueue(p, w.eng, w.mem, w.fab, w.d.VFPageBus(idx),
			guest.RingConfig{Entries: 8, SubmitTime: w.h.P.Ring.SubmitTime})
		if err != nil {
			t.Fatal(err)
		}
		if err := mq.ArmShadow(p); err != nil {
			t.Fatal(err)
		}
		w.d.RouteVFInterrupts(idx, mq)
		qp := mq.Queue(0)
		if !qp.ShadowArmed() {
			t.Fatal("queue not shadow-armed after ArmShadow")
		}

		// Concurrent submitters on one queue: the first submission of each
		// batch rings the doorbell; overlapping ones publish their producer
		// index in the shadow block and skip the MMIO, and the device picks
		// them up when it re-reads the shadow after draining.
		const procs, ops = 4, 4
		patterns := make([][]byte, procs)
		wg := sim.NewWaitGroup(w.eng)
		for b := 0; b < procs; b++ {
			patterns[b] = bytes.Repeat([]byte{byte(0xB0 + b)}, 1024)
			wg.Add(1)
			w.eng.Go("shadow-sub", func(q *sim.Proc) {
				defer wg.Done()
				buf := w.mem.MustAlloc(1024, 64)
				if err := w.mem.Write(buf, patterns[b]); err != nil {
					t.Error(err)
					return
				}
				for k := 0; k < ops; k++ {
					lba := uint64(b*ops + k)
					if st, err := qp.Submit(q, ring.OpWrite, lba, 1, buf); err != nil || st != ring.StatusOK {
						t.Errorf("submitter %d write %d: status %d err %v", b, k, st, err)
						return
					}
				}
			})
		}
		wg.WaitFor(p)
		if qp.DoorbellsSkipped == 0 {
			t.Error("concurrent burst skipped no doorbells; shadow batching never engaged")
		}
		if w.ctl.ShadowBatches == 0 {
			t.Error("device initiated no fetch batches from the shadow block")
		}
		if got := w.h.RecoveryStats().DoorbellsSkipped; got != qp.DoorbellsSkipped {
			t.Errorf("hypervisor aggregates %d skipped doorbells, driver counted %d", got, qp.DoorbellsSkipped)
		}

		// Every write landed despite the elided doorbells.
		rbuf := w.mem.MustAlloc(1024, 64)
		for b := 0; b < procs; b++ {
			lba := uint64(b * ops) // first write of each submitter
			if st, err := qp.Submit(p, ring.OpRead, lba, 1, rbuf); err != nil || st != ring.StatusOK {
				t.Fatalf("read back lba %d: status %d err %v", lba, st, err)
			}
			got := make([]byte, 1024)
			if err := w.mem.Read(rbuf, got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, patterns[b]) {
				t.Errorf("lba %d read %#x..., want %#x...", lba, got[0], patterns[b][0])
			}
		}

		// FLR clears the device-side shadow registration; driver recovery
		// must re-arm it along with the rings.
		if err := w.d.ResetVF(p, idx); err != nil {
			t.Fatal(err)
		}
		if err := qp.Recover(p); err != nil {
			t.Fatal(err)
		}
		if !qp.ShadowArmed() {
			t.Error("recovery did not re-arm the shadow block")
		}
		if st, err := qp.Submit(p, ring.OpRead, 0, 1, rbuf); err != nil || st != ring.StatusOK {
			t.Fatalf("post-recovery read: status %d err %v", st, err)
		}
	})
}
