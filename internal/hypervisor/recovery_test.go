package hypervisor

import (
	"errors"
	"testing"

	"nesc/internal/core"
	"nesc/internal/fault"
	"nesc/internal/guest"
	"nesc/internal/ring"
	"nesc/internal/sim"
)

// End-to-end coverage of every device status code and recovery path as seen
// through the full stack: guest driver → VF rings → device pipeline →
// hypervisor. Fault injectors are installed only after boot so host
// filesystem setup runs fault-free.

func (w *world) installPlan(plan fault.Plan) *fault.Injector {
	inj := fault.NewInjector(plan)
	w.ctl.Medium.SetInjector(inj)
	w.fab.SetInjector(inj)
	w.h.SetInjector(inj)
	return inj
}

// mkSparseImage creates a disk image with no allocated blocks: every write
// misses and exercises the hypervisor's lazy-allocation path.
func (w *world) mkSparseImage(t *testing.T, p *sim.Proc, path string, uid uint32, blocks uint64) {
	t.Helper()
	f, err := w.d.HostFS.Create(p, path, uid, 0o600)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Truncate(p, blocks*1024); err != nil {
		t.Fatal(err)
	}
}

// directVM boots, builds an image, and returns a direct-assigned VM.
func (w *world) directVM(t *testing.T, p *sim.Proc, blocks uint64, sparse bool) *VM {
	t.Helper()
	w.boot(t, p)
	if sparse {
		w.mkSparseImage(t, p, "/disk.img", 9, blocks)
	} else {
		w.mkImage(t, p, "/disk.img", 9, blocks)
	}
	vm, err := w.h.NewVM(p, "vm0", VMConfig{Backend: BackendDirect, DiskPath: "/disk.img", UID: 9})
	if err != nil {
		t.Fatal(err)
	}
	return vm
}

func TestStatusOKAndNoSpaceEndToEnd(t *testing.T) {
	w := newWorld(t, 8192, nil)
	w.run(t, func(p *sim.Proc) {
		vm := w.directVM(t, p, 64, true)
		qp := vm.Legs[0].Drv.QueuePair()
		buf := w.mem.MustAlloc(1024, 64)
		// First write into the sparse image misses; the hypervisor allocates
		// and the walk retries: StatusOK.
		if st, err := qp.Submit(p, ring.OpWrite, 3, 1, buf); err != nil || st != ring.StatusOK {
			t.Errorf("hole write: status %d err %v, want StatusOK", st, err)
		}
		if w.h.MissInterrupts == 0 {
			t.Error("lazy allocation never ran")
		}
		// Now fail the allocation path by injection: StatusNoSpace.
		plan := fault.Plan{Seed: 7}
		plan.Sites[fault.MissHandler] = fault.SiteParams{Prob: 1.0}
		w.installPlan(plan)
		if st, err := qp.Submit(p, ring.OpWrite, 40, 1, buf); err != nil || st != ring.StatusNoSpace {
			t.Errorf("failed allocation: status %d err %v, want StatusNoSpace", st, err)
		}
		if w.h.MissFaults == 0 {
			t.Error("MissFaults not counted")
		}
	})
}

func TestStatusOutOfRangeEndToEnd(t *testing.T) {
	w := newWorld(t, 8192, nil)
	done := false
	w.eng.Go("main", func(p *sim.Proc) {
		vm := w.directVM(t, p, 64, false)
		buf := w.mem.MustAlloc(2048, 64)
		for _, c := range []struct {
			what  string
			op    uint32
			lba   uint64
			count uint32
		}{
			{"oversized LBA", ring.OpRead, 1000, 1},
			// LBA+count wraps to 1: the device must not take it for block 0,
			// and the host must never be asked to allocate vLBA 2^64-1.
			{"wrapping range", ring.OpWrite, 1<<64 - 1, 2},
		} {
			st, err := vm.Legs[0].Drv.QueuePair().Submit(p, c.op, c.lba, c.count, buf)
			if err != nil || st != ring.StatusOutOfRange {
				t.Errorf("%s: status %d err %v, want StatusOutOfRange", c.what, st, err)
			}
		}
		done = true
	})
	// Bounded in virtual time: before the range check was made wrap-free the
	// second row never completed — device and miss handler traded the same
	// miss forever.
	w.eng.RunUntil(100 * sim.Millisecond)
	w.eng.Shutdown()
	if !done {
		t.Fatal("a guest descriptor kept the host busy past 100 ms of virtual time")
	}
	if w.h.MissInterrupts != 0 {
		t.Errorf("out-of-range requests raised %d miss interrupts, want 0", w.h.MissInterrupts)
	}
}

// The host end of the same bound: if a device ever latches a miss address
// outside what the hypervisor exported (here: the size register is rewritten
// behind its back), the miss handler fails the walk instead of growing the
// tenant's file to meet the address.
func TestMissOutsideExportFails(t *testing.T) {
	w := newWorld(t, 8192, nil)
	w.run(t, func(p *sim.Proc) {
		vm := w.directVM(t, p, 64, true)
		w.h.mmioW(p, w.d.mgmtAddr(vm.Legs[0].VFIdx)+ring.MgmtDeviceSize, 1<<40)
		buf := w.mem.MustAlloc(1024, 64)
		st, err := vm.Legs[0].Drv.QueuePair().Submit(p, ring.OpWrite, 4096, 1, buf)
		if err != nil || st != ring.StatusNoSpace {
			t.Errorf("write past the export: status %d err %v, want StatusNoSpace", st, err)
		}
		if info, err := w.d.HostFS.Stat(p, "/disk.img", 0); err != nil || info.Size != 64*1024 {
			t.Errorf("image is %d bytes (err %v) after the refused miss, want %d", info.Size, err, 64*1024)
		}
	})
}

func TestStatusDisabledEndToEnd(t *testing.T) {
	w := newWorld(t, 8192, nil)
	w.run(t, func(p *sim.Proc) {
		vm := w.directVM(t, p, 64, false)
		// Disable the function behind the driver's back (management action).
		// Disabling drops the device's ring state, so the driver re-arms its
		// rings before probing — and gets an explicit StatusDisabled back.
		w.h.mmioW(p, w.d.mgmtAddr(vm.Legs[0].VFIdx)+ring.MgmtEnable, 0)
		if err := vm.Legs[0].Drv.QueuePair().Recover(p); err != nil {
			t.Fatal(err)
		}
		buf := w.mem.MustAlloc(1024, 64)
		st, err := vm.Legs[0].Drv.QueuePair().Submit(p, ring.OpRead, 0, 1, buf)
		if err != nil || st != ring.StatusDisabled {
			t.Errorf("disabled VF: status %d err %v, want StatusDisabled", st, err)
		}
	})
}

func TestStatusMediumErrorEndToEnd(t *testing.T) {
	w := newWorld(t, 8192, nil)
	w.run(t, func(p *sim.Proc) {
		vm := w.directVM(t, p, 64, false)
		plan := fault.Plan{Seed: 7}
		plan.Sites[fault.MediumRead] = fault.SiteParams{Prob: 1.0}
		w.installPlan(plan)
		buf := w.mem.MustAlloc(1024, 64)
		st, err := vm.Legs[0].Drv.QueuePair().Submit(p, ring.OpRead, 0, 1, buf)
		if err != nil || st != ring.StatusMediumError {
			t.Errorf("unreadable block: status %d err %v, want StatusMediumError", st, err)
		}
		if w.ctl.Counters().MediumRetries != int64(core.MediumRetryMax) {
			t.Errorf("MediumRetries = %d, want %d", w.ctl.Counters().MediumRetries, core.MediumRetryMax)
		}
	})
}

// A VF whose IOMMU grants were revoked mid-flight gets StatusDMAFault: the
// descriptor fetch and completion write still land (the ring pages stay
// granted) but the data DMA is rejected.
func TestStatusDMAFaultOnRevokedGrant(t *testing.T) {
	w := newWorld(t, 8192, func(hp *Params) { hp.UseIOMMU = true })
	w.run(t, func(p *sim.Proc) {
		vm := w.directVM(t, p, 64, false)
		qp := vm.Legs[0].Drv.QueuePair()
		fnID := w.ctl.VF(vm.Legs[0].VFIdx).ID()
		w.fab.IOMMU().RevokeAll(fnID)
		for _, r := range qp.DMARanges() {
			w.fab.IOMMU().Grant(fnID, r[0], r[1])
		}
		buf := w.mem.MustAlloc(1024, 64)
		st, err := qp.Submit(p, ring.OpRead, 0, 1, buf)
		if err != nil || st != ring.StatusDMAFault {
			t.Errorf("revoked data buffer: status %d err %v, want StatusDMAFault", st, err)
		}
		if w.ctl.VF(vm.Legs[0].VFIdx).DMAFaults == 0 {
			t.Error("per-function DMA fault not counted")
		}
	})
}

// A dropped completion MSI is recovered by the driver's timeout poll: the
// request still returns StatusOK, just later.
func TestDriverPollRecoversDroppedCompletionMSI(t *testing.T) {
	w := newWorld(t, 8192, func(hp *Params) {
		hp.Ring.Timeout = 300 * sim.Microsecond
		hp.Ring.RetryMax = 2
	})
	w.run(t, func(p *sim.Proc) {
		vm := w.directVM(t, p, 64, false)
		plan := fault.Plan{Seed: 7}
		plan.Sites[fault.MSI] = fault.SiteParams{Prob: 1.0}
		w.installPlan(plan)
		qp := vm.Legs[0].Drv.QueuePair()
		buf := w.mem.MustAlloc(1024, 64)
		st, err := qp.Submit(p, ring.OpRead, 0, 1, buf)
		if err != nil || st != ring.StatusOK {
			t.Errorf("read with dropped MSI: status %d err %v, want StatusOK", st, err)
		}
		if qp.Timeouts == 0 || qp.PolledCompletions == 0 {
			t.Errorf("timeouts=%d polled=%d, want both > 0", qp.Timeouts, qp.PolledCompletions)
		}
		if w.fab.DroppedMSIs == 0 {
			t.Error("no MSI was actually dropped")
		}
	})
}

// A request whose descriptor fetch keeps getting dropped exhausts the retry
// budget and surfaces ErrTimeout to the guest.
func TestDriverTimeoutBudgetSurfacesErrTimeout(t *testing.T) {
	w := newWorld(t, 8192, func(hp *Params) {
		hp.Ring.Timeout = 300 * sim.Microsecond
		hp.Ring.RetryMax = 1
	})
	w.run(t, func(p *sim.Proc) {
		vm := w.directVM(t, p, 64, false)
		plan := fault.Plan{Seed: 7}
		plan.Sites[fault.DMARead] = fault.SiteParams{Prob: 1.0}
		w.installPlan(plan)
		qp := vm.Legs[0].Drv.QueuePair()
		buf := w.mem.MustAlloc(1024, 64)
		_, err := qp.Submit(p, ring.OpRead, 0, 1, buf)
		if !errors.Is(err, guest.ErrTimeout) {
			t.Errorf("lost request returned %v, want ErrTimeout", err)
		}
		if qp.Resubmits != 1 {
			t.Errorf("Resubmits = %d, want 1", qp.Resubmits)
		}
		if w.ctl.Counters().FetchDrops == 0 {
			t.Error("dropped fetches not counted")
		}
	})
}

// ResetVF recovers a VF whose request vanished while the driver has no
// timeout configured: the parked submitter is aborted with ErrReset and the
// re-armed rings carry fresh I/O.
func TestResetVFRecoversWedgedGuest(t *testing.T) {
	w := newWorld(t, 8192, nil)
	var gotErr error
	w.run(t, func(p *sim.Proc) {
		vm := w.directVM(t, p, 64, false)
		qp := vm.Legs[0].Drv.QueuePair()
		plan := fault.Plan{Seed: 7}
		// Exactly one dropped DMA read: the descriptor fetch of the next
		// request. With no timeout the submitter would park forever.
		plan.Sites[fault.DMARead] = fault.SiteParams{OneShot: []int64{1}}
		w.installPlan(plan)
		buf := w.mem.MustAlloc(1024, 64)
		w.eng.Go("wedged-guest", func(gp *sim.Proc) {
			_, gotErr = qp.Submit(gp, ring.OpRead, 0, 1, buf)
		})
		p.Sleep(500 * sim.Microsecond)
		if err := w.d.ResetVF(p, vm.Legs[0].VFIdx); err != nil {
			t.Fatal(err)
		}
		if w.h.VFResets != 1 {
			t.Errorf("VFResets = %d, want 1", w.h.VFResets)
		}
		// The recovered function carries fresh I/O through the same driver.
		if st, err := qp.Submit(p, ring.OpRead, 2, 1, buf); err != nil || st != ring.StatusOK {
			t.Errorf("post-reset read: status %d err %v, want StatusOK", st, err)
		}
	})
	if !errors.Is(gotErr, guest.ErrReset) {
		t.Fatalf("wedged submitter returned %v, want ErrReset", gotErr)
	}
}

// ResetVF while real work is in flight: the device aborts the stale chunks,
// drains, and the function keeps working afterwards.
func TestResetVFAbortsInFlightWork(t *testing.T) {
	w := newWorld(t, 8192, nil)
	w.run(t, func(p *sim.Proc) {
		vm := w.directVM(t, p, 256, false)
		buf := vm.Kernel.AllocBuffer(128 * 1024)
		w.eng.Go("writer", func(gp *sim.Proc) {
			// A long burst; some of it dies in the reset. Both outcomes —
			// clean completion of early chunks, ErrReset later — are fine;
			// what matters is that nothing wedges.
			_ = vm.Kernel.SubmitAligned(gp, true, 0, buf)
		})
		p.Sleep(20 * sim.Microsecond)
		if err := w.d.ResetVF(p, vm.Legs[0].VFIdx); err != nil {
			t.Fatal(err)
		}
		if vf := w.ctl.VF(vm.Legs[0].VFIdx); vf.Inflight() != 0 {
			t.Errorf("inflight = %d after drain, want 0", vf.Inflight())
		}
		qp := vm.Legs[0].Drv.QueuePair()
		if st, err := qp.Submit(p, ring.OpRead, 0, 1, w.mem.MustAlloc(1024, 64)); err != nil || st != ring.StatusOK {
			t.Errorf("post-reset read: status %d err %v, want StatusOK", st, err)
		}
	})
}
