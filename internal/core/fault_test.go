package core

import (
	"reflect"
	"testing"

	"nesc/internal/extent"
	"nesc/internal/fault"
	"nesc/internal/ring"
	"nesc/internal/sim"
)

// Fault-injection and recovery tests: DTU medium retries, function-level
// reset, and the observability counters for silently dropped work.

func (r *rig) installPlan(plan fault.Plan) *fault.Injector {
	inj := fault.NewInjector(plan)
	r.ctl.Medium.SetInjector(inj)
	r.fab.SetInjector(inj)
	return inj
}

func TestMediumRetryRecoversTransientError(t *testing.T) {
	r := newRig(t, DefaultParams())
	plan := fault.Plan{Seed: 1}
	plan.Sites[fault.MediumRead] = fault.SiteParams{OneShot: []int64{1}}
	r.installPlan(plan)
	r.eng.Go("test", func(p *sim.Proc) {
		tr := r.buildTree([]extent.Run{{Logical: 0, Physical: 100, Count: 8}})
		r.setVF(p, 0, tr.Root(), 64)
		d := r.openFunction(p, 1)
		buf := r.mem.MustAlloc(int64(r.ctl.P.BlockSize), 64)
		if st := d.io(p, ring.OpRead, 0, 1, buf); st != ring.StatusOK {
			t.Errorf("read after transient medium error: status %d, want OK", st)
		}
	})
	r.run()
	vf := r.ctl.VF(0)
	if vf.MediumRetries != 1 || vf.MediumErrors != 0 {
		t.Fatalf("retries=%d errors=%d, want 1/0", vf.MediumRetries, vf.MediumErrors)
	}
	if r.ctl.Counters().MediumRetries != 1 {
		t.Fatalf("controller retries=%d, want 1", r.ctl.Counters().MediumRetries)
	}
}

func TestMediumErrorLatchesAfterRetries(t *testing.T) {
	r := newRig(t, DefaultParams())
	plan := fault.Plan{Seed: 1}
	plan.Sites[fault.MediumRead] = fault.SiteParams{Prob: 1.0}
	r.installPlan(plan)
	r.eng.Go("test", func(p *sim.Proc) {
		tr := r.buildTree([]extent.Run{{Logical: 0, Physical: 100, Count: 8}})
		r.setVF(p, 0, tr.Root(), 64)
		d := r.openFunction(p, 1)
		buf := r.mem.MustAlloc(int64(r.ctl.P.BlockSize), 64)
		if st := d.io(p, ring.OpRead, 0, 1, buf); st != ring.StatusMediumError {
			t.Errorf("unreadable block: status %d, want ring.StatusMediumError", st)
		}
	})
	r.run()
	vf := r.ctl.VF(0)
	if vf.MediumErrors != 1 || vf.MediumRetries != int64(MediumRetryMax) {
		t.Fatalf("errors=%d retries=%d, want 1/%d", vf.MediumErrors, vf.MediumRetries, MediumRetryMax)
	}
}

func TestFLRAbortsWedgedFunction(t *testing.T) {
	r := newRig(t, DefaultParams())
	// No miss handler installed: a translation miss wedges the VF forever —
	// exactly the state FLR exists to recover.
	r.eng.Go("test", func(p *sim.Proc) {
		tr := r.buildTree([]extent.Run{{Logical: 0, Physical: 100, Count: 8}})
		r.setVF(p, 0, tr.Root(), 64)
		d := r.openFunction(p, 1)
		buf := r.mem.MustAlloc(int64(r.ctl.P.BlockSize), 64)
		// A write into a hole latches a miss and parks a walker.
		var desc [ring.DescBytes]byte
		ring.EncodeDescriptor(desc[:], ring.OpWrite, 1, 32, 1, buf)
		if err := r.mem.Write(d.ringBase, desc[:]); err != nil {
			t.Error(err)
		}
		d.prod++
		r.mmioW(p, d.qOff+ring.QRegDoorbell, uint64(d.prod))
		p.Sleep(100 * sim.Microsecond)
		if got := r.mmioR(p, d.pageOff+ring.RegReset); got != 1 {
			t.Errorf("ring.RegReset before FLR = %d, want 1 (in-flight)", got)
		}
		r.mmioW(p, d.pageOff+ring.RegReset, 1)
		for r.mmioR(p, d.pageOff+ring.RegReset) != 0 {
			p.Sleep(5 * sim.Microsecond)
		}
	})
	r.run()
	vf := r.ctl.VF(0)
	if vf.Resets != 1 || r.ctl.Counters().Resets != 1 {
		t.Fatalf("resets=%d flrs=%d, want 1/1", vf.Resets, r.ctl.Counters().Resets)
	}
	if vf.Inflight() != 0 {
		t.Fatalf("inflight=%d after drain, want 0", vf.Inflight())
	}
	if r.ctl.AbortedChunks == 0 {
		t.Fatal("no chunks aborted by the reset")
	}
	if vf.missPending {
		t.Fatal("miss latch survived the reset")
	}
	for _, q := range vf.queues {
		if q.ringSize != 0 || q.ringBase != 0 || q.cplBase != 0 {
			t.Fatal("ring state survived the reset")
		}
	}
	// The function stays provisioned: FLR recovers, it does not deprovision.
	if !vf.Enabled() || vf.SizeBlocks() != 64 {
		t.Fatal("management state lost by the reset")
	}
}

func TestFunctionRecoversAfterFLR(t *testing.T) {
	r := newRig(t, DefaultParams())
	r.eng.Go("test", func(p *sim.Proc) {
		tr := r.buildTree([]extent.Run{{Logical: 0, Physical: 100, Count: 8}})
		r.setVF(p, 0, tr.Root(), 64)
		d := r.openFunction(p, 1)
		buf := r.mem.MustAlloc(int64(r.ctl.P.BlockSize), 64)
		if st := d.io(p, ring.OpRead, 0, 1, buf); st != ring.StatusOK {
			t.Errorf("pre-reset read: status %d", st)
		}
		r.mmioW(p, d.pageOff+ring.RegReset, 1)
		for r.mmioR(p, d.pageOff+ring.RegReset) != 0 {
			p.Sleep(5 * sim.Microsecond)
		}
		// Reprogram the rings (the hypervisor/driver recovery path) and run
		// fresh I/O through the recovered function.
		d2 := r.openFunction(p, 1)
		if st := d2.io(p, ring.OpRead, 2, 1, buf); st != ring.StatusOK {
			t.Errorf("post-reset read: status %d", st)
		}
	})
	r.run()
}

func TestFetchDropIsCounted(t *testing.T) {
	r := newRig(t, DefaultParams())
	plan := fault.Plan{Seed: 1}
	// The first device DMA read in this scenario is the descriptor fetch.
	plan.Sites[fault.DMARead] = fault.SiteParams{OneShot: []int64{1}}
	r.installPlan(plan)
	r.eng.Go("test", func(p *sim.Proc) {
		d := r.openFunction(p, 0)
		buf := r.mem.MustAlloc(int64(r.ctl.P.BlockSize), 64)
		var desc [ring.DescBytes]byte
		ring.EncodeDescriptor(desc[:], ring.OpRead, 1, 0, 1, buf)
		if err := r.mem.Write(d.ringBase, desc[:]); err != nil {
			t.Error(err)
		}
		d.prod++
		r.mmioW(p, d.qOff+ring.QRegDoorbell, uint64(d.prod))
	})
	r.run()
	if r.ctl.Counters().FetchDrops != 1 || r.ctl.PF().FetchDrops != 1 {
		t.Fatalf("fetch drops: ctl=%d pf=%d, want 1/1", r.ctl.Counters().FetchDrops, r.ctl.PF().FetchDrops)
	}
	if r.ctl.ReqsDone != 0 {
		t.Fatalf("dropped fetch still completed a request")
	}
}

func TestCompletionDropIsCounted(t *testing.T) {
	r := newRig(t, DefaultParams())
	plan := fault.Plan{Seed: 1}
	// For a PF write the first device DMA write is the completion entry.
	plan.Sites[fault.DMAWrite] = fault.SiteParams{OneShot: []int64{1}}
	r.installPlan(plan)
	r.eng.Go("test", func(p *sim.Proc) {
		d := r.openFunction(p, 0)
		buf := r.mem.MustAlloc(int64(r.ctl.P.BlockSize), 64)
		var desc [ring.DescBytes]byte
		ring.EncodeDescriptor(desc[:], ring.OpWrite, 1, 0, 1, buf)
		if err := r.mem.Write(d.ringBase, desc[:]); err != nil {
			t.Error(err)
		}
		d.prod++
		r.mmioW(p, d.qOff+ring.QRegDoorbell, uint64(d.prod))
	})
	r.run()
	if r.ctl.Counters().CplDrops != 1 || r.ctl.PF().CplDrops != 1 {
		t.Fatalf("cpl drops: ctl=%d pf=%d, want 1/1", r.ctl.Counters().CplDrops, r.ctl.PF().CplDrops)
	}
	// The request itself completed device-side (the data write happened).
	if r.ctl.ReqsDone != 1 {
		t.Fatalf("ReqsDone=%d, want 1", r.ctl.ReqsDone)
	}
}

func TestMissResendRecoversDroppedMSI(t *testing.T) {
	p := DefaultParams()
	p.MissResendInterval = 50 * sim.Microsecond
	r := newRig(t, p)
	plan := fault.Plan{Seed: 1}
	// Drop the first miss MSI on the wire; the resend timer must re-raise it.
	plan.Sites[fault.MSI] = fault.SiteParams{OneShot: []int64{1}}
	r.installPlan(plan)
	r.missHandler = func(hp *sim.Proc) {
		mgmt := r.bar + r.ctl.MgmtPageOffset()
		r.mmioW(hp, mgmt+ring.MgmtRewalk, ring.RewalkFail)
	}
	r.eng.Go("test", func(tp *sim.Proc) {
		tr := r.buildTree([]extent.Run{{Logical: 0, Physical: 100, Count: 8}})
		r.setVF(tp, 0, tr.Root(), 64)
		d := r.openFunction(tp, 1)
		buf := r.mem.MustAlloc(int64(r.ctl.P.BlockSize), 64)
		// Write into a hole: miss; first MSI dropped; resend delivers it.
		if st := d.io(tp, ring.OpWrite, 32, 1, buf); st != ring.StatusNoSpace {
			t.Errorf("hole write: status %d, want ring.StatusNoSpace", st)
		}
	})
	r.run()
	if r.ctl.MissResends == 0 {
		t.Fatal("miss MSI was not resent")
	}
	if r.missMSIs == 0 {
		t.Fatal("miss handler never ran")
	}
}

// The device total of an error counter is FnCounters.Add over the functions
// (Controller.Counters). Walk the struct by reflection so that a counter added
// later cannot be left out of the sum.
func TestFnCountersAddSumsEveryField(t *testing.T) {
	var a, b, sum FnCounters
	av, bv := reflect.ValueOf(&a).Elem(), reflect.ValueOf(&b).Elem()
	for i := 0; i < av.NumField(); i++ {
		if av.Field(i).Kind() != reflect.Int64 {
			t.Fatalf("field %s is %s: teach Add and this test about it", av.Type().Field(i).Name, av.Field(i).Kind())
		}
		av.Field(i).SetInt(int64(i + 1))
		bv.Field(i).SetInt(int64(100 * (i + 1)))
	}
	sum.Add(&a)
	sum.Add(&b)
	sv := reflect.ValueOf(sum)
	for i := 0; i < sv.NumField(); i++ {
		if got, want := sv.Field(i).Int(), int64(101*(i+1)); got != want {
			t.Errorf("%s = %d after Add, want %d", sv.Type().Field(i).Name, got, want)
		}
	}
}

// A scrub rewrite climbs the same retry ladder as a foreground access
// (mediumOp): a transiently failing write-back is retried and the repair
// counted once it lands; one that keeps failing latches a medium error after
// MediumRetryMax retries and repairs nothing. Either way each failed attempt
// is reported as a fault event, after the one for the failed verify read.
func TestScrubRewriteClimbsTheRetryLadder(t *testing.T) {
	const bad = 200
	for _, tc := range []struct {
		name                     string
		writes                   fault.SiteParams
		status                   uint32
		retries, errors, repairs int64
	}{
		{"retry then success", fault.SiteParams{OneShot: []int64{1}}, ring.StatusOK, 1, 0, 1},
		{"exhaustion", fault.SiteParams{Prob: 1.0}, ring.StatusMediumError, int64(MediumRetryMax), 1, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rec := &recorder{}
			r := newRigWith(t, DefaultParams(), rec)
			plan := fault.Plan{Seed: 1, LatentSectors: []int64{bad}}
			plan.Sites[fault.MediumWrite] = tc.writes
			inj := r.installPlan(plan)
			r.eng.Go("test", func(p *sim.Proc) {
				pf := r.openFunction(p, 0)
				if st := pf.io(p, ring.OpVerify, bad, 1, 0); st != tc.status {
					t.Errorf("verify of a latent sector: status %d, want %d", st, tc.status)
				}
			})
			r.run()
			pf := r.ctl.PF()
			if pf.MediumRetries != tc.retries || pf.MediumErrors != tc.errors || pf.IntegrityRepairs != tc.repairs {
				t.Errorf("retries=%d errors=%d repairs=%d, want %d/%d/%d",
					pf.MediumRetries, pf.MediumErrors, pf.IntegrityRepairs, tc.retries, tc.errors, tc.repairs)
			}
			if healed := inj.LatentCount() == 0; healed != (tc.repairs == 1) {
				t.Errorf("latent sector healed = %v with %d repairs counted", healed, tc.repairs)
			}
			if faults, want := int64(len(rec.events(EvFault))), 1+tc.retries+tc.errors; faults != want {
				t.Errorf("%d fault events, want %d: the failed read and every failed rewrite attempt", faults, want)
			}
		})
	}
}
