package core

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"nesc/internal/blockdev"
	"nesc/internal/extent"
	"nesc/internal/hostmem"
	"nesc/internal/pcie"
	"nesc/internal/ring"
	"nesc/internal/sim"
)

// Queue-pair pool, active-list, and lazy-materialization behaviour (the
// massive-tenancy refactor): leases are a bounded device resource, FLR
// never returns them, and configured-but-untouched VFs cost nothing.

func poolParams(poolSize int) Params {
	p := DefaultParams()
	p.NumVFs = 4
	p.QueuePoolSize = poolSize
	return p
}

func TestQueuePoolExhaustion(t *testing.T) {
	r := newRig(t, poolParams(2))
	r.eng.Go("main", func(p *sim.Proc) {
		// Identity trees for two VFs over disjoint ranges.
		tr0 := r.buildTree([]extent.Run{{Logical: 0, Physical: 0, Count: 64}})
		tr1 := r.buildTree([]extent.Run{{Logical: 0, Physical: 64, Count: 64}})
		r.setVF(p, 0, tr0.Root(), 64)
		r.setVF(p, 1, tr1.Root(), 64)

		// PF + VF0 drain the two-entry pool.
		pf := r.openFunction(p, 0)
		d0 := r.openFunction(p, 1)
		if got := r.mmioR(p, r.bar+r.ctl.MgmtPageOffset()); got == 0 {
			// Non-posted read above flushed the posted programming writes;
			// the value itself (VF0's tree root) is irrelevant.
			_ = got
		}
		if leased := r.mmioR(p, r.bar+ring.PFRegQueuesInUse); leased != 2 {
			t.Fatalf("leased %d queue pairs after PF+VF0, want 2", leased)
		}

		// VF1's programming writes must be rejected by the exhausted pool:
		// no lease, a counted failure, and a later doorbell is incoherent
		// (AER counter, not a panic or a conjured queue).
		d1 := r.openFunction(p, 2)
		if leased := r.mmioR(p, r.bar+ring.PFRegQueuesInUse); leased != 2 {
			t.Errorf("leased %d queue pairs after rejected programming, want 2", leased)
		}
		if r.ctl.QueueLeaseFails == 0 {
			t.Error("pool exhaustion did not count a lease failure")
		}
		r.mmioW(p, d1.qOff+ring.QRegDoorbell, 1)
		r.mmioR(p, d1.pageOff+ring.RegNumQueues) // flushes the posted doorbell
		if r.ctl.VF(1).BadDoorbells == 0 {
			t.Error("doorbell on an unleased queue did not count as incoherent")
		}

		// PF and VF0 still work end to end on their leased queues.
		buf := r.mem.MustAlloc(1024, 64)
		if st := pf.io(p, ring.OpWrite, 0, 1, buf); st != ring.StatusOK {
			t.Fatalf("PF write status %d", st)
		}
		if st := d0.io(p, ring.OpWrite, 0, 1, buf); st != ring.StatusOK {
			t.Fatalf("VF0 write status %d", st)
		}

		// Disabling VF0 returns its queue pair; VF1 can then lease it.
		r.mmioW(p, r.bar+r.ctl.MgmtPageOffset()+0*ring.MgmtStride+ring.MgmtEnable, 0)
		if leased := r.mmioR(p, r.bar+ring.PFRegQueuesInUse); leased != 1 {
			t.Fatalf("leased %d queue pairs after VF0 disable, want 1", leased)
		}
		d1 = r.openFunction(p, 2)
		if leased := r.mmioR(p, r.bar+ring.PFRegQueuesInUse); leased != 2 {
			t.Fatalf("VF1 failed to lease the returned queue pair")
		}
		if st := d1.io(p, ring.OpWrite, 3, 1, buf); st != ring.StatusOK {
			t.Fatalf("VF1 write status %d after re-lease", st)
		}
	})
	r.run()
}

func TestFLRKeepsLeaseDisableReturnsIt(t *testing.T) {
	r := newRig(t, poolParams(0))
	r.eng.Go("main", func(p *sim.Proc) {
		tr := r.buildTree([]extent.Run{{Logical: 0, Physical: 0, Count: 64}})
		r.setVF(p, 0, tr.Root(), 64)
		d := r.openFunction(p, 1)
		buf := r.mem.MustAlloc(1024, 64)
		if st := d.io(p, ring.OpWrite, 0, 1, buf); st != ring.StatusOK {
			t.Fatalf("write status %d", st)
		}
		leasedBefore := r.mmioR(p, r.bar+ring.PFRegQueuesInUse)

		// FLR mid-lease: kick off a request and reset before reaping its
		// completion. The function drains without panicking and the queue
		// pair stays leased — FLR is a tenant-local event, not a
		// deprovision.
		var desc [ring.DescBytes]byte
		d.nextID++
		ring.EncodeDescriptor(desc[:], ring.OpWrite, d.nextID, 8, 1, buf)
		if err := r.mem.Write(d.ringBase+int64(d.prod%testRing)*ring.DescBytes, desc[:]); err != nil {
			t.Fatal(err)
		}
		d.prod++
		r.mmioW(p, d.qOff+ring.QRegDoorbell, uint64(d.prod))
		r.mmioW(p, d.pageOff+ring.RegReset, 1)
		for r.mmioR(p, d.pageOff+ring.RegReset) != 0 {
			p.Sleep(sim.Microsecond)
		}
		if leased := r.mmioR(p, r.bar+ring.PFRegQueuesInUse); leased != leasedBefore {
			t.Errorf("FLR changed leased queues %d -> %d; reset must not return leases", leasedBefore, leased)
		}
		if r.ctl.QueueReturns != 0 {
			t.Errorf("FLR returned %d queue pairs to the pool", r.ctl.QueueReturns)
		}

		// Disable deprovisions: the queue pair goes back, and a stale
		// doorbell from the departed tenant is counted, not honored.
		r.mmioW(p, r.bar+r.ctl.MgmtPageOffset()+0*ring.MgmtStride+ring.MgmtEnable, 0)
		r.mmioR(p, r.bar+ring.PFRegQueuesInUse) // flushes the posted disable
		if r.ctl.QueueReturns != 1 {
			t.Fatalf("disable returned %d queue pairs, want 1", r.ctl.QueueReturns)
		}
		badBefore := r.ctl.VF(0).BadDoorbells
		r.mmioW(p, d.qOff+ring.QRegDoorbell, uint64(d.prod+1))
		r.mmioR(p, d.pageOff+ring.RegNumQueues) // flushes the posted doorbell
		if bad := r.ctl.VF(0).BadDoorbells; bad != badBefore+1 {
			t.Errorf("doorbell to a returned queue: bad-doorbell counter %d -> %d, want +1", badBefore, bad)
		}

		// Re-enable and re-program: the tenant's successor gets a clean
		// queue and a working data path.
		r.setVF(p, 0, tr.Root(), 64)
		d = r.openFunction(p, 1)
		if st := d.io(p, ring.OpRead, 0, 1, buf); st != ring.StatusOK {
			t.Fatalf("read status %d after re-lease", st)
		}
	})
	r.run()
}

func TestActiveListInvariant(t *testing.T) {
	// Random churn across every VF: if a scheduler ever dropped a function
	// with work still queued, its requests would hang and the run would
	// never quiesce. At quiesce the active bitmaps must be empty.
	r := newRig(t, poolParams(0))
	done := 0
	const vfs = 4
	const iosPerVF = 25
	r.eng.Go("main", func(p *sim.Proc) {
		rng := rand.New(rand.NewSource(7))
		for i := 0; i < vfs; i++ {
			tr := r.buildTree([]extent.Run{{Logical: 0, Physical: uint64(i) * 256, Count: 256}})
			r.setVF(p, i, tr.Root(), 256)
		}
		wg := sim.NewWaitGroup(r.eng)
		for i := 0; i < vfs; i++ {
			seed := rng.Int63()
			wg.Add(1)
			r.eng.Go("churn", func(q *sim.Proc) {
				defer wg.Done()
				lrng := rand.New(rand.NewSource(seed))
				d := r.openFunction(q, i+1)
				buf := r.mem.MustAlloc(8*1024, 64)
				for k := 0; k < iosPerVF; k++ {
					op := uint32(ring.OpRead)
					if lrng.Intn(2) == 0 {
						op = ring.OpWrite
					}
					count := uint32(1 + lrng.Intn(4))
					lba := uint64(lrng.Intn(200))
					if st := d.io(q, op, lba, count, buf); st != ring.StatusOK {
						t.Errorf("vf%d io %d status %d", i, k, st)
						return
					}
					done++
				}
			})
		}
		wg.WaitFor(p)
	})
	r.run()
	if done != vfs*iosPerVF {
		t.Fatalf("completed %d ios, want %d — a function was lost with work pending", done, vfs*iosPerVF)
	}
	for w, bits := range r.ctl.mux.active {
		if bits != 0 {
			t.Errorf("mux active bitmap word %d = %#x at quiesce, want 0", w, bits)
		}
	}
	for w, bits := range r.ctl.dtu.active {
		if bits != 0 {
			t.Errorf("dtu active bitmap word %d = %#x at quiesce, want 0", w, bits)
		}
	}
}

func TestLazyMaterializationAtScale(t *testing.T) {
	p := DefaultParams()
	p.NumVFs = 1024
	r := newRig(t, p)
	if got := r.ctl.MaterializedVFs(); got != 0 {
		t.Fatalf("%d VFs materialized after construction, want 0", got)
	}
	base := r.ctl.StateFootprint()
	if base > 16*1024 {
		t.Errorf("idle 1024-VF controller models %d bytes of state, want under 16 KB", base)
	}
	// A single MMIO touch on one VF's page conjures exactly that VF.
	r.ctl.MMIORead(r.ctl.FunctionPageOffset(500+1)+ring.RegNumQueues, 8)
	if got := r.ctl.MaterializedVFs(); got != 1 {
		t.Errorf("%d VFs materialized after touching one page, want 1", got)
	}
	if grown := r.ctl.StateFootprint() - base; grown <= 0 {
		t.Errorf("state footprint did not grow with materialization (%d)", grown)
	}
	r.eng.Run()
	r.eng.Shutdown()
}

// Every VF's latched miss must have a bit in a miss-pending bank, or the host
// never learns of it and the walk stalls for good: a VF count past the last
// bank is refused, as a queue count past the register file is.
func TestNewRefusesMoreVFsThanMissBanks(t *testing.T) {
	limit := ring.PFRegMissPendingBanks * 64
	for _, n := range []int{limit, limit + 1} {
		p := DefaultParams()
		p.NumVFs = n
		eng := sim.NewEngine()
		medium := blockdev.NewMedium(eng, blockdev.NewStore(p.BlockSize, 64), blockdev.DefaultMediumParams())
		_, err := New(eng, pcie.New(eng, hostmem.New(1<<20), pcie.DefaultParams()), medium, p, nil)
		switch {
		case n == limit && err != nil:
			t.Errorf("NumVFs %d refused: %v", n, err)
		case n > limit && (err == nil || !strings.Contains(err.Error(), fmt.Sprint(limit))):
			t.Errorf("NumVFs %d: error %v, want one naming the limit %d", n, err, limit)
		}
		eng.Shutdown()
	}
}

// A queue pair returned to the pool with a request still in flight may be
// re-leased, even to another function, before that request retires. Its
// completion must die at the lease guard: the new tenant's completion ring
// stays untouched and nobody is interrupted for it.
func TestOrphanCompletionNeverReachesTheNewLessee(t *testing.T) {
	r := newRig(t, poolParams(0))
	cplMSIs := 0
	r.fab.SetMSIHandler(func(from pcie.FnID, vec uint8) {
		if vec == ring.VecCompletion {
			cplMSIs++
			if s := r.cplSignals[from]; s != nil {
				s.Fire()
			}
		}
	})
	r.eng.Go("main", func(p *sim.Proc) {
		tr0 := r.buildTree([]extent.Run{{Logical: 0, Physical: 0, Count: 64}})
		tr1 := r.buildTree([]extent.Run{{Logical: 0, Physical: 64, Count: 64}})
		r.setVF(p, 0, tr0.Root(), 64)
		r.setVF(p, 1, tr1.Root(), 64)
		d0 := r.openFunction(p, 1)
		buf := r.mem.MustAlloc(32*1024, 64)

		// VF0 rings a 32-block write and is deprovisioned once the device
		// has fetched it.
		var desc [ring.DescBytes]byte
		d0.nextID++
		ring.EncodeDescriptor(desc[:], ring.OpWrite, d0.nextID, 0, 32, buf)
		if err := r.mem.Write(d0.ringBase, desc[:]); err != nil {
			t.Fatal(err)
		}
		d0.prod++
		r.mmioW(p, d0.qOff+ring.QRegDoorbell, uint64(d0.prod))
		vf0 := r.ctl.VF(0)
		for vf0.inflight == 0 {
			p.Sleep(100 * sim.Nanosecond)
		}
		pair := vf0.queues[0]
		r.mmioW(p, r.bar+r.ctl.MgmtPageOffset()+0*ring.MgmtStride+ring.MgmtEnable, 0)

		// VF1 programs its queue 0 and is handed the very same pair.
		d1 := r.openFunction(p, 2)
		r.mmioR(p, d1.qOff+ring.QRegRingSize) // non-posted: the programming writes have landed
		if r.ctl.VF(1).queues[0] != pair {
			t.Fatal("the returned queue pair was not re-leased to the next function")
		}
		if vf0.inflight == 0 {
			t.Fatal("the orphaned request retired before the pair was re-leased; nothing is being tested")
		}
		for i := 0; vf0.inflight != 0; i++ {
			if i > 10000 {
				t.Fatal("the orphaned request never retired")
			}
			p.Sleep(sim.Microsecond)
		}
		ringNow := make([]byte, testRing*ring.CplBytes)
		if err := r.mem.Read(d1.cplBase, ringNow); err != nil {
			t.Fatal(err)
		}
		for i, b := range ringNow {
			if b != 0 {
				t.Fatalf("the previous tenant's completion reached the new tenant's ring (byte %d = %#x)", i, b)
			}
		}
		if cplMSIs != 0 {
			t.Errorf("%d completion MSIs raised for a completion nobody owns", cplMSIs)
		}
		// The new tenant's own first completion is sequence 1 on a clean ring.
		if st := d1.io(p, ring.OpWrite, 0, 1, buf); st != ring.StatusOK {
			t.Fatalf("new tenant's write status %d", st)
		}
	})
	r.run()
}
