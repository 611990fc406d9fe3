package bench

import (
	"bytes"
	"errors"
	"fmt"

	"nesc/internal/fabric"
	"nesc/internal/fault"
	"nesc/internal/guest"
	"nesc/internal/hypervisor"
	"nesc/internal/ring"
	"nesc/internal/sim"
	"nesc/internal/stats"
)

// GrayFail measures the gray-failure (fail-slow) hardening stack.
//
// The first table is a 3-way mirror under a roaming fail-slow fault: a
// pulse generator repeatedly degrades whichever leg currently wins read
// steering (the worst case for EWMA-only placement — every pulse lands on
// the leg serving the reads). Six concurrent tenants read through the
// pulses; the table compares their read latency distribution with the
// mitigation stack off (plain EWMA steering, which only reacts after each
// convoy of reads has already paid the full degraded latency) and on
// (hedged reads cap every straggler at the adaptive deadline, the per-leg
// fail-slow detector quarantines the chronic leg, probe reads let it win
// traffic back after rejoin). Every read is verified bit-exactly.
//
// The second table is deadline propagation + per-VF admission control on a
// single device: concurrent writers run through a fail-slow window, once
// with an unbounded queue (every op waits out the full backlog) and once
// with a driver-programmed deadline and inflight budget (the device
// fast-fails infeasible requests with a retryable busy status instead of
// letting them rot in the queue). Acknowledged writes are verified after
// the fault clears; acked data must never be lost.
func GrayFail(cfg Config) ([]*stats.Table, error) {
	hedge, err := grayHedging(cfg)
	if err != nil {
		return nil, err
	}
	adm, err := grayAdmission(cfg)
	if err != nil {
		return nil, err
	}
	return []*stats.Table{hedge, adm}, nil
}

// grayPass is one mirror run's harvest.
type grayPass struct {
	lat                                 *stats.Sampler
	hedged, wins, quar, rejoins, probes int64
	degradedOps                         int64
	lost                                int
}

func grayHedging(cfg Config) (*stats.Table, error) {
	tbl := stats.NewTable("Gray failure: roaming fail-slow leg in a 3-way mirror, hedging + quarantine off vs on",
		"mitigation", "", "reads", "read p50 us", "read p99 us", "hedged", "hedge wins", "quarantines", "rejoins", "lost reads")
	off, err := grayMirrorPass(cfg, false)
	if err != nil {
		return nil, err
	}
	on, err := grayMirrorPass(cfg, true)
	if err != nil {
		return nil, err
	}
	set := func(row string, r *grayPass) {
		tbl.Set(row, "reads", float64(r.lat.N()))
		tbl.Set(row, "read p50 us", r.lat.Percentile(50))
		tbl.Set(row, "read p99 us", r.lat.Percentile(99))
		tbl.Set(row, "hedged", float64(r.hedged))
		tbl.Set(row, "hedge wins", float64(r.wins))
		tbl.Set(row, "quarantines", float64(r.quar))
		tbl.Set(row, "rejoins", float64(r.rejoins))
		tbl.Set(row, "lost reads", float64(r.lost))
	}
	set("off (EWMA steering only)", off)
	set("on (hedge + quarantine + probes)", on)
	offP99, onP99 := off.lat.Percentile(99), on.lat.Percentile(99)
	if onP99 <= 0 || offP99 < 2*onP99 {
		return nil, fmt.Errorf("grayfail: hedging+quarantine improved read p99 only %.1fx (off %.1f us, on %.1f us); want >= 2x",
			offP99/onP99, offP99, onP99)
	}
	if off.lost != 0 || on.lost != 0 {
		return nil, fmt.Errorf("grayfail: lost reads (off %d, on %d)", off.lost, on.lost)
	}
	tbl.Note(fmt.Sprintf("tenant read p99 improves %.1fx under identical fail-slow pulses (%d degraded medium ops per pass)",
		offP99/onP99, on.degradedOps))
	tbl.Note(fmt.Sprintf("mitigation pass: %d probe reads kept quarantined-leg latency estimates live; every read verified bit-exactly", on.probes))
	return tbl, nil
}

// grayMirrorPass runs one 3-way-mirror workload under roaming fail-slow
// pulses, with the mitigation stack armed or not.
func grayMirrorPass(cfg Config, mitigate bool) (*grayPass, error) {
	cfg.NumDevices = 3
	cfg.Fault = &fault.Plan{Seed: 11}
	pl := NewPlatform(cfg)
	res := &grayPass{lat: &stats.Sampler{}}
	err := pl.Run(func(p *sim.Proc) error {
		const fileBlocks = 1024
		for _, d := range pl.Hyp.Devices() {
			if err := d.MkImage(p, "/gray.img", 1, fileBlocks, false); err != nil {
				return err
			}
		}
		fc := fabric.Config{
			SuspectThreshold: 2, FailThreshold: 4, RecoverThreshold: 3,
			RegionBlocks: 32, ResilverInterval: 20 * sim.Microsecond,
		}
		if mitigate {
			fc.HedgePercentile = 95
			fc.SlowFactor = 3
			fc.SlowWindow = 32
			fc.SlowBaseline = 16
			fc.SlowMinSamples = 4
			fc.ProbeEvery = 8
			fc.QuarantineDuration = 2 * sim.Millisecond
		}
		vm, err := pl.Mirrors.NewMirroredVM(p, "gray", hypervisor.VMConfig{
			Backend: hypervisor.BackendDirect, DiskPath: "/gray.img", UID: 1,
		}, []int{0, 1, 2}, fc)
		if err != nil {
			return err
		}
		const slots = 64
		bs := vm.Kernel.Drv.BlockSize()
		stripeBlocks := int64(fabricStripe / bs)
		buf := make([]byte, fabricStripe)
		for s := 0; s < slots; s++ {
			fabricFill(buf, int64(s))
			if err := vm.Kernel.WriteBytes(p, int64(s)*fabricStripe, buf); err != nil {
				return fmt.Errorf("fill %d: %w", s, err)
			}
		}
		// Warmup reads train the read-steering EWMAs, the hedge latency
		// window, and the serving leg's fail-slow baseline before any pulse.
		got := make([]byte, fabricStripe)
		for i := 0; i < 48; i++ {
			if err := vm.Kernel.ReadBytes(p, int64(i%slots)*fabricStripe, got); err != nil {
				return fmt.Errorf("warmup read %d: %w", i, err)
			}
		}
		// Concurrent tenant readers, each with its own DMA buffer (the
		// kernel's byte-path scratch is single-caller).
		const readers, perReader = 6, 120
		wg := sim.NewWaitGroup(pl.Eng)
		samp := make([]*stats.Sampler, readers)
		lost := make([]int, readers)
		active := readers
		var readerErr error
		for rd := 0; rd < readers; rd++ {
			rd := rd
			samp[rd] = &stats.Sampler{}
			rbuf := guest.AllocBuffer(pl.Mem, fabricStripe)
			wg.Add(1)
			pl.Eng.Go(fmt.Sprintf("gray-reader-%d", rd), func(q *sim.Proc) {
				defer func() { active--; wg.Done() }()
				want := make([]byte, fabricStripe)
				for i := 0; i < perReader; i++ {
					slot := (rd*11 + i*7) % slots
					start := q.Now()
					if err := vm.Kernel.SubmitAligned(q, false, int64(slot)*stripeBlocks, rbuf); err != nil {
						if readerErr == nil {
							readerErr = fmt.Errorf("reader %d op %d: %w", rd, i, err)
						}
						return
					}
					samp[rd].Add(float64(q.Now()-start) / 1000)
					fabricFill(want, int64(slot))
					if !bytes.Equal(rbuf.Data, want) {
						lost[rd]++
					}
				}
			})
		}
		// Roaming fail-slow pulses: each pulse degrades whichever leg
		// currently wins read steering (lowest EWMA, skipping quarantined
		// legs) — the gray failure follows the traffic.
		pulses := 0
		for active > 0 && pulses < 40 {
			st := fabric.ClientOf(vm).Status()
			target := -1
			for i, s := range st {
				if s.Quarantined || s.State == "failed" {
					continue
				}
				if target < 0 || s.EWMARead < st[target].EWMARead {
					target = i
				}
			}
			if target >= 0 {
				pulses++
				pl.Inj.Degrade(fault.Degradation{
					Device: st[target].Dev, Start: p.Now(),
					Duration: 600 * sim.Microsecond, Extra: 2 * sim.Millisecond,
				})
			}
			p.Sleep(1500 * sim.Microsecond)
		}
		wg.WaitFor(p)
		if readerErr != nil {
			return readerErr
		}
		pl.Inj.ClearDegradations(0)
		pl.Inj.ClearDegradations(1)
		pl.Inj.ClearDegradations(2)
		for rd := 0; rd < readers; rd++ {
			res.lat.Merge(samp[rd])
			res.lost += lost[rd]
		}
		// Final verification in slot order: no acknowledged write may be lost.
		want := make([]byte, fabricStripe)
		for s := 0; s < slots; s++ {
			fabricFill(want, int64(s))
			if err := vm.Kernel.ReadBytes(p, int64(s)*fabricStripe, got); err != nil || !bytes.Equal(got, want) {
				res.lost++
			}
		}
		c := fabric.ClientOf(vm)
		res.hedged, res.wins, res.quar, res.rejoins, res.probes = c.HedgedReads, c.HedgeWins, c.Quarantines, c.Rejoins, c.ProbeReads
		res.degradedOps = pl.Inj.DegradedOps
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// admPass is one admission-control run's harvest.
type admPass struct {
	lat          *stats.Sampler
	acked, shed  int
	admitRejects int64
	expirations  int64
	busyRejects  int64
	lost         int
}

func grayAdmission(cfg Config) (*stats.Table, error) {
	tbl := stats.NewTable("Gray failure: deadline propagation + per-VF admission control through a fail-slow window",
		"policy", "", "ops acked", "busy shed", "ack p99 us", "admit rejects", "deadline expired", "driver busy", "lost writes")
	open, err := grayAdmissionPass(cfg, false)
	if err != nil {
		return nil, err
	}
	armed, err := grayAdmissionPass(cfg, true)
	if err != nil {
		return nil, err
	}
	set := func(row string, r *admPass) {
		tbl.Set(row, "ops acked", float64(r.acked))
		tbl.Set(row, "busy shed", float64(r.shed))
		tbl.Set(row, "ack p99 us", r.lat.Percentile(99))
		tbl.Set(row, "admit rejects", float64(r.admitRejects))
		tbl.Set(row, "deadline expired", float64(r.expirations))
		tbl.Set(row, "driver busy", float64(r.busyRejects))
		tbl.Set(row, "lost writes", float64(r.lost))
	}
	set("unbounded queue", open)
	set("deadline 400us + inflight 8", armed)
	if open.lost != 0 || armed.lost != 0 {
		return nil, fmt.Errorf("grayfail admission: lost acked writes (open %d, armed %d)", open.lost, armed.lost)
	}
	if armed.shed == 0 || armed.admitRejects == 0 {
		return nil, fmt.Errorf("grayfail admission: expected busy shedding under the armed policy (shed %d, admit rejects %d)",
			armed.shed, armed.admitRejects)
	}
	tbl.Note(fmt.Sprintf("acked-write p99 %.0f us unbounded vs %.0f us with the deadline armed; busy is retryable — nothing the device acknowledged is lost",
		open.lat.Percentile(99), armed.lat.Percentile(99)))
	tbl.Note("the driver programs QRegDeadline once; the device stamps each request at fetch and fast-fails infeasible or expired work with StatusBusy at admission, mux, walker, and DTU stages")
	return tbl, nil
}

// grayAdmissionPass runs concurrent writers through a fail-slow window on a
// single device, with or without the deadline + admission budget armed.
func grayAdmissionPass(cfg Config, arm bool) (*admPass, error) {
	cfg.Fault = &fault.Plan{Seed: 11}
	// Busy must surface to the tenant immediately: no timeout recovery, no
	// driver-level retries.
	cfg.Hyp.Ring.Timeout = 0
	cfg.Hyp.Ring.RetryMax = 0
	if arm {
		cfg.Hyp.Ring.Deadline = 400 * sim.Microsecond
		cfg.Core.AdmitInflight = 8
	}
	pl := NewPlatform(cfg)
	d := pl.Hyp.Device(0)
	res := &admPass{lat: &stats.Sampler{}}
	err := pl.Run(func(p *sim.Proc) error {
		const fileBlocks = 1024
		if err := d.MkImage(p, "/adm.img", 1, fileBlocks, false); err != nil {
			return err
		}
		vm, err := pl.Hyp.NewVM(p, "adm", hypervisor.VMConfig{
			Backend: hypervisor.BackendDirect, DiskPath: "/adm.img", UID: 1,
		})
		if err != nil {
			return err
		}
		bs := vm.Kernel.Drv.BlockSize()
		stripeBlocks := int64(fabricStripe / bs)
		// Each writer owns a disjoint slot range and writes each slot exactly
		// once: a shed (busy) op may leave undefined bytes in its own slot,
		// but can never touch a slot whose write was acknowledged.
		const writers, perWriter = 10, 24
		wg := sim.NewWaitGroup(pl.Eng)
		samp := make([]*stats.Sampler, writers)
		acked := make([][]bool, writers)
		shed := make([]int, writers)
		var writerErr error
		for wr := 0; wr < writers; wr++ {
			wr := wr
			samp[wr] = &stats.Sampler{}
			acked[wr] = make([]bool, perWriter)
			wbuf := guest.AllocBuffer(pl.Mem, fabricStripe)
			wg.Add(1)
			pl.Eng.Go(fmt.Sprintf("gray-writer-%d", wr), func(q *sim.Proc) {
				defer wg.Done()
				for i := 0; i < perWriter; i++ {
					slot := wr*perWriter + i
					fabricFill(wbuf.Data, int64(slot))
					start := q.Now()
					err := vm.Kernel.SubmitAligned(q, true, int64(slot)*stripeBlocks, wbuf)
					switch {
					case err == nil:
						samp[wr].Add(float64(q.Now()-start) / 1000)
						acked[wr][i] = true
					case errors.Is(err, ring.ErrBusy):
						shed[wr]++
					default:
						if writerErrLocal := fmt.Errorf("writer %d op %d: %w", wr, i, err); writerErr == nil {
							writerErr = writerErrLocal
						}
						return
					}
				}
			})
		}
		// Let a healthy phase establish the chunk-service estimator, then
		// open a chronic fail-slow window in the middle of the workload.
		p.Sleep(400 * sim.Microsecond)
		pl.Inj.Degrade(fault.Degradation{
			Device: 0, Start: p.Now(), Duration: 3 * sim.Millisecond, Extra: 1 * sim.Millisecond,
		})
		wg.WaitFor(p)
		if writerErr != nil {
			return writerErr
		}
		pl.Inj.ClearDegradations(0)
		// Verify every acknowledged write after the fault has cleared.
		got := make([]byte, fabricStripe)
		want := make([]byte, fabricStripe)
		for wr := 0; wr < writers; wr++ {
			res.lat.Merge(samp[wr])
			res.shed += shed[wr]
			for i := 0; i < perWriter; i++ {
				if !acked[wr][i] {
					continue
				}
				res.acked++
				slot := wr*perWriter + i
				fabricFill(want, int64(slot))
				if err := vm.Kernel.ReadBytes(p, int64(slot)*fabricStripe, got); err != nil || !bytes.Equal(got, want) {
					res.lost++
				}
			}
		}
		res.admitRejects = d.Ctl.Counters().AdmitRejects
		res.expirations = d.Ctl.DeadlineExpirations
		res.busyRejects = pl.Hyp.RecoveryStats().BusyRejects
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}
