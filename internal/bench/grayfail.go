package bench

import (
	"bytes"
	"errors"
	"fmt"

	"nesc/internal/fabric"
	"nesc/internal/fault"
	"nesc/internal/guest"
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

func grayHedging(cfg Config) (*stats.Table, error) {
	tbl := stats.NewTable("Gray failure: roaming fail-slow leg in a 3-way mirror, hedging + quarantine off vs on",
		"mitigation", "", "reads", "read p50 us", "read p99 us", "hedged", "hedge wins", "quarantines", "rejoins", "lost reads")
	rows := map[bool]string{false: "off (EWMA steering only)", true: "on (hedge + quarantine + probes)"}
	var degradedOps, probes int64 // of the mitigated pass, for the notes
	err := eachPoint(cfg, []bool{false, true},
		func(c *Config, _ bool) {
			c.NumDevices = 3
			c.Fault = &fault.Plan{Seed: 11}
		},
		func(p *sim.Proc, pl *Platform, mitigate bool) error {
			lat, lost, c, err := grayMirrorPass(p, pl, mitigate)
			if err != nil {
				return err
			}
			tbl.SetRow(rows[mitigate], float64(lat.N()), lat.Percentile(50), lat.Percentile(99), float64(c.HedgedReads),
				float64(c.HedgeWins), float64(c.Quarantines), float64(c.Rejoins), float64(lost))
			degradedOps, probes = pl.Inj.DegradedOps, c.ProbeReads
			return nil
		})
	if err != nil {
		return nil, err
	}
	offP99, onP99 := tbl.MustGet(rows[false], "read p99 us"), tbl.MustGet(rows[true], "read p99 us")
	if onP99 <= 0 || offP99 < 2*onP99 {
		return nil, fmt.Errorf("grayfail: hedging+quarantine improved read p99 only %.1fx (off %.1f us, on %.1f us); want >= 2x",
			offP99/onP99, offP99, onP99)
	}
	if off, on := tbl.MustGet(rows[false], "lost reads"), tbl.MustGet(rows[true], "lost reads"); off != 0 || on != 0 {
		return nil, fmt.Errorf("grayfail: lost reads (off %.0f, on %.0f)", off, on)
	}
	tbl.Note("tenant read p99 improves %.1fx under identical fail-slow pulses (%d degraded medium ops per pass)", offP99/onP99, degradedOps)
	tbl.Note("mitigation pass: %d probe reads kept quarantined-leg latency estimates live; every read verified bit-exactly", probes)
	return tbl, nil
}

// grayMirrorPass runs one 3-way-mirror workload under roaming fail-slow
// pulses, with the mitigation stack armed or not: the tenants' read latency,
// the reads that came back wrong, and the mirror client with its counters.
func grayMirrorPass(p *sim.Proc, pl *Platform, mitigate bool) (lat *stats.Sampler, lost int, c *fabric.Client, err error) {
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
	vm, err := pl.mirroredVM(p, "gray", "/gray.img", 1, 1024, []int{0, 1, 2}, fc)
	if err != nil {
		return nil, 0, nil, err
	}
	c = fabric.ClientOf(vm)
	const slots = 64
	stripeBlocks := int64(fabricStripe / vm.Kernel.Drv.BlockSize())
	buf := make([]byte, fabricStripe)
	for s := 0; s < slots; s++ {
		fabricFill(buf, int64(s))
		if err := vm.Kernel.WriteBytes(p, int64(s)*fabricStripe, buf); err != nil {
			return nil, 0, nil, fmt.Errorf("fill %d: %w", s, err)
		}
	}
	// Warmup reads train the read-steering EWMAs, the hedge latency
	// window, and the serving leg's fail-slow baseline before any pulse.
	for i := 0; i < 48; i++ {
		if err := vm.Kernel.ReadBytes(p, int64(i%slots)*fabricStripe, buf); err != nil {
			return nil, 0, nil, fmt.Errorf("warmup read %d: %w", i, err)
		}
	}
	// Concurrent tenant readers, each with its own DMA buffer (the
	// kernel's byte-path scratch is single-caller).
	const readers, perReader = 6, 120
	samp := make([]stats.Sampler, readers)
	active := readers
	tenants := pl.fanOut()
	for rd := 0; rd < readers; rd++ {
		rbuf := guest.AllocBuffer(pl.Mem, fabricStripe)
		tenants.Go(fmt.Sprintf("gray-reader-%d", rd), func(q *sim.Proc) error {
			defer func() { active-- }()
			want := make([]byte, fabricStripe)
			for i := 0; i < perReader; i++ {
				slot := (rd*11 + i*7) % slots
				start := q.Now()
				if err := vm.Kernel.SubmitAligned(q, false, int64(slot)*stripeBlocks, rbuf); err != nil {
					return fmt.Errorf("reader %d op %d: %w", rd, i, err)
				}
				samp[rd].Add(float64(q.Now()-start) / 1000)
				fabricFill(want, int64(slot))
				if !bytes.Equal(rbuf.Data, want) {
					lost++
				}
			}
			return nil
		})
	}
	// Roaming fail-slow pulses: each pulse degrades whichever leg
	// currently wins read steering (lowest EWMA, skipping quarantined
	// legs) — the gray failure follows the traffic.
	for pulses := 0; active > 0 && pulses < 40; {
		st := c.Status()
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
	if err := tenants.Wait(p); err != nil {
		return nil, 0, nil, err
	}
	for dev := 0; dev < 3; dev++ {
		pl.Inj.ClearDegradations(dev)
	}
	lat = &stats.Sampler{}
	for rd := range samp {
		lat.Merge(&samp[rd])
	}
	// Final verification: no acknowledged write may be lost.
	lost += lostStripes(p, vm.Kernel, slots, func(s int) (int64, bool) { return int64(s), true })
	return lat, lost, c, nil
}

func grayAdmission(cfg Config) (*stats.Table, error) {
	tbl := stats.NewTable("Gray failure: deadline propagation + per-VF admission control through a fail-slow window",
		"policy", "", "ops acked", "busy shed", "ack p99 us", "admit rejects", "deadline expired", "driver busy", "lost writes")
	rows := map[bool]string{false: "unbounded queue", true: "deadline 400us + inflight 8"}
	err := eachPoint(cfg, []bool{false, true},
		func(c *Config, arm bool) {
			c.Fault = &fault.Plan{Seed: 11}
			// Busy must surface to the tenant immediately: no timeout
			// recovery, no driver-level retries.
			c.Hyp.Ring.Timeout = 0
			c.Hyp.Ring.RetryMax = 0
			if arm {
				c.Hyp.Ring.Deadline = 400 * sim.Microsecond
				c.Core.AdmitInflight = 8
			}
		},
		func(p *sim.Proc, pl *Platform, arm bool) error {
			vals, err := grayAdmissionPass(p, pl)
			if err == nil {
				tbl.SetRow(rows[arm], vals...)
			}
			return err
		})
	if err != nil {
		return nil, err
	}
	cell := func(arm bool, col string) float64 { return tbl.MustGet(rows[arm], col) }
	if cell(false, "lost writes") != 0 || cell(true, "lost writes") != 0 {
		return nil, fmt.Errorf("grayfail admission: lost acked writes (open %.0f, armed %.0f)", cell(false, "lost writes"), cell(true, "lost writes"))
	}
	if cell(true, "busy shed") == 0 || cell(true, "admit rejects") == 0 {
		return nil, fmt.Errorf("grayfail admission: expected busy shedding under the armed policy (shed %.0f, admit rejects %.0f)",
			cell(true, "busy shed"), cell(true, "admit rejects"))
	}
	tbl.Note("acked-write p99 %.0f us unbounded vs %.0f us with the deadline armed; busy is retryable — nothing the device acknowledged is lost",
		cell(false, "ack p99 us"), cell(true, "ack p99 us"))
	tbl.Note("the driver programs QRegDeadline once; the device stamps each request at fetch and fast-fails infeasible or expired work with StatusBusy at admission, mux, walker, and DTU stages")
	return tbl, nil
}

// grayAdmissionPass runs concurrent writers through a fail-slow window on a
// single device and returns the admission table's row for that platform.
func grayAdmissionPass(p *sim.Proc, pl *Platform) ([]float64, error) {
	vm, _, err := pl.directVM(p, "adm", "/adm.img", 1, 1024, false)
	if err != nil {
		return nil, err
	}
	stripeBlocks := int64(fabricStripe / vm.Kernel.Drv.BlockSize())
	// Each writer owns a disjoint slot range and writes each slot exactly
	// once: a shed (busy) op may leave undefined bytes in its own slot,
	// but can never touch a slot whose write was acknowledged.
	const writers, perWriter = 10, 24
	samp := make([]stats.Sampler, writers)
	acked := make([]bool, writers*perWriter)
	shed := 0
	tenants := pl.fanOut()
	for wr := 0; wr < writers; wr++ {
		wbuf := guest.AllocBuffer(pl.Mem, fabricStripe)
		tenants.Go(fmt.Sprintf("gray-writer-%d", wr), func(q *sim.Proc) error {
			for i := 0; i < perWriter; i++ {
				slot := wr*perWriter + i
				fabricFill(wbuf.Data, int64(slot))
				start := q.Now()
				err := vm.Kernel.SubmitAligned(q, true, int64(slot)*stripeBlocks, wbuf)
				switch {
				case err == nil:
					samp[wr].Add(float64(q.Now()-start) / 1000)
					acked[slot] = true
				case errors.Is(err, ring.ErrBusy):
					shed++
				default:
					return fmt.Errorf("writer %d op %d: %w", wr, i, err)
				}
			}
			return nil
		})
	}
	// Let a healthy phase establish the chunk-service estimator, then
	// open a chronic fail-slow window in the middle of the workload.
	p.Sleep(400 * sim.Microsecond)
	pl.Inj.Degrade(fault.Degradation{
		Device: 0, Start: p.Now(), Duration: 3 * sim.Millisecond, Extra: 1 * sim.Millisecond,
	})
	if err := tenants.Wait(p); err != nil {
		return nil, err
	}
	pl.Inj.ClearDegradations(0)
	// Verify every acknowledged write after the fault has cleared.
	var lat stats.Sampler
	for wr := range samp {
		lat.Merge(&samp[wr])
	}
	lost := lostStripes(p, vm.Kernel, len(acked), func(s int) (int64, bool) { return int64(s), acked[s] })
	ctl := pl.Hyp.Device(0).Ctl
	return []float64{float64(lat.N()), float64(shed), lat.Percentile(99), float64(ctl.Counters().AdmitRejects),
		float64(ctl.DeadlineExpirations), float64(pl.Hyp.RecoveryStats().BusyRejects), float64(lost)}, nil
}
