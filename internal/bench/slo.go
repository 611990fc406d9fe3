package bench

import (
	"bytes"
	"fmt"

	"nesc/internal/fault"
	"nesc/internal/guest"
	"nesc/internal/hypervisor"
	"nesc/internal/sim"
	"nesc/internal/slo"
	"nesc/internal/stats"
)

// SLOExp exercises the observability layer end to end: causal request
// attribution, the per-tenant SLO engine, and the anomaly scoreboard.
//
// Three passes run the same paced victim reader on one device, each armed
// with the full layer (attributor + SLO engine + scoreboard):
//
//   - quiet baseline: the victim alone. The budget table and p99 explainer
//     establish what an uncontended profile looks like.
//   - noisy aggressor: a second tenant hammers writes at high depth on the
//     same device. The victim's tail must be blamed on contention — the
//     explainer's dominant segment has to be queue residence (vLBA or pLBA
//     wait), not the medium.
//   - fail-slow pulse: the victim alone again, but a roaming fail-slow
//     pulse degrades the medium through the middle of the run. The
//     explainer must pinpoint the injected component (medium service), and
//     the SLO engine's multi-window burn-rate alert must fire BEFORE the
//     tenant's error budget exhausts — alerts that only arrive after the
//     budget is gone are postmortems, not alerts.
//
// Everything is assertion-checked, and the whole layer reads the virtual
// clock without ever advancing it: the same workload with the layer off is
// byte-identical (TestInstrumentationNeutrality covers that).
func SLOExp(cfg Config) ([]*stats.Table, error) {
	quiet, err := sloPassRun(cfg, false, false)
	if err != nil {
		return nil, fmt.Errorf("slo quiet: %w", err)
	}
	noisy, err := sloPassRun(cfg, true, false)
	if err != nil {
		return nil, fmt.Errorf("slo aggressor: %w", err)
	}
	pulse, err := sloPassRun(cfg, false, true)
	if err != nil {
		return nil, fmt.Errorf("slo pulse: %w", err)
	}

	attr := stats.NewTable("Observability: p99 explainer — where did the victim tenant's tail latency go",
		"phase", "", "reads", "read p50 us", "read p99 us", "median us", "tail us", "dominant share %")
	set := func(row string, r *sloPassResult) {
		attr.Set(row, "reads", float64(r.lat.N()))
		attr.Set(row, "read p50 us", r.lat.Percentile(50))
		attr.Set(row, "read p99 us", r.lat.Percentile(99))
		attr.Set(row, "median us", float64(r.ex.MedianNs)/1000)
		attr.Set(row, "tail us", float64(r.ex.TailNs)/1000)
		attr.Set(row, "dominant share %", 100*r.ex.DominantShare)
	}
	set("quiet baseline", quiet)
	set("noisy aggressor", noisy)
	set("fail-slow pulse", pulse)

	// The explainer must pinpoint the injected cause of each tail, not just
	// report numbers: contention shows up as queue residence, a degraded
	// medium as medium service.
	if d := noisy.ex.Dominant; d != slo.SegmentName(slo.SegQueue) && d != slo.SegmentName(slo.SegDTUWait) {
		return nil, fmt.Errorf("slo: aggressor-phase tail blamed on %q; want queue_wait or dtu_wait", d)
	}
	if d := pulse.ex.Dominant; d != slo.SegmentName(slo.SegMedium) {
		return nil, fmt.Errorf("slo: pulse-phase tail blamed on %q; want medium", d)
	}
	attr.Note(fmt.Sprintf("explainer verdicts: quiet=%q, aggressor=%q (+%dus vs median), pulse=%q (+%dus vs median)",
		quiet.ex.Dominant, noisy.ex.Dominant, noisy.ex.DominantDeltaNs/1000, pulse.ex.Dominant, pulse.ex.DominantDeltaNs/1000))
	attr.Note(fmt.Sprintf("tail request ids for flight cross-links: aggressor=%v pulse=%v", noisy.ex.TailReqIDs, pulse.ex.TailReqIDs))

	burn := stats.NewTable("Observability: per-tenant SLO engine through the fail-slow pulse (victim VF)",
		"phase", "", "good", "bad", "budget used %", "alerts", "first alert us", "exhausted us", "events")
	setB := func(row string, r *sloPassResult) {
		burn.Set(row, "good", float64(r.st.Good))
		burn.Set(row, "bad", float64(r.st.Bad))
		burn.Set(row, "budget used %", 100*r.st.BudgetConsumed)
		burn.Set(row, "alerts", float64(r.st.Alerts))
		burn.Set(row, "first alert us", float64(r.st.FirstAlertAt)/1000)
		burn.Set(row, "exhausted us", float64(r.st.ExhaustedAt)/1000)
		burn.Set(row, "events", float64(r.events))
	}
	setB("quiet baseline", quiet)
	setB("noisy aggressor", noisy)
	setB("fail-slow pulse", pulse)

	if quiet.st.Alerts != 0 {
		return nil, fmt.Errorf("slo: quiet baseline fired %d burn alerts; want 0", quiet.st.Alerts)
	}
	if pulse.st.Alerts == 0 {
		return nil, fmt.Errorf("slo: fail-slow pulse fired no burn-rate alert")
	}
	if pulse.st.ExhaustedAt > 0 && pulse.st.FirstAlertAt >= pulse.st.ExhaustedAt {
		return nil, fmt.Errorf("slo: alert at %v did not precede budget exhaustion at %v",
			pulse.st.FirstAlertAt, pulse.st.ExhaustedAt)
	}
	if pulse.burnEvents == 0 {
		return nil, fmt.Errorf("slo: no slo-burn events on the scoreboard")
	}
	if pulse.lost != 0 || noisy.lost != 0 || quiet.lost != 0 {
		return nil, fmt.Errorf("slo: corrupted reads (quiet %d, noisy %d, pulse %d)", quiet.lost, noisy.lost, pulse.lost)
	}
	exh := "never exhausted"
	if pulse.st.ExhaustedAt > 0 {
		exh = fmt.Sprintf("exhausted at %dus", int64(pulse.st.ExhaustedAt)/1000)
	}
	burn.Note(fmt.Sprintf("pulse pass: first burn alert at %dus, budget %s — the alert led the damage",
		int64(pulse.st.FirstAlertAt)/1000, exh))
	burn.Note(fmt.Sprintf("scoreboard (pulse pass): %d events total, %d slo-burn; every event carries the request id the flight recorder indexes by",
		pulse.events, pulse.burnEvents))
	return []*stats.Table{attr, burn}, nil
}

// sloPassResult is one pass's harvest.
type sloPassResult struct {
	lat        *stats.Sampler
	ex         slo.Explanation
	st         slo.Status
	events     int64
	burnEvents int64
	lost       int
}

// sloPassRun runs one paced victim reader on a single device, optionally
// with an aggressor tenant or a mid-run fail-slow pulse, and harvests the
// victim's attribution explanation, SLO status, and scoreboard counts.
func sloPassRun(cfg Config, aggressor, pulse bool) (*sloPassResult, error) {
	cfg.Fault = &fault.Plan{Seed: 23}
	reg := cfg.Tel.Metrics
	board := slo.NewScoreboard(512, reg)
	// Objective tuning: healthy paced reads finish in tens of µs, a
	// fail-slow read costs ~300µs extra — so a 250µs latency target cleanly
	// separates them. The windows are sized in degraded-read units: a
	// chronically slow medium yields ~3 completions per ms, so the 1.2ms
	// short window holds MinSamples during an incident while the 4ms long
	// window refuses to fire on a single straggler.
	engine := slo.NewEngine(slo.Objective{
		Latency:       250 * sim.Microsecond,
		Goal:          0.90,
		ShortWindow:   1200 * sim.Microsecond,
		LongWindow:    4 * sim.Millisecond,
		BurnThreshold: 3,
		MinSamples:    4,
	}, board, reg)
	attrib := slo.NewAttributorOn(reg, 4096)
	cfg.Tel.Attrib, cfg.Tel.SLO, cfg.Tel.Board = attrib, engine, board
	pl := NewPlatform(cfg)
	d := pl.Hyp.Device(0)
	res := &sloPassResult{lat: &stats.Sampler{}}
	var victimFn int
	err := pl.Run(func(p *sim.Proc) error {
		const fileBlocks = 1024
		if err := d.MkImage(p, "/victim.img", 1, fileBlocks, false); err != nil {
			return err
		}
		victim, err := pl.Hyp.NewVM(p, "victim", hypervisor.VMConfig{
			Backend: hypervisor.BackendDirect, DiskPath: "/victim.img", UID: 1,
		})
		if err != nil {
			return err
		}
		victimFn = victim.Legs[0].VFIdx + 1 // function index: 0 = PF, VF idx + 1
		var agg *hypervisor.VM
		if aggressor {
			if err := d.MkImage(p, "/agg.img", 2, fileBlocks, false); err != nil {
				return err
			}
			if agg, err = pl.Hyp.NewVM(p, "agg", hypervisor.VMConfig{
				Backend: hypervisor.BackendDirect, DiskPath: "/agg.img", UID: 2,
			}); err != nil {
				return err
			}
		}
		const slots = 64
		bs := victim.Kernel.Drv.BlockSize()
		stripeBlocks := int64(fabricStripe / bs)
		buf := make([]byte, fabricStripe)
		for s := 0; s < slots; s++ {
			fabricFill(buf, int64(s))
			if err := victim.Kernel.WriteBytes(p, int64(s)*fabricStripe, buf); err != nil {
				return fmt.Errorf("fill %d: %w", s, err)
			}
		}

		stop := false
		aggDone := sim.NewSignal(pl.Eng)
		if aggressor {
			// Concurrent deep writer streams on the aggressor's VF keep the
			// device's shared queues loaded for the whole victim run: each
			// submission moves 4 stripes, so the medium never drains.
			const aggWorkers = 8
			remaining := aggWorkers
			for w := 0; w < aggWorkers; w++ {
				w := w
				abuf := guest.AllocBuffer(pl.Mem, 4*fabricStripe)
				pl.Eng.Go(fmt.Sprintf("slo-agg-%d", w), func(q *sim.Proc) {
					defer func() {
						remaining--
						if remaining == 0 {
							aggDone.Fire()
						}
					}()
					for i := 0; !stop; i++ {
						slot := (w*7 + i) % (slots - 3) // 4-stripe burst stays in the file
						fabricFill(abuf.Data, int64(slot))
						if err := agg.Kernel.SubmitAligned(q, true, int64(slot)*stripeBlocks, abuf); err != nil {
							return
						}
					}
				})
			}
		}

		// The victim: paced single-stripe reads, verified bit-exactly. The
		// pacing keeps the quiet baseline's queues empty, so any tail the
		// explainer finds in the other passes is the injected cause.
		const reads = 360
		rbuf := guest.AllocBuffer(pl.Mem, fabricStripe)
		want := make([]byte, fabricStripe)
		for i := 0; i < reads; i++ {
			if pulse && i == 200 {
				// A fail-slow window opens mid-run: the medium still answers,
				// just chronically late — exactly what the explainer must
				// pin on the medium segment and the burn alert must catch
				// before the 200 healthy reads' worth of banked budget runs
				// out.
				pl.Inj.Degrade(fault.Degradation{
					Device: 0, Start: p.Now(), Duration: 8 * sim.Millisecond, Extra: 300 * sim.Microsecond,
				})
			}
			slot := (i * 7) % slots
			start := p.Now()
			if err := victim.Kernel.SubmitAligned(p, false, int64(slot)*stripeBlocks, rbuf); err != nil {
				return fmt.Errorf("victim read %d: %w", i, err)
			}
			res.lat.Add(float64(p.Now()-start) / 1000)
			fabricFill(want, int64(slot))
			if !bytes.Equal(rbuf.Data, want) {
				res.lost++
			}
			p.Sleep(10 * sim.Microsecond)
		}
		stop = true
		if aggressor {
			aggDone.Await(p)
		}
		pl.Inj.ClearDegradations(0)
		return nil
	})
	if err != nil {
		return nil, err
	}
	ex, ok := attrib.Explain(victimFn, "read")
	if !ok {
		return nil, fmt.Errorf("slo: no explanation for victim vf=%d op=read", victimFn)
	}
	res.ex = ex
	for _, st := range engine.Status() {
		if st.VF == victimFn {
			res.st = st
		}
	}
	if res.st.Good+res.st.Bad == 0 {
		return nil, fmt.Errorf("slo: engine tracked no completions for victim vf=%d", victimFn)
	}
	res.events = board.Total()
	res.burnEvents = board.Count(slo.EventSLOBurn)
	return res, nil
}
