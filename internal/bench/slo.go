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
	attr := stats.NewTable("Observability: p99 explainer — where did the victim tenant's tail latency go",
		"phase", "", "reads", "read p50 us", "read p99 us", "median us", "tail us", "dominant share %")
	burn := stats.NewTable("Observability: per-tenant SLO engine through the fail-slow pulse (victim VF)",
		"phase", "", "good", "bad", "budget used %", "alerts", "first alert us", "exhausted us", "events")
	type pass struct {
		row              string
		aggressor, pulse bool
	}
	// What the checks and notes below need of each pass beyond its table rows.
	type verdict struct {
		ex         slo.Explanation
		st         slo.Status
		burnEvents int64
		lost       int
	}
	got := map[string]verdict{}
	err := eachPoint(cfg, []pass{{"quiet baseline", false, false}, {"noisy aggressor", true, false}, {"fail-slow pulse", false, true}},
		func(c *Config, _ pass) {
			c.Fault = &fault.Plan{Seed: 23}
			c.Tel.Board = slo.NewScoreboard(512)
			// Objective tuning: healthy paced reads finish in tens of µs, a
			// fail-slow read costs ~300µs extra — so a 250µs latency target
			// cleanly separates them. The windows are sized in degraded-read
			// units: a chronically slow medium yields ~3 completions per ms,
			// so the 1.2ms short window holds MinSamples during an incident
			// while the 4ms long window refuses to fire on a single straggler.
			c.Tel.SLO = slo.NewEngine(slo.Objective{
				Latency:       250 * sim.Microsecond,
				Goal:          0.90,
				ShortWindow:   1200 * sim.Microsecond,
				LongWindow:    4 * sim.Millisecond,
				BurnThreshold: 3,
				MinSamples:    4,
			})
			c.Tel.Attrib = slo.NewAttributor(4096)
		},
		func(p *sim.Proc, pl *Platform, ps pass) error {
			lat, lost, victimFn, err := sloVictimRun(p, pl, ps.aggressor, ps.pulse)
			if err != nil {
				return err
			}
			tel := pl.Cfg.Tel
			v := verdict{burnEvents: tel.Board.Count(slo.EventSLOBurn), lost: lost}
			var ok bool
			if v.ex, ok = tel.Attrib.Explain(victimFn, "read"); !ok {
				return fmt.Errorf("slo: no explanation for victim vf=%d op=read", victimFn)
			}
			for _, st := range tel.SLO.Status() {
				if st.VF == victimFn {
					v.st = st
				}
			}
			if v.st.Good+v.st.Bad == 0 {
				return fmt.Errorf("slo: engine tracked no completions for victim vf=%d", victimFn)
			}
			attr.SetRow(ps.row, float64(lat.N()), lat.Percentile(50), lat.Percentile(99),
				float64(v.ex.MedianNs)/1000, float64(v.ex.TailNs)/1000, 100*v.ex.DominantShare)
			burn.SetRow(ps.row, float64(v.st.Good), float64(v.st.Bad), 100*v.st.BudgetConsumed, float64(v.st.Alerts),
				float64(v.st.FirstAlertAt)/1000, float64(v.st.ExhaustedAt)/1000, float64(tel.Board.Total()))
			got[ps.row] = v
			return nil
		})
	if err != nil {
		return nil, err
	}
	quiet, noisy, pulse := got["quiet baseline"], got["noisy aggressor"], got["fail-slow pulse"]

	// The explainer must pinpoint the injected cause of each tail, not just
	// report numbers: contention shows up as queue residence, a degraded
	// medium as medium service.
	if d := noisy.ex.Dominant; d != slo.SegmentName(slo.SegQueue) && d != slo.SegmentName(slo.SegDTUWait) {
		return nil, fmt.Errorf("slo: aggressor-phase tail blamed on %q; want queue_wait or dtu_wait", d)
	}
	if d := pulse.ex.Dominant; d != slo.SegmentName(slo.SegMedium) {
		return nil, fmt.Errorf("slo: pulse-phase tail blamed on %q; want medium", d)
	}
	attr.Note("explainer verdicts: quiet=%q, aggressor=%q (+%dus vs median), pulse=%q (+%dus vs median)",
		quiet.ex.Dominant, noisy.ex.Dominant, noisy.ex.DominantDeltaNs/1000, pulse.ex.Dominant, pulse.ex.DominantDeltaNs/1000)
	attr.Note("tail request ids for flight cross-links: aggressor=%v pulse=%v", noisy.ex.TailReqIDs, pulse.ex.TailReqIDs)

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
	burn.Note("pulse pass: first burn alert at %dus, budget %s — the alert led the damage", int64(pulse.st.FirstAlertAt)/1000, exh)
	burn.Note("scoreboard (pulse pass): %.0f events total, %d slo-burn; every event carries the request id the flight recorder indexes by",
		burn.MustGet("fail-slow pulse", "events"), pulse.burnEvents)
	return []*stats.Table{attr, burn}, nil
}

// sloVictimRun runs one paced victim reader on pl's device, optionally with
// an aggressor tenant or a mid-run fail-slow pulse: the victim's read
// latency, its corrupted reads, and its function index (0 = PF, VF idx + 1).
func sloVictimRun(p *sim.Proc, pl *Platform, aggressor, pulse bool) (lat *stats.Sampler, lost, victimFn int, err error) {
	const fileBlocks = 1024
	victim, _, err := pl.directVM(p, "victim", "/victim.img", 1, fileBlocks, false)
	if err != nil {
		return nil, 0, 0, err
	}
	var agg *hypervisor.VM
	if aggressor {
		if agg, _, err = pl.directVM(p, "agg", "/agg.img", 2, fileBlocks, false); err != nil {
			return nil, 0, 0, err
		}
	}
	const slots = 64
	stripeBlocks := int64(fabricStripe / victim.Kernel.Drv.BlockSize())
	buf := make([]byte, fabricStripe)
	for s := 0; s < slots; s++ {
		fabricFill(buf, int64(s))
		if err := victim.Kernel.WriteBytes(p, int64(s)*fabricStripe, buf); err != nil {
			return nil, 0, 0, fmt.Errorf("fill %d: %w", s, err)
		}
	}

	// Concurrent deep writer streams on the aggressor's VF keep the device's
	// shared queues loaded for the whole victim run: each submission moves 4
	// stripes, so the medium never drains. A worker stops at its first error.
	stop := false
	aggWorkers := pl.fanOut()
	for w := 0; aggressor && w < 8; w++ {
		abuf := guest.AllocBuffer(pl.Mem, 4*fabricStripe)
		aggWorkers.Go(fmt.Sprintf("slo-agg-%d", w), func(q *sim.Proc) error {
			for i := 0; !stop; i++ {
				slot := (w*7 + i) % (slots - 3) // 4-stripe burst stays in the file
				fabricFill(abuf.Data, int64(slot))
				if agg.Kernel.SubmitAligned(q, true, int64(slot)*stripeBlocks, abuf) != nil {
					break
				}
			}
			return nil
		})
	}

	// The victim: paced single-stripe reads, verified bit-exactly. The
	// pacing keeps the quiet baseline's queues empty, so any tail the
	// explainer finds in the other passes is the injected cause.
	const reads = 360
	lat = &stats.Sampler{}
	rbuf := guest.AllocBuffer(pl.Mem, fabricStripe)
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
			return nil, 0, 0, fmt.Errorf("victim read %d: %w", i, err)
		}
		lat.Add(float64(p.Now()-start) / 1000)
		fabricFill(buf, int64(slot))
		if !bytes.Equal(rbuf.Data, buf) {
			lost++
		}
		p.Sleep(10 * sim.Microsecond)
	}
	stop = true
	_ = aggWorkers.Wait(p) // the workers report no errors
	pl.Inj.ClearDegradations(0)
	return lat, lost, victim.Legs[0].VFIdx + 1, nil
}
