package bench

import (
	"fmt"
	"slices"

	"nesc/internal/guest"
	"nesc/internal/ring"
	"nesc/internal/sim"
	"nesc/internal/stats"
)

// Scale is the massive-tenancy experiment: it demonstrates that the lazy
// sharded VF table, the device-wide queue-pair pool, and the active-VF work
// lists make the platform O(active tenants), not O(configured VFs).
//
// Two sweeps:
//
//   - Configured sweep: NumVFs 16 → 1024 with a fixed set of 8 active raw
//     VFs. Per-op latency and memory must stay flat — a thousand configured
//     but idle VFs cost nothing, because no state exists until a VF is
//     touched and idle VFs never enter the schedulers' active lists.
//   - Active sweep at NumVFs=1024: 16 → 1024 tenants actually submitting.
//     Memory grows with the active count (sub-linear in the configured
//     count), and Jain's fairness index over per-VF blocks served stays at
//     1.0 — the DRR multiplexer does not degrade at three orders of
//     magnitude more tenants than the prototype ran.
//
// Every active VF runs shadow doorbells: a burst of concurrent submitters
// publishes producer indexes in the shared shadow block, and only the first
// submission of a batch pays the doorbell MMIO (the device picks the rest up
// via shadowFollow). The skipped-doorbell and shadow-batch counters in the
// notes prove the path exercised.
const (
	scaleRingEntries = 8 // per-VF ring slots (bounds the submit burst)
	scaleBurst       = 4 // concurrent submitters per VF
	scaleOpsPerProc  = 4 // sequential 4KB writes per submitter
	scaleFixedActive = 8 // active VFs in the configured sweep
)

// scaleCols are the readings scaleRun returns, in order.
var scaleCols = []string{"p50 us/op", "device KB", "host KB", "Jain", "VFs built", "db skipped", "batches"}

// Scale runs both sweeps.
func Scale(cfg Config) ([]*stats.Table, error) {
	type point struct{ numVFs, active int }
	sweep := func(tbl *stats.Table, points []point, row func(point) int) error {
		return eachPoint(cfg, points, func(c *Config, pt point) { c.Core.NumVFs = pt.numVFs },
			func(p *sim.Proc, pl *Platform, pt point) error {
				vals, err := scaleRun(p, pl, pt.active)
				if err == nil {
					tbl.SetRow(fmt.Sprintf("%d", row(pt)), vals...)
				}
				return err
			})
	}
	conf := stats.NewTable(
		fmt.Sprintf("Massive tenancy: configured-VF sweep (%d active raw VFs, shadow doorbells, 4KB writes)", scaleFixedActive),
		"NumVFs", "", scaleCols...)
	if err := sweep(conf, []point{{16, scaleFixedActive}, {64, scaleFixedActive}, {256, scaleFixedActive}, {1024, scaleFixedActive}},
		func(pt point) int { return pt.numVFs }); err != nil {
		return nil, err
	}
	conf.Note("per-op p50 and both memory columns must be flat: configured-but-idle VFs are never materialized")
	conf.Note("device KB is the controller's modeled state footprint; host KB is live host-memory allocations")

	act := stats.NewTable(
		"Massive tenancy: active-VF sweep at NumVFs=1024 (shadow doorbells, 4KB writes)",
		"active", "", scaleCols...)
	if err := sweep(act, []point{{1024, 16}, {1024, 256}, {1024, 1024}}, func(pt point) int { return pt.active }); err != nil {
		return nil, err
	}
	act.Note("memory scales with active tenants, not the 1024 configured; Jain fairness holds at full load")
	act.Note("db skipped counts doorbell MMIOs elided by shadow batching; batches counts device fetches initiated from the shadow block")
	return []*stats.Table{conf, act}, nil
}

// scaleRun provisions `active` raw VFs on pl and drives a fixed per-VF write
// burst through shadow-armed ring drivers (no VM boot: direct attachment, the
// accelerator configuration). It returns the scaleCols readings.
func scaleRun(p *sim.Proc, pl *Platform, active int) ([]float64, error) {
	d := pl.Hyp.Device(0)
	var lats []sim.Time
	burst := pl.fanOut()
	for i := 0; i < active; i++ {
		idx, err := d.CreateRawVF(p)
		if err != nil {
			return nil, err
		}
		mq, err := guest.NewMultiQueue(p, pl.Eng, pl.Mem, pl.Fab, d.VFPageBus(idx),
			guest.RingConfig{Entries: scaleRingEntries, SubmitTime: pl.Cfg.Hyp.Ring.SubmitTime})
		if err != nil {
			return nil, err
		}
		if err := mq.ArmShadow(p); err != nil {
			return nil, err
		}
		d.RouteVFInterrupts(idx, mq)
		// Disjoint LBA stripes keep tenants from touching the same
		// blocks; the identity mapping makes any stripe valid.
		base := uint64(i) * 64
		for b := 0; b < scaleBurst; b++ {
			burst.Go(fmt.Sprintf("scale-vf%d-%d", idx, b), func(q *sim.Proc) error {
				buf := pl.Mem.MustAlloc(4096, 64)
				for k := 0; k < scaleOpsPerProc; k++ {
					lba := base + uint64(b*scaleOpsPerProc+k)*4
					start := q.Now()
					st, err := mq.Submit(q, ring.OpWrite, lba, 4, buf)
					if err == nil {
						err = ring.StatusError(st)
					}
					if err != nil {
						return err
					}
					lats = append(lats, q.Now()-start)
				}
				return nil
			})
		}
	}
	if err := burst.Wait(p); err != nil {
		return nil, err
	}
	slices.Sort(lats)
	return []float64{
		float64(lats[len(lats)/2]) / float64(sim.Microsecond),
		float64(d.Ctl.StateFootprint()) / 1024,
		float64(pl.Mem.AllocBytes) / 1024,
		d.Ctl.JainFairness(),
		float64(d.Ctl.MaterializedVFs()),
		float64(pl.Hyp.RecoveryStats().DoorbellsSkipped),
		float64(d.Ctl.ShadowBatches),
	}, nil
}
