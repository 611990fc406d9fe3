package bench

import (
	"fmt"

	"nesc/internal/metrics"
	"nesc/internal/sim"
	"nesc/internal/stats"
	"nesc/internal/workload"
)

// Additional analysis experiments beyond the paper's figures: a per-stage
// latency breakdown inside the controller, and a queue-depth scaling sweep.

// Breakdown reports where a 4 KB request's chunks spend their time inside
// the NeSC pipeline (paper Fig. 7's stages), for an idle and a loaded
// device. The stage means come out of a private registry's per-stage
// histograms (exact sum over count), summed over the two functions that move
// data here: the PF (host filesystem traffic, which only has a transfer
// stage) and the workload's VF.
func Breakdown(cfg Config) ([]*stats.Table, error) {
	tbl := stats.NewTable("Latency breakdown inside the NeSC pipeline (4KB writes, per 1KB chunk)",
		"stage", "us", "QD 1", "QD 16")
	err := eachPoint(cfg, []int{1, 16}, func(c *Config, _ int) { c.Tel.Metrics = metrics.New() },
		func(p *sim.Proc, pl *Platform, qd int) error {
			tgt, err := pl.RawTarget(p, BackendNeSC, rawImageBlocks)
			if err != nil {
				return err
			}
			if _, err := (workload.ParallelDD{BlockBytes: 4096, TotalBytes: 4 << 20, QD: qd, Write: true}).Run(p, tgt); err != nil {
				return err
			}
			meanUs := func(families ...string) float64 {
				var sum float64
				var n int64
				for _, fam := range families {
					for fn := 0; fn <= 1; fn++ {
						for _, op := range []string{"read", "write"} {
							h := pl.Cfg.Tel.Metrics.Histogram(fam, "", metrics.VFQOp(fn, 0, op))
							sum, n = sum+h.Sum(), n+h.Count()
						}
					}
				}
				return sum / float64(n) / 1000
			}
			col := fmt.Sprintf("QD %d", qd)
			tbl.Set("vLBA queue wait", col, meanUs("nesc_pipeline_queue_wait_ns"))
			tbl.Set("translation (BTLB/walk)", col, meanUs("nesc_pipeline_translate_hit_ns", "nesc_pipeline_translate_walk_ns",
				"nesc_pipeline_translate_miss_ns", "nesc_pipeline_translate_cow_ns"))
			tbl.Set("pLBA queue wait", col, meanUs("nesc_pipeline_dtu_wait_ns"))
			tbl.Set("DMA transfer (medium+PCIe)", col, meanUs("nesc_pipeline_transfer_ns"))
			return nil
		})
	if err != nil {
		return nil, err
	}
	tbl.Note("at QD 1 the pipeline is latency-bound (transfer dominates); at QD 16 queueing appears ahead of the saturated medium")
	return []*stats.Table{tbl}, nil
}

// QDepth sweeps request-level parallelism: NeSC's hardware pipeline absorbs
// it until the medium saturates, while virtio saturates at its software
// per-request costs.
func QDepth(cfg Config) ([]*stats.Table, error) {
	tbl := stats.NewTable("Queue-depth scaling (4KB writes)", "QD", "MB/s", BackendNeSC, BackendVirt)
	err := eachPoint(cfg, []string{BackendNeSC, BackendVirt}, nil, func(p *sim.Proc, pl *Platform, backend string) error {
		tgt, err := pl.RawTarget(p, backend, rawImageBlocks)
		if err != nil {
			return err
		}
		for _, qd := range []int{1, 2, 4, 8, 16} {
			res, err := (workload.ParallelDD{BlockBytes: 4096, TotalBytes: 4 << 20, QD: qd, Write: true}).Run(p, tgt)
			if err != nil {
				return err
			}
			tbl.Set(fmt.Sprintf("%d", qd), backend, res.BandwidthMBps())
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	tbl.Note("NeSC rides queue depth to the medium's limit; virtio saturates at the backend's per-request software cost")
	return []*stats.Table{tbl}, nil
}
