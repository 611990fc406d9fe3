package bench

import (
	"fmt"

	"nesc/internal/hypervisor"
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
	for _, qd := range []int{1, 16} {
		qd := qd
		c := cfg
		reg := metrics.New()
		c.Tel.Metrics = reg
		pl := NewPlatform(c)
		err := pl.Run(func(p *sim.Proc) error {
			tgt, err := pl.rawTarget(p, BackendNeSC, rawImageBlocks)
			if err != nil {
				return err
			}
			_, err = (workload.ParallelDD{BlockBytes: 4096, TotalBytes: 4 << 20, QD: qd, Write: true}).Run(p, tgt)
			return err
		})
		if err != nil {
			return nil, err
		}
		meanUs := func(families ...string) float64 {
			var sum float64
			var n int64
			for _, fam := range families {
				for fn := 0; fn <= 1; fn++ {
					for _, op := range []string{"read", "write"} {
						h := reg.Histogram(fam, "", metrics.VFQOp(fn, 0, op))
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
	}
	tbl.Note("at QD 1 the pipeline is latency-bound (transfer dominates); at QD 16 queueing appears ahead of the saturated medium")
	return []*stats.Table{tbl}, nil
}

// QDepth sweeps request-level parallelism: NeSC's hardware pipeline absorbs
// it until the medium saturates, while virtio saturates at its software
// per-request costs.
func QDepth(cfg Config) ([]*stats.Table, error) {
	tbl := stats.NewTable("Queue-depth scaling (4KB writes)", "QD", "MB/s", BackendNeSC, BackendVirt)
	for _, backend := range []string{BackendNeSC, BackendVirt} {
		backend := backend
		pl := NewPlatform(cfg)
		err := pl.Run(func(p *sim.Proc) error {
			var tgt workload.ByteTarget
			var err error
			if backend == BackendNeSC {
				tgt, err = pl.rawTarget(p, BackendNeSC, rawImageBlocks)
			} else {
				var vm *hypervisor.VM
				vm, err = pl.Hyp.NewVM(p, "qd", hypervisor.VMConfig{
					Backend: hypervisor.BackendVirtio, RawDevice: true,
				})
				if err == nil {
					tgt = NewVMRawTarget(vm.Kernel)
				}
			}
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
			return nil, fmt.Errorf("qdepth %s: %w", backend, err)
		}
	}
	tbl.Note("NeSC rides queue depth to the medium's limit; virtio saturates at the backend's per-request software cost")
	return []*stats.Table{tbl}, nil
}
