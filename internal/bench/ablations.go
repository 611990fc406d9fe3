package bench

import (
	"fmt"
	"slices"

	"nesc/internal/hypervisor"
	"nesc/internal/sim"
	"nesc/internal/stats"
	"nesc/internal/workload"
)

// Ablations isolate the design choices the paper calls out in §V: the BTLB,
// the overlapped block walks, the prototype's trampoline buffers, extent-
// tree pruning, round-robin multiplexing, and the PF's out-of-band channel.

// fragmentedImage creates an image whose extent map is deliberately
// scattered (every other block), maximizing tree depth and BTLB pressure.
func fragmentedImage(p *sim.Proc, pl *Platform, path string, blocks int) error {
	f, err := pl.Hyp.Device(0).HostFS.Create(p, path, 1, 0o600)
	if err != nil {
		return err
	}
	blk := make([]byte, pl.Cfg.Core.BlockSize)
	for i := 0; i < blocks; i++ {
		if _, err := f.WriteAt(p, blk, int64(i)*2*int64(len(blk))); err != nil {
			return err
		}
	}
	// Trim the trailing hole so the device size matches the mapped span.
	return f.Truncate(p, uint64(blocks)*2*uint64(len(blk)))
}

// AblationBTLB sweeps the BTLB size under the access pattern the paper
// sized it for: several VFs streaming concurrently, so the cache must hold
// "at least the last mapping for each of the last 8 VFs it serviced"
// (§V-B). Below 8 entries the interleaved VFs evict each other's extents;
// at 8 the hit rate saturates.
func AblationBTLB(cfg Config) ([]*stats.Table, error) {
	tbl := stats.NewTable("Ablation: BTLB size (8 VFs streaming concurrently, 4KB reads)",
		"BTLB entries", "", "hit rate", "walk node reads/op", "aggregate MB/s")
	const vms = 8
	err := eachPoint(cfg, []int{0, 1, 2, 4, 8, 16, 64}, func(c *Config, entries int) { c.Core.BTLBEntries = entries },
		func(p *sim.Proc, pl *Platform, entries int) error {
			// Create every VM before any load starts, so the bandwidths
			// summed are measured over one interval.
			tgts := make([]workload.ByteTarget, vms)
			for i := range tgts {
				path := fmt.Sprintf("/b%d.img", i)
				var err error
				if _, tgts[i], err = pl.directVM(p, path, path, uint32(i+1), 4096, false); err != nil {
					return err
				}
			}
			var aggregate float64
			load := pl.fanOut()
			for _, tgt := range tgts {
				load.Go("btlb-load", func(q *sim.Proc) error {
					res, err := (workload.DD{BlockBytes: 4096, TotalBytes: 1 << 20}).Run(q, tgt)
					aggregate += res.BandwidthMBps()
					return err
				})
			}
			if err := load.Wait(p); err != nil {
				return err
			}
			ctl := pl.Hyp.Device(0).Ctl
			tbl.SetRow(fmt.Sprintf("%d", entries), ctl.BTLBStats.Rate(), float64(ctl.WalkNodeReads)/float64(ctl.ChunksDone), aggregate)
			return nil
		})
	if err != nil {
		return nil, err
	}
	tbl.Note("the paper's design point is 8 entries — one resident extent per recently serviced VF")
	return []*stats.Table{tbl}, nil
}

// AblationWalkOverlap sweeps the number of concurrently overlapped walks in
// the translation unit (the paper overlaps two to hide DMA latency).
func AblationWalkOverlap(cfg Config) ([]*stats.Table, error) {
	tbl := stats.NewTable("Ablation: overlapped tree walks (BTLB disabled, random 1KB reads)",
		"walkers", "", "latency us", "bandwidth MB/s")
	err := eachPoint(cfg, []int{1, 2, 4},
		func(c *Config, walkers int) {
			c.Core.Walkers = walkers
			c.Core.BTLBEntries = 0 // expose the walk path
		},
		func(p *sim.Proc, pl *Platform, walkers int) error {
			if err := fragmentedImage(p, pl, "/frag.img", 1536); err != nil {
				return err
			}
			_, tgt, err := pl.bootVM(p, "vm", "/frag.img", 1)
			if err != nil {
				return err
			}
			res, err := (workload.DD{BlockBytes: 16384, TotalBytes: 1 << 20, Write: false}).Run(p, tgt)
			if err != nil {
				return err
			}
			tbl.SetRow(fmt.Sprintf("%d", walkers), res.MeanLatencyUs(), res.BandwidthMBps())
			return nil
		})
	return []*stats.Table{tbl}, err
}

// AblationTrampoline compares the prototype's trampoline-buffer mode against
// true IOMMU-mapped DMA (paper §VI calls the trampolines a pessimistic
// penalty on the prototype's results).
func AblationTrampoline(cfg Config) ([]*stats.Table, error) {
	tbl := stats.NewTable("Ablation: trampoline buffers (prototype) vs IOMMU DMA (real SR-IOV)",
		"mode", "", "read MB/s", "write MB/s", "512B write us")
	err := eachPoint(cfg, []string{"trampoline", "iommu"}, func(c *Config, mode string) { c.Hyp.UseIOMMU = mode == "iommu" },
		func(p *sim.Proc, pl *Platform, mode string) error {
			tgt, err := pl.RawTarget(p, BackendNeSC, rawImageBlocks)
			if err != nil {
				return err
			}
			rd, err := (workload.DD{BlockBytes: 32768, TotalBytes: 4 << 20}).Run(p, tgt)
			if err != nil {
				return err
			}
			wr, err := (workload.DD{BlockBytes: 32768, TotalBytes: 4 << 20, Write: true}).Run(p, tgt)
			if err != nil {
				return err
			}
			small, err := (workload.DD{BlockBytes: 512, TotalBytes: 256 << 10, Write: true}).Run(p, tgt)
			if err != nil {
				return err
			}
			tbl.SetRow(mode, rd.BandwidthMBps(), wr.BandwidthMBps(), small.MeanLatencyUs())
			return nil
		})
	return []*stats.Table{tbl}, err
}

// AblationPrune prunes growing fractions of a VF's extent tree and measures
// the read-latency cost of host regeneration against the memory reclaimed.
func AblationPrune(cfg Config) ([]*stats.Table, error) {
	tbl := stats.NewTable("Ablation: extent-tree pruning (random 1KB reads after prune)",
		"nodes pruned", "", "resident KB", "mean latency us", "p99 latency us", "miss interrupts")
	err := eachPoint(cfg, []int{0, 8, 32, 128, 100000}, nil, func(p *sim.Proc, pl *Platform, maxNodes int) error {
		if err := fragmentedImage(p, pl, "/frag.img", 1536); err != nil {
			return err
		}
		vm, tgt, err := pl.bootVM(p, "vm", "/frag.img", 1)
		if err != nil {
			return err
		}
		d := pl.Hyp.Device(0)
		freed := d.PruneVFTrees(maxNodes)
		resident := d.VFTree(vm.Legs[0].VFIdx).ResidentBytes()
		sb := workload.SysbenchIO{FileBytes: tgt.Size(), Ops: 600, RequestBytes: 1024, ReadRatio: 1, Seed: 9}
		res, err := sb.Run(p, tgt)
		if err != nil {
			return err
		}
		tbl.SetRow(fmt.Sprintf("%d", freed), float64(resident)/1024, res.MeanLatencyUs(), res.Lat.Percentile(99), float64(pl.Hyp.MissInterrupts))
		return nil
	})
	if err != nil {
		return nil, err
	}
	tbl.Note("pruning trades host memory for regeneration interrupts on first touch; the tail (p99) absorbs the cost")
	return []*stats.Table{tbl}, nil
}

// AblationFairness runs 1..8 concurrent VMs hammering their VFs and reports
// the spread of per-VM bandwidth (the round-robin multiplexer should keep it
// tight).
func AblationFairness(cfg Config) ([]*stats.Table, error) {
	tbl := stats.NewTable("Ablation: round-robin fairness across concurrent VFs (32KB writes)",
		"VMs", "", "aggregate MB/s", "min/VM", "max/VM", "max/min")
	err := eachPoint(cfg, []int{1, 2, 4, 8}, nil, func(p *sim.Proc, pl *Platform, n int) error {
		// Create every VM before any load starts, as AblationQoS does.
		tgts := make([]workload.ByteTarget, n)
		for i := range tgts {
			path := fmt.Sprintf("/vm%d.img", i)
			var err error
			if _, tgts[i], err = pl.directVM(p, path, path, uint32(i+1), 8192, false); err != nil {
				return err
			}
		}
		bws := make([]float64, n)
		load := pl.fanOut()
		for i, tgt := range tgts {
			load.Go("load", func(q *sim.Proc) error {
				res, err := (workload.DD{BlockBytes: 32768, TotalBytes: 2 << 20, Write: true}).Run(q, tgt)
				bws[i] = res.BandwidthMBps()
				return err
			})
		}
		if err := load.Wait(p); err != nil {
			return err
		}
		sum := 0.0
		for _, b := range bws {
			sum += b
		}
		minB, maxB := slices.Min(bws), slices.Max(bws)
		tbl.SetRow(fmt.Sprintf("%d", n), sum, minB, maxB, maxB/minB)
		return nil
	})
	return []*stats.Table{tbl}, err
}

// AblationQoS gives two competing VMs different I/O weights and verifies
// the multiplexer divides device bandwidth accordingly (paper §IV-D:
// "NeSC can be extended to enforce the hypervisor's QoS policy ... by
// supporting different priorities for each VF").
func AblationQoS(cfg Config) ([]*stats.Table, error) {
	tbl := stats.NewTable("Ablation: QoS weights across two competing VFs (32KB writes)",
		"weights (vm0:vm1)", "", "vm0 MB/s", "vm1 MB/s", "achieved ratio")
	err := eachPoint(cfg, [][2]int{{1, 1}, {2, 1}, {4, 1}, {8, 1}}, nil, func(p *sim.Proc, pl *Platform, weights [2]int) error {
		// Create both VMs before any load starts, then measure both over
		// the same fixed window of sustained contention.
		var tgts [2]workload.ByteTarget
		for i := range tgts {
			path := fmt.Sprintf("/q%d.img", i)
			var err error
			_, tgts[i], err = pl.directVM(p, path, path, uint32(i+1), 16384, false,
				func(c *hypervisor.VMConfig) { c.IOWeight = weights[i] })
			if err != nil {
				return err
			}
		}
		var done [2]int64
		stop := false
		load := pl.fanOut()
		for i, tgt := range tgts {
			load.Go("qos-load", func(q *sim.Proc) error {
				for !stop {
					if _, err := (workload.DD{BlockBytes: 32768, TotalBytes: 256 << 10, Write: true}).Run(q, tgt); err != nil {
						return err
					}
					done[i] += 256 << 10
				}
				return nil
			})
		}
		const warmup, window = 2 * sim.Millisecond, 10 * sim.Millisecond
		p.Sleep(warmup)
		base := done
		p.Sleep(window)
		var bws [2]float64
		for i := range bws {
			bws[i] = float64(done[i]-base[i]) / 1e6 / window.Seconds()
		}
		stop = true
		if err := load.Wait(p); err != nil {
			return err
		}
		tbl.SetRow(fmt.Sprintf("%d:%d", weights[0], weights[1]), bws[0], bws[1], bws[0]/bws[1])
		return nil
	})
	if err != nil {
		return nil, err
	}
	tbl.Note("the DMA engine serves VFs with work-conserving deficit round robin: equal weights split the device evenly;")
	tbl.Note("higher weights push the favored VF toward its standalone peak while the other VF absorbs only the slack")
	return []*stats.Table{tbl}, nil
}

// AblationOOB measures PF (hypervisor) I/O latency while VFs keep the
// translated path busy: the out-of-band channel must keep the PF fast.
func AblationOOB(cfg Config) ([]*stats.Table, error) {
	tbl := stats.NewTable("Ablation: PF out-of-band channel under VF load (PF 4KB reads)",
		"VF load", "", "PF latency us")
	err := eachPoint(cfg, []string{"idle", "saturated"}, nil, func(p *sim.Proc, pl *Platform, load string) error {
		if load == "saturated" {
			_, tgt, err := pl.directVM(p, "load", "/load.img", 1, 16384, false)
			if err != nil {
				return err
			}
			// Not waited for: the PF is measured while this is still running.
			pl.Eng.Go("vf-load", func(q *sim.Proc) {
				for i := 0; i < 200; i++ {
					if _, err := (workload.DD{BlockBytes: 64 << 10, TotalBytes: 64 << 10, Write: true}).Run(q, tgt); err != nil {
						return
					}
				}
			})
			p.Sleep(200 * sim.Microsecond) // let the load ramp up
		}
		tgt := NewHostRawTarget(pl.Hyp.Device(0))
		res, err := (workload.DD{BlockBytes: 4096, TotalBytes: 512 << 10, StartOffset: 100 << 20 % (pl.Cfg.MediumBlocks * 1024)}).Run(p, tgt)
		if err != nil {
			return err
		}
		tbl.SetRow(load, res.MeanLatencyUs())
		return nil
	})
	if err != nil {
		return nil, err
	}
	tbl.Note("the PF shares the medium with the VFs, so some slowdown remains; the OOB channel removes queueing behind translation")
	return []*stats.Table{tbl}, nil
}

// AblationLazyAlloc compares writes into preallocated space with first-touch
// writes into a sparse image, which pay the miss-interrupt + host-allocation
// round trip (paper Fig. 5b).
func AblationLazyAlloc(cfg Config) ([]*stats.Table, error) {
	tbl := stats.NewTable("Ablation: lazy allocation (4KB writes to a NeSC VF)",
		"image", "", "mean latency us", "p99 latency us", "miss interrupts")
	err := eachPoint(cfg, []string{"preallocated", "sparse (lazy)"}, nil, func(p *sim.Proc, pl *Platform, image string) error {
		_, tgt, err := pl.directVM(p, "vm", "/lazy.img", 1, 16384, image != "preallocated")
		if err != nil {
			return err
		}
		res, err := (workload.DD{BlockBytes: 4096, TotalBytes: 4 << 20, Write: true}).Run(p, tgt)
		if err != nil {
			return err
		}
		tbl.SetRow(image, res.MeanLatencyUs(), res.Lat.Percentile(99), float64(pl.Hyp.MissInterrupts))
		return nil
	})
	return []*stats.Table{tbl}, err
}
