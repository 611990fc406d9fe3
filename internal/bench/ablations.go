package bench

import (
	"fmt"

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
	for _, entries := range []int{0, 1, 2, 4, 8, 16, 64} {
		entries := entries
		c := cfg
		c.Core.BTLBEntries = entries
		pl := NewPlatform(c)
		d := pl.Hyp.Device(0)
		var chunks int64
		var aggregate float64
		err := pl.Run(func(p *sim.Proc) error {
			wg := sim.NewWaitGroup(pl.Eng)
			var firstErr error
			for i := 0; i < vms; i++ {
				path := fmt.Sprintf("/b%d.img", i)
				if err := d.MkImage(p, path, uint32(i+1), 4096, false); err != nil {
					return err
				}
				vm, err := pl.Hyp.NewVM(p, path, hypervisor.VMConfig{
					Backend: hypervisor.BackendDirect, DiskPath: path, UID: uint32(i + 1),
				})
				if err != nil {
					return err
				}
				wg.Add(1)
				pl.Eng.Go("btlb-load", func(q *sim.Proc) {
					defer wg.Done()
					tgt := NewVMRawTarget(vm.Kernel)
					res, err := (workload.DD{BlockBytes: 4096, TotalBytes: 1 << 20}).Run(q, tgt)
					if err != nil {
						if firstErr == nil {
							firstErr = err
						}
						return
					}
					aggregate += res.BandwidthMBps()
				})
			}
			wg.WaitFor(p)
			chunks = d.Ctl.ChunksDone
			return firstErr
		})
		if err != nil {
			return nil, err
		}
		row := fmt.Sprintf("%d", entries)
		tbl.Set(row, "hit rate", d.Ctl.BTLBStats.Rate())
		if chunks > 0 {
			tbl.Set(row, "walk node reads/op", float64(d.Ctl.WalkNodeReads)/float64(chunks))
		}
		tbl.Set(row, "aggregate MB/s", aggregate)
	}
	tbl.Note("the paper's design point is 8 entries — one resident extent per recently serviced VF")
	return []*stats.Table{tbl}, nil
}

// AblationWalkOverlap sweeps the number of concurrently overlapped walks in
// the translation unit (the paper overlaps two to hide DMA latency).
func AblationWalkOverlap(cfg Config) ([]*stats.Table, error) {
	tbl := stats.NewTable("Ablation: overlapped tree walks (BTLB disabled, random 1KB reads)",
		"walkers", "", "latency us", "bandwidth MB/s")
	for _, walkers := range []int{1, 2, 4} {
		c := cfg
		c.Core.Walkers = walkers
		c.Core.BTLBEntries = 0 // expose the walk path
		pl := NewPlatform(c)
		err := pl.Run(func(p *sim.Proc) error {
			if err := fragmentedImage(p, pl, "/frag.img", 1536); err != nil {
				return err
			}
			vm, err := pl.Hyp.NewVM(p, "vm", hypervisor.VMConfig{
				Backend: hypervisor.BackendDirect, DiskPath: "/frag.img", UID: 1,
			})
			if err != nil {
				return err
			}
			tgt := NewVMRawTarget(vm.Kernel)
			res, err := (workload.DD{BlockBytes: 16384, TotalBytes: 1 << 20, Write: false}).Run(p, tgt)
			if err != nil {
				return err
			}
			row := fmt.Sprintf("%d", walkers)
			tbl.Set(row, "latency us", res.MeanLatencyUs())
			tbl.Set(row, "bandwidth MB/s", res.BandwidthMBps())
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return []*stats.Table{tbl}, nil
}

// AblationTrampoline compares the prototype's trampoline-buffer mode against
// true IOMMU-mapped DMA (paper §VI calls the trampolines a pessimistic
// penalty on the prototype's results).
func AblationTrampoline(cfg Config) ([]*stats.Table, error) {
	tbl := stats.NewTable("Ablation: trampoline buffers (prototype) vs IOMMU DMA (real SR-IOV)",
		"mode", "", "read MB/s", "write MB/s", "512B write us")
	for _, mode := range []string{"trampoline", "iommu"} {
		c := cfg
		c.Hyp.UseIOMMU = mode == "iommu"
		pl := NewPlatform(c)
		err := pl.Run(func(p *sim.Proc) error {
			tgt, err := pl.rawTarget(p, BackendNeSC, rawImageBlocks)
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
			tbl.Set(mode, "read MB/s", rd.BandwidthMBps())
			tbl.Set(mode, "write MB/s", wr.BandwidthMBps())
			tbl.Set(mode, "512B write us", small.MeanLatencyUs())
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return []*stats.Table{tbl}, nil
}

// AblationPrune prunes growing fractions of a VF's extent tree and measures
// the read-latency cost of host regeneration against the memory reclaimed.
func AblationPrune(cfg Config) ([]*stats.Table, error) {
	tbl := stats.NewTable("Ablation: extent-tree pruning (random 1KB reads after prune)",
		"nodes pruned", "", "resident KB", "mean latency us", "p99 latency us", "miss interrupts")
	for _, maxNodes := range []int{0, 8, 32, 128, 100000} {
		c := cfg
		pl := NewPlatform(c)
		d := pl.Hyp.Device(0)
		maxNodes := maxNodes
		err := pl.Run(func(p *sim.Proc) error {
			if err := fragmentedImage(p, pl, "/frag.img", 1536); err != nil {
				return err
			}
			vm, err := pl.Hyp.NewVM(p, "vm", hypervisor.VMConfig{
				Backend: hypervisor.BackendDirect, DiskPath: "/frag.img", UID: 1,
			})
			if err != nil {
				return err
			}
			freed := d.PruneVFTrees(maxNodes)
			resident := d.VFTree(vm.Legs[0].VFIdx).ResidentBytes()
			tgt := NewVMRawTarget(vm.Kernel)
			sb := workload.SysbenchIO{FileBytes: tgt.Size(), Ops: 600, RequestBytes: 1024, ReadRatio: 1, Seed: 9}
			res, err := sb.Run(p, tgt)
			if err != nil {
				return err
			}
			row := fmt.Sprintf("%d", freed)
			tbl.Set(row, "resident KB", float64(resident)/1024)
			tbl.Set(row, "mean latency us", res.MeanLatencyUs())
			tbl.Set(row, "p99 latency us", res.Lat.Percentile(99))
			tbl.Set(row, "miss interrupts", float64(pl.Hyp.MissInterrupts))
			return nil
		})
		if err != nil {
			return nil, err
		}
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
	for _, n := range []int{1, 2, 4, 8} {
		n := n
		pl := NewPlatform(cfg)
		bws := make([]float64, n)
		err := pl.Run(func(p *sim.Proc) error {
			wg := sim.NewWaitGroup(pl.Eng)
			var firstErr error
			for i := 0; i < n; i++ {
				i := i
				path := fmt.Sprintf("/vm%d.img", i)
				if err := pl.Hyp.Device(0).MkImage(p, path, uint32(i+1), 8192, false); err != nil {
					return err
				}
				vm, err := pl.Hyp.NewVM(p, path, hypervisor.VMConfig{
					Backend: hypervisor.BackendDirect, DiskPath: path, UID: uint32(i + 1),
				})
				if err != nil {
					return err
				}
				wg.Add(1)
				pl.Eng.Go("load", func(q *sim.Proc) {
					defer wg.Done()
					tgt := NewVMRawTarget(vm.Kernel)
					res, err := (workload.DD{BlockBytes: 32768, TotalBytes: 2 << 20, Write: true}).Run(q, tgt)
					if err != nil && firstErr == nil {
						firstErr = err
						return
					}
					bws[i] = res.BandwidthMBps()
				})
			}
			wg.WaitFor(p)
			return firstErr
		})
		if err != nil {
			return nil, err
		}
		minB, maxB, sum := bws[0], bws[0], 0.0
		for _, b := range bws {
			if b < minB {
				minB = b
			}
			if b > maxB {
				maxB = b
			}
			sum += b
		}
		row := fmt.Sprintf("%d", n)
		tbl.Set(row, "aggregate MB/s", sum)
		tbl.Set(row, "min/VM", minB)
		tbl.Set(row, "max/VM", maxB)
		if minB > 0 {
			tbl.Set(row, "max/min", maxB/minB)
		}
	}
	return []*stats.Table{tbl}, nil
}

// AblationQoS gives two competing VMs different I/O weights and verifies
// the multiplexer divides device bandwidth accordingly (paper §IV-D:
// "NeSC can be extended to enforce the hypervisor's QoS policy ... by
// supporting different priorities for each VF").
func AblationQoS(cfg Config) ([]*stats.Table, error) {
	tbl := stats.NewTable("Ablation: QoS weights across two competing VFs (32KB writes)",
		"weights (vm0:vm1)", "", "vm0 MB/s", "vm1 MB/s", "achieved ratio")
	for _, weights := range [][2]int{{1, 1}, {2, 1}, {4, 1}, {8, 1}} {
		weights := weights
		pl := NewPlatform(cfg)
		var bws [2]float64
		err := pl.Run(func(p *sim.Proc) error {
			// Create both VMs before any load starts, then measure both over
			// the same fixed window of sustained contention.
			var vms [2]*hypervisor.VM
			for i := 0; i < 2; i++ {
				path := fmt.Sprintf("/q%d.img", i)
				if err := pl.Hyp.Device(0).MkImage(p, path, uint32(i+1), 16384, false); err != nil {
					return err
				}
				vm, err := pl.Hyp.NewVM(p, path, hypervisor.VMConfig{
					Backend: hypervisor.BackendDirect, DiskPath: path, UID: uint32(i + 1),
					IOWeight: weights[i],
				})
				if err != nil {
					return err
				}
				vms[i] = vm
			}
			wg := sim.NewWaitGroup(pl.Eng)
			var firstErr error
			var done [2]int64
			stop := false
			for i := 0; i < 2; i++ {
				i := i
				wg.Add(1)
				pl.Eng.Go("qos-load", func(q *sim.Proc) {
					defer wg.Done()
					tgt := NewVMRawTarget(vms[i].Kernel)
					for !stop {
						if _, err := (workload.DD{BlockBytes: 32768, TotalBytes: 256 << 10, Write: true}).Run(q, tgt); err != nil {
							if firstErr == nil {
								firstErr = err
							}
							return
						}
						done[i] += 256 << 10
					}
				})
			}
			const warmup, window = 2 * sim.Millisecond, 10 * sim.Millisecond
			p.Sleep(warmup)
			var base [2]int64
			base[0], base[1] = done[0], done[1]
			p.Sleep(window)
			for i := 0; i < 2; i++ {
				bws[i] = float64(done[i]-base[i]) / 1e6 / window.Seconds()
			}
			stop = true
			wg.WaitFor(p)
			return firstErr
		})
		if err != nil {
			return nil, err
		}
		row := fmt.Sprintf("%d:%d", weights[0], weights[1])
		tbl.Set(row, "vm0 MB/s", bws[0])
		tbl.Set(row, "vm1 MB/s", bws[1])
		if bws[1] > 0 {
			tbl.Set(row, "achieved ratio", bws[0]/bws[1])
		}
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
	for _, loaded := range []bool{false, true} {
		loaded := loaded
		pl := NewPlatform(cfg)
		err := pl.Run(func(p *sim.Proc) error {
			if loaded {
				if err := pl.Hyp.Device(0).MkImage(p, "/load.img", 1, 16384, false); err != nil {
					return err
				}
				vm, err := pl.Hyp.NewVM(p, "load", hypervisor.VMConfig{
					Backend: hypervisor.BackendDirect, DiskPath: "/load.img", UID: 1,
				})
				if err != nil {
					return err
				}
				pl.Eng.Go("vf-load", func(q *sim.Proc) {
					tgt := NewVMRawTarget(vm.Kernel)
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
			row := "idle"
			if loaded {
				row = "saturated"
			}
			tbl.Set(row, "PF latency us", res.MeanLatencyUs())
			return nil
		})
		if err != nil {
			return nil, err
		}
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
	for _, sparse := range []bool{false, true} {
		sparse := sparse
		pl := NewPlatform(cfg)
		err := pl.Run(func(p *sim.Proc) error {
			if err := pl.Hyp.Device(0).MkImage(p, "/lazy.img", 1, 16384, sparse); err != nil {
				return err
			}
			vm, err := pl.Hyp.NewVM(p, "vm", hypervisor.VMConfig{
				Backend: hypervisor.BackendDirect, DiskPath: "/lazy.img", UID: 1,
			})
			if err != nil {
				return err
			}
			tgt := NewVMRawTarget(vm.Kernel)
			res, err := (workload.DD{BlockBytes: 4096, TotalBytes: 4 << 20, Write: true}).Run(p, tgt)
			if err != nil {
				return err
			}
			row := "preallocated"
			if sparse {
				row = "sparse (lazy)"
			}
			tbl.Set(row, "mean latency us", res.MeanLatencyUs())
			tbl.Set(row, "p99 latency us", res.Lat.Percentile(99))
			tbl.Set(row, "miss interrupts", float64(pl.Hyp.MissInterrupts))
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return []*stats.Table{tbl}, nil
}
