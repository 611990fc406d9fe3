package bench

import (
	"fmt"

	"nesc/internal/sim"
	"nesc/internal/stats"
	"nesc/internal/workload"
)

// Snapshot measures the two costs of the copy-on-write snapshot subsystem.
//
// The first table is the write-latency profile around a snapshot: a
// steady-state pass over a preallocated image, then the first pass after
// SnapshotVF — every 4KB write traps on a write-protected extent, and the
// hypervisor's share break (allocate + copy + tree update + BTLB
// invalidation) rides the miss-interrupt round trip — then a re-write pass
// over the now-private blocks, which must match steady state again.
//
// The second table is clone-fanout space amplification: N writable forks of
// one base image cost almost nothing until they diverge, because every
// unmodified block is shared. Physical usage is measured against logical
// capacity before and after each clone dirties a fixed fraction of its disk.
func Snapshot(cfg Config) ([]*stats.Table, error) {
	lat, err := snapshotLatency(cfg)
	if err != nil {
		return nil, err
	}
	amp, err := snapshotFanout(cfg)
	if err != nil {
		return nil, err
	}
	return []*stats.Table{lat, amp}, nil
}

func snapshotLatency(cfg Config) (*stats.Table, error) {
	tbl := stats.NewTable("Snapshot CoW: 4KB write latency around a snapshot (preallocated image)",
		"pass", "", "mean latency us", "p99 latency us", "CoW faults")
	const fileBlocks = 2048 // 2 MB image: 512 writes per pass keeps 'all' runs fast
	_, err := runPoint(cfg, func(p *sim.Proc, pl *Platform) error {
		vm, tgt, err := pl.directVM(p, "vm", "/snap.img", 1, fileBlocks, false)
		if err != nil {
			return err
		}
		d := pl.Hyp.Device(0)
		total := int64(fileBlocks) * int64(pl.Cfg.Core.BlockSize)
		pass := func(row string) error {
			pre := d.Ctl.CowFaults
			res, err := (workload.DD{BlockBytes: 4096, TotalBytes: total, Write: true}).Run(p, tgt)
			if err != nil {
				return err
			}
			tbl.SetRow(row, res.MeanLatencyUs(), res.Lat.Percentile(99), float64(d.Ctl.CowFaults-pre))
			return nil
		}
		if err := pass("steady state"); err != nil {
			return err
		}
		if err := d.SnapshotVF(p, vm.Legs[0].VFIdx, "/snap.img.0", 1); err != nil {
			return err
		}
		if err := pass("first write after snapshot"); err != nil {
			return err
		}
		return pass("re-write after break")
	})
	if err != nil {
		return nil, err
	}
	tbl.Note("each post-snapshot 4KB write traps on a protected extent; the break is serviced through the miss-interrupt path")
	tbl.Note("the re-write pass is fault-free again; its residual overhead vs steady state is extra tree walks on the break-fragmented extent map")
	return tbl, nil
}

func snapshotFanout(cfg Config) (*stats.Table, error) {
	tbl := stats.NewTable("Snapshot CoW: clone-fanout space amplification (4 MB base, 1/16 divergence per clone)",
		"clones", "", "logical MB", "physical MB", "amplification", "after divergence MB")
	const fileBlocks = 4096 // 4 MB base image
	err := eachPoint(cfg, []int{1, 2, 4, 8}, nil, func(p *sim.Proc, pl *Platform, fanout int) error {
		d := pl.Hyp.Device(0)
		fs := d.HostFS
		bs := float64(fs.BlockSize())
		base := fs.FreeBlocks()
		usedMB := func() float64 { return float64(base-fs.FreeBlocks()) * bs / (1 << 20) }
		vm, _, err := pl.directVM(p, "base", "/base.img", 1, fileBlocks, false)
		if err != nil {
			return err
		}
		clones := make([]workload.ByteTarget, fanout)
		for i := range clones {
			path := fmt.Sprintf("/clone%d.img", i)
			if err := d.CloneVF(p, vm.Legs[0].VFIdx, path, 1); err != nil {
				return err
			}
			if _, clones[i], err = pl.bootVM(p, path, path, 1); err != nil {
				return err
			}
		}
		used := usedMB()
		// Each clone dirties a distinct 1/16 of its disk.
		chunk := int64(fileBlocks) * int64(bs) / 16
		for i, tgt := range clones {
			if _, err := (workload.DD{
				BlockBytes: 4096, TotalBytes: chunk, StartOffset: int64(i) * chunk, Write: true,
			}).Run(p, tgt); err != nil {
				return err
			}
		}
		tbl.SetRow(fmt.Sprintf("%d", fanout), float64((1+fanout)*fileBlocks)*bs/(1<<20), used, used*(1<<20)/(fileBlocks*bs), usedMB())
		return fs.Check(p)
	})
	if err != nil {
		return nil, err
	}
	tbl.Note("physical usage includes each clone's metadata (inode, refcount table); shared data blocks are counted once")
	tbl.Note("amplification = physical usage / one base image; 1 + N forks stay near 1.0x until they diverge")
	return tbl, nil
}
