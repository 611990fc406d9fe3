package bench

import (
	"fmt"

	"nesc/internal/extfs"
	"nesc/internal/hypervisor"
	"nesc/internal/sim"
	"nesc/internal/stats"
	"nesc/internal/workload"
)

// Figure 11 (paper §VII-A "Filesystem overheads"): write latency observed by
// the guest when writing the raw virtual device versus writing a file on an
// extent filesystem mounted on that device, for virtio and NeSC. The paper's
// observation: the filesystem adds a roughly constant ~40 µs to NeSC but
// ~170 µs to virtio, because each filesystem-induced device access costs a
// full virtualization round trip on virtio.

// Fig11 regenerates the figure. Only writes are measured, "since writes may
// require the VF to request extent allocations from the OS's filesystem".
func Fig11(cfg Config) ([]*stats.Table, error) {
	cols := []string{"virtio - FS", "virtio - raw", "NeSC - FS", "NeSC - raw"}
	tbl := stats.NewTable("Figure 11: filesystem overheads (write latency)", "block size", "us", cols...)

	type setup struct {
		column  string
		backend string
		withFS  bool
	}
	setups := []setup{
		{"virtio - raw", BackendVirt, false},
		{"virtio - FS", BackendVirt, true},
		{"NeSC - raw", BackendNeSC, false},
		{"NeSC - FS", BackendNeSC, true},
	}
	for _, s := range setups {
		s := s
		pl := NewPlatform(cfg)
		err := pl.Run(func(p *sim.Proc) error {
			var tgt workload.ByteTarget
			if !s.withFS {
				var err error
				tgt, err = pl.rawTarget(p, s.backend, rawImageBlocks)
				if err != nil {
					return err
				}
			} else {
				// Guest filesystem on the virtual device. dd writes a fresh
				// output file, so every write extends it: block allocation
				// and inode updates ride on each request — the filesystem
				// work whose device accesses the figure prices. The guest
				// journal is off, matching ext4's batched (not per-write)
				// journal commits at this timescale.
				var vm *hypervisor.VM
				var err error
				if s.backend == BackendNeSC {
					if err := pl.Hyp.Device(0).MkImage(p, "/fs-nesc.img", 1, rawImageBlocks, false); err != nil {
						return err
					}
					vm, err = pl.Hyp.NewVM(p, "fs-nesc", hypervisor.VMConfig{
						Backend: hypervisor.BackendDirect, DiskPath: "/fs-nesc.img", UID: 1,
					})
				} else {
					vm, err = pl.Hyp.NewVM(p, "fs-virtio", hypervisor.VMConfig{
						Backend: hypervisor.BackendVirtio, RawDevice: true,
					})
				}
				if err != nil {
					return err
				}
				gfs, err := vm.Kernel.Mount(p, true, extfs.Params{
					InodeCount: 64, JournalBlocks: 32, Mode: extfs.JournalNone,
				})
				if err != nil {
					return err
				}
				// Fresh output file per block size, written append-style.
				for _, bs := range RawSizes {
					f, err := gfs.Create(p, fmt.Sprintf("/dd-%d.out", bs), 0, 0o644)
					if err != nil {
						return err
					}
					ft := NewFileTarget(f)
					dd := workload.DD{BlockBytes: bs, TotalBytes: ddTotal(bs, 1), Write: true}
					// Size the file so sequential appends stay in range.
					if err := f.Truncate(p, 0); err != nil {
						return err
					}
					res, err := runAppendDD(p, ft, dd)
					if err != nil {
						return fmt.Errorf("%s bs=%d: %w", s.column, bs, err)
					}
					tbl.Set(SizeLabel(bs), s.column, res.MeanLatencyUs())
				}
				return nil
			}
			// Raw device: warm up, then measure in place.
			if _, err := (workload.DD{BlockBytes: 4096, TotalBytes: 128 << 10, Write: true}).Run(p, tgt); err != nil {
				return err
			}
			for _, bs := range RawSizes {
				dd := workload.DD{BlockBytes: bs, TotalBytes: ddTotal(bs, 1), Write: true}
				res, err := dd.Run(p, tgt)
				if err != nil {
					return fmt.Errorf("%s bs=%d: %w", s.column, bs, err)
				}
				tbl.Set(SizeLabel(bs), s.column, res.MeanLatencyUs())
			}
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("setup %s: %w", s.column, err)
		}
	}
	// The paper's headline deltas.
	noteDelta := func(fsCol, rawCol, label string) {
		s := label + ":"
		for _, x := range tbl.Rows() {
			fv, ok1 := tbl.Get(x, fsCol)
			rv, ok2 := tbl.Get(x, rawCol)
			if ok1 && ok2 {
				s += fmt.Sprintf(" %s=+%.1fus", x, fv-rv)
			}
		}
		tbl.Note("%s", s)
	}
	noteDelta("NeSC - FS", "NeSC - raw", "filesystem cost on NeSC")
	noteDelta("virtio - FS", "virtio - raw", "filesystem cost on virtio")
	annotateRatio(tbl, "virtio - FS", "NeSC - FS", "virtio-FS/NeSC-FS")
	return []*stats.Table{tbl}, nil
}

// runAppendDD performs sequential appending writes (dd creating a new
// output file), timing each write like workload.DD does.
func runAppendDD(p *sim.Proc, ft workload.ByteTarget, dd workload.DD) (workload.Result, error) {
	res := workload.Result{Name: fmt.Sprintf("dd-append bs=%d", dd.BlockBytes)}
	count := dd.TotalBytes / int64(dd.BlockBytes)
	start := p.Now()
	for i := int64(0); i < count; i++ {
		opStart := p.Now()
		if err := ft.WriteAt(p, i*int64(dd.BlockBytes), dd.BlockBytes); err != nil {
			return res, err
		}
		res.Ops++
		res.Bytes += int64(dd.BlockBytes)
		res.Lat.Add((p.Now() - opStart).Micros())
	}
	res.Elapsed = p.Now() - start
	return res, nil
}
