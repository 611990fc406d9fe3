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
	err := eachPoint(cfg, setups, nil, func(p *sim.Proc, pl *Platform, s setup) error {
		if !s.withFS {
			// Raw device: warm up, then measure in place.
			tgt, err := pl.RawTarget(p, s.backend, rawImageBlocks)
			if err != nil {
				return err
			}
			if _, err := (workload.DD{BlockBytes: 4096, TotalBytes: 128 << 10, Write: true}).Run(p, tgt); err != nil {
				return err
			}
			for _, bs := range RawSizes {
				res, err := (workload.DD{BlockBytes: bs, TotalBytes: ddTotal(bs, 1), Write: true}).Run(p, tgt)
				if err != nil {
					return fmt.Errorf("bs=%d: %w", bs, err)
				}
				tbl.Set(SizeLabel(bs), s.column, res.MeanLatencyUs())
			}
			return nil
		}
		// Guest filesystem on the virtual device. dd writes a fresh output
		// file, so every write extends it: block allocation and inode updates
		// ride on each request — the filesystem work whose device accesses
		// the figure prices. The guest journal is off, matching ext4's batched
		// (not per-write) journal commits at this timescale.
		var vm *hypervisor.VM
		var err error
		if s.backend == BackendNeSC {
			vm, _, err = pl.directVM(p, "fs-nesc", "/fs-nesc.img", 1, rawImageBlocks, false)
		} else {
			vm, _, err = pl.rawDeviceVM(p, "fs-virtio", hypervisor.BackendVirtio)
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
			// Size the file so sequential appends stay in range.
			if err := f.Truncate(p, 0); err != nil {
				return err
			}
			res, err := runAppendDD(p, NewFileTarget(f), bs, ddTotal(bs, 1))
			if err != nil {
				return fmt.Errorf("bs=%d: %w", bs, err)
			}
			tbl.Set(SizeLabel(bs), s.column, res.MeanLatencyUs())
		}
		return nil
	})
	if err != nil {
		return nil, err
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
// output file): workload.DD's measured loop over an offset sequence that
// never wraps.
func runAppendDD(p *sim.Proc, ft workload.ByteTarget, blockBytes int, totalBytes int64) (workload.Result, error) {
	var res workload.Result
	err := workload.Timed(p, &res, totalBytes/int64(blockBytes), int64(blockBytes), func(i int64) error {
		return ft.WriteAt(p, i*int64(blockBytes), blockBytes)
	})
	return res, err
}
