package bench

import (
	"fmt"

	"nesc/internal/sim"
	"nesc/internal/stats"
	"nesc/internal/workload"
)

// Figures 9 and 10 (paper §VII-A): raw virtual-device latency and bandwidth
// versus request size, for full emulation, virtio, a NeSC VF, and the bare
// host (PF) baseline. The NeSC VF is created from a preallocated file on the
// hypervisor's filesystem; virtio and emulation map the PF itself — exactly
// the paper's configurations.

// RawSizes are the request sizes of Figures 9–11 (512 B to 32 KB).
var RawSizes = []int{512, 1024, 2048, 4096, 8192, 16384, 32768}

// ConvergenceSizes extend Figure 10's read panel to the block sizes where
// the paper observes virtio converging with NeSC (≥ 2 MB).
var ConvergenceSizes = []int{64 << 10, 256 << 10, 1 << 20, 2 << 20, 4 << 20}

// SizeLabel renders a byte count the way the paper's axes do.
func SizeLabel(n int) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%dMB", n>>20)
	case n >= 1024:
		return fmt.Sprintf("%dKB", n>>10)
	default:
		return fmt.Sprintf("%dB", n)
	}
}

const rawImageBlocks = 64 * 1024 // 64 MB file behind the NeSC VF

// ddTotal picks a transfer volume that gives stable averages without
// inflating simulation wall time.
func ddTotal(blockBytes int, scale int64) int64 {
	total := int64(blockBytes) * 64 * scale
	const lo, hi = 256 << 10, 4 << 20
	if total < lo {
		return lo
	}
	if total > hi {
		return hi
	}
	return total
}

// rawSweep runs dd at every size on every backend and stores
// metric(result) into per-direction tables.
func rawSweep(cfg Config, sizes []int, backends []string, title, unit string,
	metric func(workload.Result) float64) (read, write *stats.Table, err error) {
	read = stats.NewTable(title+" — read", "block size", unit, backends...)
	write = stats.NewTable(title+" — write", "block size", unit, backends...)
	err = eachPoint(cfg, backends, nil, func(p *sim.Proc, pl *Platform, backend string) error {
		tgt, err := pl.RawTarget(p, backend, rawImageBlocks)
		if err != nil {
			return err
		}
		// Warm the data path (ring setup, first-touch costs).
		if _, err := (workload.DD{BlockBytes: 4096, TotalBytes: 64 << 10, Write: true}).Run(p, tgt); err != nil {
			return err
		}
		for _, bs := range sizes {
			for _, wr := range []bool{false, true} {
				res, err := (workload.DD{BlockBytes: bs, TotalBytes: ddTotal(bs, 1), Write: wr}).Run(p, tgt)
				if err != nil {
					return fmt.Errorf("bs=%d write=%v: %w", bs, wr, err)
				}
				tbl := read
				if wr {
					tbl = write
				}
				tbl.Set(SizeLabel(bs), backend, metric(res))
			}
		}
		return nil
	})
	return read, write, err
}

// Fig9 regenerates Figure 9: raw access latency (µs) for reads and writes.
func Fig9(cfg Config) ([]*stats.Table, error) {
	read, write, err := rawSweep(cfg, RawSizes, RawBackends,
		"Figure 9: raw access latency", "us",
		func(r workload.Result) float64 { return r.MeanLatencyUs() })
	if err != nil {
		return nil, err
	}
	annotateRatio(read, BackendVirt, BackendNeSC, "virtio/NeSC latency")
	annotateRatio(read, BackendEmul, BackendNeSC, "Emulation/NeSC latency")
	annotateRatio(write, BackendVirt, BackendNeSC, "virtio/NeSC latency")
	annotateRatio(write, BackendEmul, BackendNeSC, "Emulation/NeSC latency")
	return []*stats.Table{read, write}, nil
}

// Fig10 regenerates Figure 10: raw bandwidth (MB/s) for reads and writes,
// plus the large-block convergence study the paper describes in the text.
func Fig10(cfg Config) ([]*stats.Table, error) {
	read, write, err := rawSweep(cfg, RawSizes, RawBackends,
		"Figure 10: raw bandwidth", "MB/s",
		func(r workload.Result) float64 { return r.BandwidthMBps() })
	if err != nil {
		return nil, err
	}
	annotateRatio(read, BackendNeSC, BackendVirt, "NeSC/virtio bandwidth")
	annotateRatio(write, BackendNeSC, BackendVirt, "NeSC/virtio bandwidth")
	annotateRatio(read, BackendNeSC, BackendEmul, "NeSC/Emulation bandwidth")
	annotateRatio(write, BackendNeSC, BackendEmul, "NeSC/Emulation bandwidth")

	conv, _, err := rawSweep(cfg, ConvergenceSizes, []string{BackendVirt, BackendNeSC},
		"Figure 10 (inset): virtio convergence at large blocks", "MB/s",
		func(r workload.Result) float64 { return r.BandwidthMBps() })
	if err != nil {
		return nil, err
	}
	annotateRatio(conv, BackendNeSC, BackendVirt, "NeSC/virtio bandwidth")
	return []*stats.Table{read, write, conv}, nil
}

// annotateRatio appends num/den ratios across the table's rows as a note.
func annotateRatio(t *stats.Table, num, den, label string) {
	s := label + ":"
	for _, x := range t.Rows() {
		nv, ok1 := t.Get(x, num)
		dv, ok2 := t.Get(x, den)
		if !ok1 || !ok2 || dv == 0 {
			continue
		}
		s += fmt.Sprintf(" %s=%.2fx", x, nv/dv)
	}
	t.Note("%s", s)
}
