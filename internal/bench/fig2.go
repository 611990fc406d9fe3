package bench

import (
	"fmt"

	"nesc/internal/hypervisor"
	"nesc/internal/sim"
	"nesc/internal/stats"
	"nesc/internal/workload"
)

// Figure 2 (paper §II): the motivating experiment — the write-bandwidth
// speedup of direct device assignment over virtio as a function of device
// bandwidth. The paper emulates fast storage by throttling an in-memory disk
// (whose effective bandwidth "peaks at 3.6 GB/s due to the overheads of the
// software layers") and observes direct assignment roughly doubling
// virtio's bandwidth for multi-GB/s devices.

// Fig2Bandwidths is the device-bandwidth sweep, in MB/s.
var Fig2Bandwidths = []float64{100, 200, 400, 800, 1200, 1600, 2000, 2400, 2800, 3200, 3600}

// Fig2 regenerates the figure.
func Fig2(cfg Config) ([]*stats.Table, error) {
	speed := stats.NewTable("Figure 2: direct assignment speedup over virtio vs device bandwidth",
		"device MB/s", "x", "Speedup")
	abs := stats.NewTable("Figure 2 (underlying data): achieved write bandwidth",
		"device MB/s", "MB/s", "Direct", "virtio")
	for _, mbps := range Fig2Bandwidths {
		row := fmt.Sprintf("%.0f", mbps)
		direct, vio, err := Fig2Point(cfg, mbps*1e6)
		if err != nil {
			return nil, err
		}
		abs.Set(row, "Direct", direct)
		abs.Set(row, "virtio", vio)
		if vio > 0 {
			speed.Set(row, "Speedup", direct/vio)
		}
	}
	speed.Note("direct assignment = identity-mapped NeSC VF (no hypervisor on the data path)")
	speed.Note("the paper's ramdisk software cap (~3.6 GB/s) appears as Direct flattening at high device bandwidth")
	return []*stats.Table{speed, abs}, nil
}

// Fig2Point runs one point of the sweep — the figure's inner run, which the
// tests call for single points: the write bandwidth (MB/s) a direct-assigned
// and a virtio guest achieve on a device throttled to deviceBandwidth
// (bytes/s).
func Fig2Point(cfg Config, deviceBandwidth float64) (direct, vio float64, err error) {
	// The throttled device in this experiment is a ramdisk, not the 1 GB/s
	// PCIe prototype: remove the gen2 link and the prototype controller's
	// channel count as bottlenecks so the sweep isolates the software
	// overheads, as the paper's setup does.
	cfg.PCIe.LinkBandwidth = 16e9
	cfg.Medium.ReadLatency = 150 * sim.Nanosecond
	cfg.Medium.WriteLatency = 150 * sim.Nanosecond
	cfg.Core.DTUChannels = 16
	cfg.Core.Walkers = 4
	cfg.Medium.ReadBandwidth = deviceBandwidth
	cfg.Medium.WriteBandwidth = deviceBandwidth

	const ddBlock = 256 << 10
	const ddTotalBytes = 8 << 20

	for _, kind := range []hypervisor.BackendKind{hypervisor.BackendDirect, hypervisor.BackendVirtio} {
		kind := kind
		pl := NewPlatform(cfg)
		var got float64
		err := pl.Run(func(p *sim.Proc) error {
			vm, err := pl.Hyp.NewVM(p, "fig2", hypervisor.VMConfig{
				Backend: kind, RawDevice: true,
			})
			if err != nil {
				return err
			}
			tgt := NewVMRawTarget(vm.Kernel)
			if _, err := (workload.DD{BlockBytes: ddBlock, TotalBytes: ddBlock, Write: true}).Run(p, tgt); err != nil {
				return err
			}
			res, err := (workload.DD{BlockBytes: ddBlock, TotalBytes: ddTotalBytes, Write: true}).Run(p, tgt)
			if err != nil {
				return err
			}
			got = res.BandwidthMBps()
			return nil
		})
		if err != nil {
			return 0, 0, fmt.Errorf("fig2 %.0f MB/s %v: %w", deviceBandwidth/1e6, kind, err)
		}
		if kind == hypervisor.BackendDirect {
			direct = got
		} else {
			vio = got
		}
	}
	return direct, vio, nil
}
