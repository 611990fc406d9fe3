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
		direct, vio, err := Fig2Point(cfg, mbps*1e6)
		if err != nil {
			return nil, err
		}
		row := fmt.Sprintf("%.0f", mbps)
		abs.SetRow(row, direct, vio)
		speed.SetRow(row, direct/vio)
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
	const ddBlock = 256 << 10
	const ddTotalBytes = 8 << 20
	got := map[hypervisor.BackendKind]float64{}
	err = eachPoint(cfg, []hypervisor.BackendKind{hypervisor.BackendDirect, hypervisor.BackendVirtio},
		func(c *Config, _ hypervisor.BackendKind) {
			// The throttled device in this experiment is a ramdisk, not the
			// 1 GB/s PCIe prototype: remove the gen2 link and the prototype
			// controller's channel count as bottlenecks so the sweep isolates
			// the software overheads, as the paper's setup does.
			c.PCIe.LinkBandwidth = 16e9
			c.Medium.ReadLatency = 150 * sim.Nanosecond
			c.Medium.WriteLatency = 150 * sim.Nanosecond
			c.Core.DTUChannels = 16
			c.Core.Walkers = 4
			c.Medium.ReadBandwidth = deviceBandwidth
			c.Medium.WriteBandwidth = deviceBandwidth
		},
		func(p *sim.Proc, pl *Platform, kind hypervisor.BackendKind) error {
			_, tgt, err := pl.rawDeviceVM(p, "fig2", kind)
			if err != nil {
				return err
			}
			if _, err := (workload.DD{BlockBytes: ddBlock, TotalBytes: ddBlock, Write: true}).Run(p, tgt); err != nil {
				return err
			}
			res, err := (workload.DD{BlockBytes: ddBlock, TotalBytes: ddTotalBytes, Write: true}).Run(p, tgt)
			got[kind] = res.BandwidthMBps()
			return err
		})
	if err != nil {
		return 0, 0, fmt.Errorf("fig2 %.0f MB/s: %w", deviceBandwidth/1e6, err)
	}
	return got[hypervisor.BackendDirect], got[hypervisor.BackendVirtio], nil
}
