package bench

import (
	"nesc/internal/hypervisor"
	"nesc/internal/sim"
	"nesc/internal/workload"
)

// Support entry points for the repository-level benchmark harness
// (bench_test.go) and for tests: single-point versions of the figure
// experiments.

// RawTargetForTest exposes rawTarget for the benchmark harness.
func RawTargetForTest(p *sim.Proc, pl *Platform, backend string) (workload.ByteTarget, error) {
	return pl.rawTarget(p, backend, rawImageBlocks)
}

// Fig2Point runs one Figure-2 bandwidth point (device bandwidth in bytes/s)
// and returns the direct/virtio speedup.
func Fig2Point(deviceBandwidth float64) (float64, error) {
	cfg := DefaultConfig()
	cfg.PCIe.LinkBandwidth = 16e9
	cfg.Core.DTUChannels = 16
	cfg.Core.Walkers = 4
	cfg.Medium.ReadBandwidth = deviceBandwidth
	cfg.Medium.WriteBandwidth = deviceBandwidth
	var bws [2]float64
	kinds := []hypervisor.BackendKind{hypervisor.BackendDirect, hypervisor.BackendVirtio}
	for i, kind := range kinds {
		kind := kind
		pl := NewPlatform(cfg)
		var got float64
		err := pl.Run(func(p *sim.Proc) error {
			if err := pl.Boot(p); err != nil {
				return err
			}
			vm, err := pl.Hyp.NewVM(p, "fig2", hypervisor.VMConfig{
				Backend: kind, RawDevice: true, Guest: pl.Cfg.Guest,
			})
			if err != nil {
				return err
			}
			tgt := NewVMRawTarget(vm.Kernel)
			res, err := (workload.DD{BlockBytes: 256 << 10, TotalBytes: 4 << 20, Write: true}).Run(p, tgt)
			if err != nil {
				return err
			}
			got = res.BandwidthMBps()
			return nil
		})
		if err != nil {
			return 0, err
		}
		bws[i] = got
	}
	return bws[0] / bws[1], nil
}

// AppRuntimeForTest runs one Figure-12 application on one backend and
// returns the simulated runtime in milliseconds.
func AppRuntimeForTest(app, backend string) (float64, error) {
	cfg := DefaultConfig()
	pl := NewPlatform(cfg)
	var ms float64
	err := pl.Run(func(p *sim.Proc) error {
		if err := pl.Boot(p); err != nil {
			return err
		}
		if err := pl.Hyp.Device(0).MkImage(p, "/app.img", 1, fig12ImageBlocks, false); err != nil {
			return err
		}
		vm, err := pl.Hyp.NewVM(p, "app", hypervisor.VMConfig{
			Backend: backendKind(backend), DiskPath: "/app.img", UID: 1, Guest: pl.Cfg.Guest,
		})
		if err != nil {
			return err
		}
		gfs, err := vm.Kernel.Mount(p, true, fig12GuestFSParams())
		if err != nil {
			return err
		}
		res, err := runApp(p, app, gfs)
		if err != nil {
			return err
		}
		ms = float64(res.Elapsed) / float64(sim.Millisecond)
		return nil
	})
	return ms, err
}
