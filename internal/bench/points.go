package bench

import (
	"fmt"

	"nesc/internal/hypervisor"
	"nesc/internal/sim"
	"nesc/internal/workload"
)

// The experiment skeleton, written once. An experiment is its points (the
// platform deltas it sweeps: a backend, a BTLB size, a device bandwidth),
// its tenants (the VMs and processes it puts on each platform), its workload,
// and the columns it reads off — see DESIGN.md §4. Everything here names the
// kernel only, so the paper's own figures can use it (layers_test.go).

// runPoint builds the platform cfg describes, boots it, runs body as its main
// process and drains the engine. It returns the drained platform for the few
// readings that settle only then (a counter a stopping process still adds to).
func runPoint(cfg Config, body func(p *sim.Proc, pl *Platform) error) (*Platform, error) {
	pl := NewPlatform(cfg)
	return pl, pl.Run(func(p *sim.Proc) error { return body(p, pl) })
}

// eachPoint runs body once per point, each on a fresh platform: cfg, copied,
// with the point's delta applied by tune (nil: the points differ in what body
// does, not in the platform). The delta is a plain function over Config, so a
// caller can compose its own on top. It stops at the first point that fails,
// labelling the error with the point.
func eachPoint[T any](cfg Config, points []T, tune func(c *Config, pt T), body func(p *sim.Proc, pl *Platform, pt T) error) error {
	for _, pt := range points {
		c := cfg
		if tune != nil {
			tune(&c, pt)
		}
		if _, err := runPoint(c, func(p *sim.Proc, pl *Platform) error { return body(p, pl, pt) }); err != nil {
			return fmt.Errorf("point %v: %w", pt, err)
		}
	}
	return nil
}

// bootVM boots a guest on the image already at path: a directly assigned VF
// on device 0 exporting the file on uid's behalf, unless tweak says
// otherwise. It returns the VM and its raw disk as a workload target.
func (pl *Platform) bootVM(p *sim.Proc, name, path string, uid uint32, tweak ...func(*hypervisor.VMConfig)) (*hypervisor.VM, workload.ByteTarget, error) {
	cfg := hypervisor.VMConfig{Backend: hypervisor.BackendDirect, DiskPath: path, UID: uid}
	for _, t := range tweak {
		t(&cfg)
	}
	return pl.newVM(p, name, cfg)
}

// directVM is the tenant nearly every experiment starts from: a fresh image
// of the given size on device 0's host filesystem, and a guest booted on it.
func (pl *Platform) directVM(p *sim.Proc, name, path string, uid uint32, blocks uint64, sparse bool, tweak ...func(*hypervisor.VMConfig)) (*hypervisor.VM, workload.ByteTarget, error) {
	if _, err := pl.Hyp.Device(0).MkImage(p, path, uid, blocks, sparse); err != nil {
		return nil, nil, err
	}
	return pl.bootVM(p, name, path, uid, tweak...)
}

// rawDeviceVM boots a guest on the raw device itself: an identity-mapped VF
// for BackendDirect, the PF behind the software backends (paper §VII-A).
func (pl *Platform) rawDeviceVM(p *sim.Proc, name string, kind hypervisor.BackendKind) (*hypervisor.VM, workload.ByteTarget, error) {
	return pl.newVM(p, name, hypervisor.VMConfig{Backend: kind, RawDevice: true})
}

// newVM boots the guest cfg describes and wraps its disk as a workload target.
func (pl *Platform) newVM(p *sim.Proc, name string, cfg hypervisor.VMConfig) (*hypervisor.VM, workload.ByteTarget, error) {
	vm, err := pl.Hyp.NewVM(p, name, cfg)
	if err != nil {
		return nil, nil, err
	}
	return vm, NewVMRawTarget(vm.Kernel), nil
}

// fan is a set of tenant processes started on one platform.
type fan struct {
	eng *sim.Engine
	wg  *sim.WaitGroup
	err error
}

// fanOut starts an empty set of tenant processes.
func (pl *Platform) fanOut() *fan { return &fan{eng: pl.Eng, wg: sim.NewWaitGroup(pl.Eng)} }

// Go starts fn as a process of its own, at once: a tenant started while the
// next is still being provisioned runs concurrently with that.
func (f *fan) Go(name string, fn func(q *sim.Proc) error) {
	f.wg.Add(1)
	f.eng.Go(name, func(q *sim.Proc) {
		defer f.wg.Done()
		if err := fn(q); err != nil && f.err == nil {
			f.err = err
		}
	})
}

// Wait parks p until every process started so far has returned, and reports
// the first error in virtual-time order.
func (f *fan) Wait(p *sim.Proc) error {
	f.wg.WaitFor(p)
	return f.err
}
