package hypervisor

import (
	"nesc/internal/cas"
	"nesc/internal/core"
	"nesc/internal/extent"
	"nesc/internal/extfs"
	"nesc/internal/guest"
	"nesc/internal/pcie"
	"nesc/internal/sim"
)

// Device is the hypervisor's per-controller management state. The original
// single-controller hypervisor owned one NeSC device implicitly; a fabric
// hypervisor manages a fleet, each device carrying its own host filesystem,
// PF ring driver, VF table, and shared extent trees. Device 0 is the
// primary: every historical Hypervisor method operates on it, so
// single-device platforms behave (and schedule events) exactly as before.
type Device struct {
	h   *Hypervisor
	Idx int
	Ctl *core.Controller

	HostFS *extfs.FS
	pfQP   *guest.MultiQueue

	// vfs/missBusy/vfLocks are lazy tables: nil (or short) until a VF is
	// first touched, so configuring NumVFs=1024 costs nothing until tenants
	// actually arrive. Grown only by vf()/lockVF()/missBusyRef(); iteration
	// sites nil-skip.
	vfs   []*vfState
	trees map[string]*sharedTree
	// casBindings maps device paths to their cas-fork manifests; casCache is
	// this device's local chunk cache (see cas.go). Both nil until the
	// content-addressed tier is used on this device.
	casBindings map[string]*casBinding
	casCache    *cas.Cache
	// missBusy marks VFs whose latched miss is already being serviced, so
	// duplicate miss interrupts are idempotent (see serviceMisses).
	missBusy []bool
	// vfLocks serialize management operations on one VF — ResetVF racing
	// SnapshotVF/MigrateVFFile/miss service must not interleave tree
	// rebuilds with FLR teardown. Binary semaphores; uncontended
	// acquisition is synchronous and schedule-neutral.
	vfLocks []*sim.Semaphore
}

func newDevice(h *Hypervisor, idx int, ctl *core.Controller) *Device {
	return &Device{
		h:     h,
		Idx:   idx,
		Ctl:   ctl,
		trees: make(map[string]*sharedTree),
	}
}

// vf returns VF idx's management slot, materializing it (and any gap before
// it) on first touch.
func (d *Device) vf(idx int) *vfState {
	for len(d.vfs) <= idx {
		d.vfs = append(d.vfs, nil)
	}
	if d.vfs[idx] == nil {
		d.vfs[idx] = &vfState{}
	}
	return d.vfs[idx]
}

// vfAt returns VF idx's slot without materializing it; nil when the VF has
// never been touched.
func (d *Device) vfAt(idx int) *vfState {
	if idx < 0 || idx >= len(d.vfs) {
		return nil
	}
	return d.vfs[idx]
}

// missBusyRef returns a pointer to VF idx's miss-service busy flag, growing
// the lazy table on demand.
func (d *Device) missBusyRef(idx int) *bool {
	for len(d.missBusy) <= idx {
		d.missBusy = append(d.missBusy, false)
	}
	return &d.missBusy[idx]
}

// AddDevice attaches an additional NeSC controller to the hypervisor's
// fleet. Call after New and before Boot; the controller must live on the
// same PCIe fabric. Returns the new device (index len-1).
func (h *Hypervisor) AddDevice(ctl *core.Controller) *Device {
	d := newDevice(h, len(h.devs), ctl)
	h.devs = append(h.devs, d)
	h.devByPF[ctl.PF().ID()] = d
	if h.P.UseIOMMU {
		h.Fab.IOMMU().Grant(ctl.PF().ID(), 0, h.Mem.Size())
	}
	return d
}

// Device returns device idx of the fleet (0 = primary).
func (h *Hypervisor) Device(idx int) *Device { return h.devs[idx] }

// Devices returns the managed fleet, primary first.
func (h *Hypervisor) Devices() []*Device { return h.devs }

// NumDevices reports the fleet size.
func (h *Hypervisor) NumDevices() int { return len(h.devs) }

// lockVF acquires a VF's management lock, reporting whether it had to wait
// (a contended acquisition means another management operation ran in
// between, so cached device state must be re-read).
func (d *Device) lockVF(p *sim.Proc, idx int) bool {
	for len(d.vfLocks) <= idx {
		d.vfLocks = append(d.vfLocks, nil)
	}
	if d.vfLocks[idx] == nil {
		d.vfLocks[idx] = sim.NewSemaphore(d.h.Eng, 1)
	}
	contended := d.vfLocks[idx].Available() == 0
	d.vfLocks[idx].Acquire(p)
	return contended
}

func (d *Device) unlockVF(idx int) { d.vfLocks[idx].Release() }

// bootDevice programs a device's PF rings and formats (or mounts) its host
// filesystem — the per-device half of Hypervisor.Boot.
func (d *Device) bootDevice(p *sim.Proc, format bool, fsParams extfs.Params) error {
	h := d.h
	mq, err := guest.NewMultiQueue(p, h.Eng, h.Mem, h.Fab,
		d.Ctl.BARBase()+d.Ctl.FunctionPageOffset(0), 1, h.P.PFRingEntries, h.P.DriverSubmitTime)
	if err != nil {
		return err
	}
	// The PF driver needs the same timeout recovery as the guests: a dropped
	// PF completion would otherwise wedge the host filesystem (and with it the
	// miss handler) forever.
	mq.SetRecovery(h.P.VFRequestTimeout, h.P.VFRetryMax)
	if !h.P.DisablePI {
		mq.SetPI(d.Ctl.P.BlockSize)
	}
	d.pfQP = mq
	h.route(d.Ctl.PF().ID(), mq)
	disk := d.Disk()
	fsParams.OpCost = h.P.HostFSOpCost
	if format {
		d.HostFS, err = extfs.Format(p, disk, fsParams)
	} else {
		d.HostFS, err = extfs.Mount(p, disk, h.P.HostFSOpCost)
	}
	return err
}

// Disk returns the host block-device view of this device's physical
// function.
func (d *Device) Disk() *PFDisk { return &PFDisk{d: d} }

// FS returns the device's host filesystem (nil before Boot).
func (d *Device) FS() *extfs.FS { return d.HostFS }

// MkImage creates a disk image on this device's host filesystem,
// preallocated unless sparse is set — replica images for mirrored VFs are
// created per device.
func (d *Device) MkImage(p *sim.Proc, path string, uid uint32, blocks uint64, sparse bool) error {
	f, err := d.HostFS.Create(p, path, uid, 0o600)
	if err != nil {
		return err
	}
	if err := f.Truncate(p, blocks*uint64(d.Ctl.P.BlockSize)); err != nil {
		return err
	}
	if sparse {
		return nil
	}
	return d.HostFS.AllocateRange(p, path, 0, blocks)
}

// Compatibility wrappers: the historical single-device Hypervisor API
// operates on the primary device. Multi-device callers address a Device
// directly.

// CreateVF exports a host file through a VF of the primary device; see
// Device.CreateVF.
func (h *Hypervisor) CreateVF(p *sim.Proc, path string, uid uint32) (int, error) {
	return h.devs[0].CreateVF(p, path, uid)
}

// CreateRawVF exports the primary device's whole LBA space; see
// Device.CreateRawVF.
func (h *Hypervisor) CreateRawVF(p *sim.Proc) (int, error) { return h.devs[0].CreateRawVF(p) }

// DestroyVF disables a primary-device VF; see Device.DestroyVF.
func (h *Hypervisor) DestroyVF(p *sim.Proc, idx int) { h.devs[0].DestroyVF(p, idx) }

// QueuePoolStatus reads the primary device's tenancy gauges through the PF
// register file: queue pairs currently leased from the device-wide pool and
// VFs with materialized device state. Because MMIO reads are non-posted,
// the read also flushes any posted configuration writes (VF disables) still
// propagating — use it to observe pool state right after a deprovision.
func (h *Hypervisor) QueuePoolStatus(p *sim.Proc) (leased, materialized int) {
	d := h.devs[0]
	base := d.Ctl.BARBase()
	leased = int(h.mmioR(p, base+core.PFRegQueuesInUse))
	materialized = int(h.mmioR(p, base+core.PFRegMaterializedVFs))
	return leased, materialized
}

// VFPageBus reports a primary-device VF's register page bus address.
func (h *Hypervisor) VFPageBus(idx int) int64 { return h.devs[0].VFPageBus(idx) }

// VFTree exposes a primary-device VF's extent tree.
func (h *Hypervisor) VFTree(idx int) *extent.Tree { return h.devs[0].VFTree(idx) }

// SharesTreeWith reports whether two primary-device VFs share one tree.
func (h *Hypervisor) SharesTreeWith(a, b int) bool { return h.devs[0].SharesTreeWith(a, b) }

// PruneVFTrees prunes the primary device's in-use trees.
func (h *Hypervisor) PruneVFTrees(maxNodes int) int { return h.devs[0].PruneVFTrees(maxNodes) }

// ResetVF function-level-resets a primary-device VF; see Device.ResetVF.
func (h *Hypervisor) ResetVF(p *sim.Proc, idx int) error { return h.devs[0].ResetVF(p, idx) }

// RegenerateVFTree rebuilds a primary-device VF's tree from its file.
func (h *Hypervisor) RegenerateVFTree(p *sim.Proc, idx int) error {
	return h.devs[0].RegenerateVFTree(p, idx)
}

// MigrateVFFile relocates a primary-device VF's physical blocks.
func (h *Hypervisor) MigrateVFFile(p *sim.Proc, idx int, flushBTLB bool) error {
	return h.devs[0].MigrateVFFile(p, idx, flushBTLB)
}

// SetVFWeight programs a primary-device VF's QoS weight.
func (h *Hypervisor) SetVFWeight(p *sim.Proc, idx int, weight int) {
	h.devs[0].SetVFWeight(p, idx, weight)
}

// RouteVFInterrupts routes a primary-device VF's completions to mq.
func (h *Hypervisor) RouteVFInterrupts(idx int, mq *guest.MultiQueue) {
	h.devs[0].RouteVFInterrupts(idx, mq)
}

// FlushBTLB invalidates the primary device's translation cache.
func (h *Hypervisor) FlushBTLB(p *sim.Proc) { h.devs[0].FlushBTLB(p) }

// SnapshotVF snapshots a primary-device VF's backing file.
func (h *Hypervisor) SnapshotVF(p *sim.Proc, idx int, dstPath string, uid uint32) error {
	return h.devs[0].SnapshotVF(p, idx, dstPath, uid)
}

// SnapshotFile snapshots an arbitrary primary-device host file.
func (h *Hypervisor) SnapshotFile(p *sim.Proc, path, dstPath string, uid uint32) error {
	return h.devs[0].SnapshotFile(p, path, dstPath, uid)
}

// CloneToNewVF forks a primary-device VF's disk through a fresh VF.
func (h *Hypervisor) CloneToNewVF(p *sim.Proc, idx int, clonePath string, uid uint32) (int, error) {
	return h.devs[0].CloneToNewVF(p, idx, clonePath, uid)
}

// DeleteSnapshot removes a primary-device snapshot file.
func (h *Hypervisor) DeleteSnapshot(p *sim.Proc, path string, uid uint32) error {
	return h.devs[0].DeleteSnapshot(p, path, uid)
}

// fnIndexOfDev maps a routing ID to (device, function index) across the
// fleet; ok is false for IDs no managed controller owns. Uses the
// controller's reverse map, so the cost is O(devices), not O(configured
// VFs), and no VF is materialized by the lookup.
func (h *Hypervisor) fnIndexOfDev(id pcie.FnID) (*Device, int, bool) {
	for _, d := range h.devs {
		if i, ok := d.Ctl.FnIndex(id); ok {
			return d, i, true
		}
	}
	return nil, -1, false
}
