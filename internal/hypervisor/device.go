package hypervisor

import (
	"errors"

	"nesc/internal/core"
	"nesc/internal/extfs"
	"nesc/internal/guest"
	"nesc/internal/ring"
	"nesc/internal/sim"
)

// Device is the hypervisor's per-controller management state: each device of
// the fleet carries its own host filesystem, PF ring driver, per-VF records,
// and shared extent trees. Host-side code either names the device it acts on
// or loops over Hypervisor.Devices.
type Device struct {
	h   *Hypervisor
	Idx int
	Ctl *core.Controller

	HostFS *extfs.FS
	pfQP   *guest.MultiQueue

	// vfs is the lazy per-VF table: nil (or short) until a VF is first
	// touched, so configuring NumVFs=1024 costs nothing until tenants
	// actually arrive. Grown only by vf(); iteration sites nil-skip.
	vfs   []*vfState
	trees map[string]*sharedTree
	// Fetch maps a host path to the source of its content: a VF created over a
	// bound path runs fetch-backed (MgmtFetch). Whoever owns the content binds
	// and unbinds the path.
	Fetch map[string]FetchSource
}

// FetchSource stands behind a fetch-backed export, whose holes hold content
// that lives somewhere else until first touched. The device raises
// MissReasonFetch for such a hole and the miss handler calls Materialize, which
// writes the content of blocks [blk, blk+n) into the file at path on dev
// (leaving alone a block that already has an extent) before the walk is
// released. vf is the faulting VF's index on dev and op ("read"/"write") the
// stalled request's direction, for whoever attributes the wait.
type FetchSource interface {
	Materialize(p *sim.Proc, dev *Device, vf int, path string, blk, n uint64, op string) error
}

// vf returns VF idx's record, materializing it (and any gap before it) on
// first touch.
func (d *Device) vf(idx int) *vfState {
	for len(d.vfs) <= idx {
		d.vfs = append(d.vfs, nil)
	}
	if d.vfs[idx] == nil {
		d.vfs[idx] = &vfState{lock: sim.NewSemaphore(d.h.Eng, 1)}
	}
	return d.vfs[idx]
}

// vfAt returns VF idx's record without materializing it; nil when the VF has
// never been touched.
func (d *Device) vfAt(idx int) *vfState {
	if idx < 0 || idx >= len(d.vfs) {
		return nil
	}
	return d.vfs[idx]
}

// AddDevice attaches a NeSC controller to the hypervisor's fleet. Call after
// New and before Boot; the controller must live on the same PCIe fabric.
// Returns the new device (index len-1).
func (h *Hypervisor) AddDevice(ctl *core.Controller) *Device {
	d := &Device{h: h, Idx: len(h.devs), Ctl: ctl, trees: make(map[string]*sharedTree), Fetch: make(map[string]FetchSource)}
	h.devs = append(h.devs, d)
	h.devByPF[ctl.PF().ID()] = d
	if h.P.UseIOMMU {
		// The PF (device master) may reach all host memory: it DMAs extent
		// trees, PF rings, and backend buffers on the hypervisor's behalf.
		h.Fab.IOMMU().Grant(ctl.PF().ID(), 0, h.Mem.Size())
	}
	return d
}

// Device returns device idx of the fleet, nil when the fleet has no such
// device.
func (h *Hypervisor) Device(idx int) *Device {
	if idx < 0 || idx >= len(h.devs) {
		return nil
	}
	return h.devs[idx]
}

// Devices returns the managed fleet in index order.
func (h *Hypervisor) Devices() []*Device { return h.devs }

// NumDevices reports the fleet size.
func (h *Hypervisor) NumDevices() int { return len(h.devs) }

// ringConfig is the platform's ring settings as a client of this device starts
// from them: the shared policy fields of Params.Ring, protection information
// (when on) at this device's block size, and the per-client fields — ring
// shape and attribution row — left zero for the caller to fill.
func (d *Device) ringConfig() guest.RingConfig {
	r := d.h.P.Ring
	cfg := guest.RingConfig{SubmitTime: r.SubmitTime, Timeout: r.Timeout, RetryMax: r.RetryMax, Deadline: r.Deadline}
	if r.PIBlock != 0 {
		cfg.PIBlock = d.Ctl.P.BlockSize
	}
	return cfg
}

// boot programs a device's PF rings and formats (or mounts) its host
// filesystem — the per-device half of Hypervisor.Boot.
func (d *Device) boot(p *sim.Proc, format bool, fsParams extfs.Params) error {
	h := d.h
	// The PF driver takes the guests' settings, timeout recovery included: a
	// dropped PF completion would otherwise wedge the host filesystem (and
	// with it the miss handler) forever. One queue, its own ring depth, and no
	// deadline budget.
	cfg := d.ringConfig()
	cfg.Entries, cfg.Queues, cfg.Deadline = pfRingEntries, 1, 0
	mq, err := guest.NewMultiQueue(p, h.Eng, h.Mem, h.Fab, d.Ctl.BARBase()+d.Ctl.FunctionPageOffset(0), cfg)
	if err != nil {
		return err
	}
	d.pfQP = mq
	d.route(0, mq, false)
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

// MkImage creates a disk image of the given block count on this device's
// host filesystem, preallocated unless sparse is set. It is the one image
// creator: a mirrored VM needs its image made on every device it spans. An
// image that cannot be made whole is removed again, so the call can be retried.
func (d *Device) MkImage(p *sim.Proc, path string, uid uint32, blocks uint64, sparse bool) error {
	f, err := d.HostFS.Create(p, path, uid, 0o600)
	if err != nil {
		return err
	}
	err = f.Truncate(p, blocks*uint64(d.Ctl.P.BlockSize))
	if err == nil && !sparse {
		err = d.HostFS.AllocateRange(p, path, 0, blocks)
	}
	if err != nil {
		return errors.Join(err, d.HostFS.Remove(p, path, uid))
	}
	return nil
}

// QueuePoolStatus reads the device's tenancy gauges through the PF register
// file: queue pairs currently leased from the device-wide pool and VFs with
// materialized device state. Because MMIO reads are non-posted, the read also
// flushes any posted configuration writes (VF disables) still propagating —
// use it to observe pool state right after a deprovision.
func (d *Device) QueuePoolStatus(p *sim.Proc) (leased, materialized int) {
	base := d.Ctl.BARBase()
	leased = int(d.h.mmioR(p, base+ring.PFRegQueuesInUse))
	materialized = int(d.h.mmioR(p, base+ring.PFRegMaterializedVFs))
	return leased, materialized
}
