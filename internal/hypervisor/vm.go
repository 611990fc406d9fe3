package hypervisor

import (
	"fmt"

	"nesc/internal/extfs"
	"nesc/internal/guest"
	"nesc/internal/sim"
	"nesc/internal/virtio"
)

// BackendKind selects the storage virtualization method (paper Fig. 1).
type BackendKind int

const (
	// BackendDirect assigns a NeSC virtual function to the guest.
	BackendDirect BackendKind = iota
	// BackendVirtio uses the paravirtual virtio-blk path.
	BackendVirtio
	// BackendEmulation uses full device emulation (trapped PIO).
	BackendEmulation
)

func (k BackendKind) String() string {
	switch k {
	case BackendDirect:
		return "nesc"
	case BackendVirtio:
		return "virtio"
	case BackendEmulation:
		return "emulation"
	default:
		return fmt.Sprintf("BackendKind(%d)", int(k))
	}
}

// virtioQueueSize is the virtqueue depth of every virtio-blk guest (QEMU's
// default).
const virtioQueueSize = 128

// VMConfig describes one guest and its virtual disk.
type VMConfig struct {
	Backend BackendKind
	// DiskPath is the host-filesystem file backing the virtual disk.
	// Ignored when RawDevice is set.
	DiskPath string
	// RawDevice backs the disk with the raw physical device instead of a
	// file: identity-mapped VF for BackendDirect, the PF for the others
	// (the configuration of the paper's raw-device experiments, §VII-A).
	RawDevice bool
	// UID is the tenant identity the hypervisor enforces on DiskPath.
	UID uint32
	// VFRingEntries sizes each of the VF's rings (0 = the driver's default).
	// Only meaningful for BackendDirect.
	VFRingEntries int
	// IOWeight is the VF's QoS weight (0 = device default of 1). Only
	// meaningful for BackendDirect.
	IOWeight int
	// VFQueuePolicy steers submissions across the VF's queues (default
	// guest.PolicyHash). Only meaningful for BackendDirect.
	VFQueuePolicy guest.Policy
	// Device selects which fleet device hosts the VM's VF. Only meaningful
	// for BackendDirect.
	Device int
}

// Leg is one VF assigned to a VM: the fleet device hosting it, its index
// there, and the guest ring driver bound to it. Built only by AttachLeg.
type Leg struct {
	Dev   *Device
	VFIdx int
	Drv   *guest.NescDriver
}

// VM is a running guest.
type VM struct {
	Name   string
	H      *Hypervisor
	Kernel *guest.Kernel
	// Cfg is what the VM was built from: every leg is attached from it, a live
	// migration's new one included.
	Cfg VMConfig

	// Legs are the VM's assigned VFs: none for the software backends, one
	// the kernel drives directly for a direct-assigned VM, and any number
	// behind whatever block driver a feature built over them and handed the
	// kernel (a mirrored VM's legs span one fleet device each).
	Legs []Leg
}

// DirectLeg returns the one VF of a direct-assigned VM — what reset,
// snapshot, re-weighting and image migration act on. ok is false for the
// software backends and whenever the kernel does not drive the one leg itself
// (a mirrored VM, even with K = 1).
func (vm *VM) DirectLeg() (leg Leg, ok bool) {
	if len(vm.Legs) != 1 || vm.Kernel.Drv != vm.Legs[0].Drv {
		return Leg{}, false
	}
	return vm.Legs[0], true
}

// NewBareVM fills in what every kind of guest starts from: no legs, no
// kernel. NewVM goes on from here, and so does a feature that builds its own
// block driver over the legs it attaches (AttachLeg).
func (h *Hypervisor) NewBareVM(name string, cfg VMConfig) *VM {
	return &VM{Name: name, H: h, Cfg: cfg}
}

// NewVM builds a guest VM with the configured storage backend. The call
// performs the hypervisor-side setup (VF creation or device-model start) and
// the guest-side driver probe.
func (h *Hypervisor) NewVM(p *sim.Proc, name string, cfg VMConfig) (*VM, error) {
	vm := h.NewBareVM(name, cfg)
	// The software backends run against device 0's PF and host filesystem.
	d0 := h.devs[0]
	switch cfg.Backend {
	case BackendDirect:
		dev := h.Device(cfg.Device)
		if dev == nil {
			return nil, fmt.Errorf("hypervisor: no device %d", cfg.Device)
		}
		leg, err := h.AttachLeg(p, vm, dev)
		if err != nil {
			return nil, err
		}
		vm.Legs = []Leg{leg}
		vm.Kernel = guest.NewKernel(h.Eng, h.Mem, h.P.Guest, leg.Drv)

	case BackendVirtio:
		target, err := d0.targetFor(p, cfg)
		if err != nil {
			return nil, err
		}
		queueBase, err := h.Mem.Alloc(virtio.RingBytes(virtioQueueSize), 16)
		if err != nil {
			return nil, err
		}
		bk := &VioBackend{h: h, target: target, kicks: sim.NewSemaphore(h.Eng, 0), aio: sim.NewSemaphore(h.Eng, 16)}
		drv, err := guest.NewVirtioDriver(h.Eng, guest.VirtioDriverConfig{
			Mem:            h.Mem,
			Transport:      bk,
			QueueBase:      queueBase,
			QueueSize:      virtioQueueSize,
			CapacityBlocks: target.SizeBlocks(),
			BlockSize:      target.BlockSize(),
			SubmitTime:     h.P.Ring.SubmitTime,
		})
		if err != nil {
			return nil, err
		}
		bk.drv = drv
		bk.vq = drv.Virtqueue()
		h.Eng.Go("virtio-backend-"+name, bk.loop)
		vm.Kernel = guest.NewKernel(h.Eng, h.Mem, h.P.Guest, drv)

	case BackendEmulation:
		target, err := d0.targetFor(p, cfg)
		if err != nil {
			return nil, err
		}
		bk := &EmulBackend{h: h, target: target}
		drv := guest.NewEmulDriver(guest.EmulDriverConfig{
			Port:           bk,
			CapacityBlocks: target.SizeBlocks(),
			BlockSize:      target.BlockSize(),
			SubmitTime:     h.P.Ring.SubmitTime,
		})
		vm.Kernel = guest.NewKernel(h.Eng, h.Mem, h.P.Guest, drv)

	default:
		return nil, fmt.Errorf("hypervisor: unknown backend %v", cfg.Backend)
	}
	return vm, nil
}

// targetFor opens the backing store for a software backend on this device.
func (d *Device) targetFor(p *sim.Proc, cfg VMConfig) (HostTarget, error) {
	if cfg.RawDevice {
		return &rawPFTarget{d: d}, nil
	}
	f, err := d.HostFS.Open(p, cfg.DiskPath, cfg.UID, extfs.PermRead|extfs.PermWrite)
	if err != nil {
		return nil, fmt.Errorf("hypervisor: cannot open disk image: %w", err)
	}
	bs := uint64(d.Ctl.P.BlockSize)
	return &fileTarget{d: d, file: f, size: int64((f.Size() + bs - 1) / bs)}, nil
}

// AttachLeg is the only way a VF meets a driver: it exports vm's disk through
// a fresh VF of dev (the raw device or the image file, per the VM's config),
// programs its QoS weight, builds the guest ring driver on the VF's register
// page, routes the VF's completions to the guest and grants it DMA (the
// stand-in for mapping the guest's RAM at the IOMMU — the VF may DMA anywhere
// in the VM's shared-in-this-model memory). A failure undoes the steps already
// taken, so an error leaves no VF, route or grant behind.
func (h *Hypervisor) AttachLeg(p *sim.Proc, vm *VM, dev *Device) (Leg, error) {
	cfg := vm.Cfg
	var idx int
	var err error
	if cfg.RawDevice {
		idx, err = dev.CreateRawVF(p)
	} else {
		idx, err = dev.CreateVF(p, cfg.DiskPath, cfg.UID)
	}
	if err != nil {
		return Leg{}, err
	}
	leg := Leg{Dev: dev, VFIdx: idx}
	if cfg.IOWeight > 0 {
		dev.SetVFWeight(p, idx, cfg.IOWeight)
	}
	// The platform's ring settings, with this VM's ring shape and this VF's
	// attribution row: function index (0 = PF, VF idx + 1) is the row key the
	// device pipeline attributes the same tenant's requests to.
	ring := dev.ringConfig()
	ring.Entries, ring.Queues, ring.Policy = cfg.VFRingEntries, dev.Ctl.P.QueuesPerVF, cfg.VFQueuePolicy
	ring.Backoff = h.tel.AdmissionBackoff(idx + 1)
	leg.Drv, err = guest.NewNescDriver(p, h.Eng, guest.NescDriverConfig{
		Fab:             h.Fab,
		Mem:             h.Mem,
		PageBus:         dev.VFPageBus(idx),
		Ring:            ring,
		UseTrampoline:   !h.P.UseIOMMU,
		MemcpyBandwidth: h.P.Guest.MemcpyBandwidth,
		BlockSize:       dev.Ctl.P.BlockSize,
	})
	if err != nil {
		h.DetachLeg(p, leg)
		return Leg{}, err
	}
	dev.route(idx+1, leg.Drv.MQ(), true)
	if h.P.UseIOMMU {
		h.Fab.IOMMU().Grant(dev.Ctl.VF(idx).ID(), 0, h.Mem.Size())
	}
	return leg, nil
}

// DetachLeg reverses AttachLeg — drops the route and the DMA grant, destroys
// the VF (which also returns its queue leases to the device pool) — from
// whatever step AttachLeg reached.
func (h *Hypervisor) DetachLeg(p *sim.Proc, leg Leg) {
	fnID := leg.Dev.Ctl.VF(leg.VFIdx).ID()
	delete(h.qps, fnID)
	if h.P.UseIOMMU {
		h.Fab.IOMMU().RevokeAll(fnID)
	}
	leg.Dev.DestroyVF(p, leg.VFIdx)
}

// Teardown releases a VM's hypervisor-side resources (its VFs, if any).
func (vm *VM) Teardown(p *sim.Proc) {
	for _, leg := range vm.Legs {
		vm.H.DetachLeg(p, leg)
	}
	vm.Legs = nil
}
