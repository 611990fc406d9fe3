package nesc

import (
	"fmt"
	"io"

	"nesc/internal/extfs"
	"nesc/internal/hypervisor"
)

// VM is a running guest with a virtual disk.
type VM struct {
	name string
	vm   *hypervisor.VM
}

func backendKind(b Backend) (hypervisor.BackendKind, error) {
	switch b {
	case BackendNeSC:
		return hypervisor.BackendDirect, nil
	case BackendVirtio:
		return hypervisor.BackendVirtio, nil
	case BackendEmulation:
		return hypervisor.BackendEmulation, nil
	default:
		return 0, fmt.Errorf("nesc: unknown backend %q", b)
	}
}

// StartVM launches a guest whose virtual disk is the host file at diskPath,
// attached through the chosen backend on behalf of tenant uid. For
// BackendNeSC the hypervisor checks the tenant's filesystem permissions,
// translates the file's extent map into a device extent tree, and assigns
// the resulting virtual function directly to the guest. It is StartVMOn at
// device 0.
func (c *Ctx) StartVM(name string, backend Backend, diskPath string, uid uint32) (*VM, error) {
	return c.StartVMOn(0, name, backend, diskPath, uid)
}

// StartVMOn is StartVM with the guest's virtual function placed on fleet
// device dev (requires Config.Devices > dev and, for dev > 0, BackendNeSC —
// the software backends always run against device 0).
func (c *Ctx) StartVMOn(dev int, name string, backend Backend, diskPath string, uid uint32) (*VM, error) {
	kind, err := backendKind(backend)
	if err != nil {
		return nil, err
	}
	if _, err := c.device(dev); err != nil {
		return nil, err
	}
	if dev != 0 && kind != hypervisor.BackendDirect {
		return nil, fmt.Errorf("nesc: backend %q cannot be placed on device %d", backend, dev)
	}
	return c.startVM(name, hypervisor.VMConfig{Backend: kind, DiskPath: diskPath, UID: uid, Device: dev})
}

// StartRawVM launches a guest whose virtual disk is the raw physical device
// (the configuration of the paper's microbenchmarks: an identity-mapped VF
// for NeSC, the PF for virtio/emulation).
func (c *Ctx) StartRawVM(name string, backend Backend) (*VM, error) {
	kind, err := backendKind(backend)
	if err != nil {
		return nil, err
	}
	return c.startVM(name, hypervisor.VMConfig{Backend: kind, RawDevice: true})
}

func (c *Ctx) startVM(name string, cfg hypervisor.VMConfig) (*VM, error) {
	vm, err := c.s.pl.Hyp.NewVM(c.proc, name, cfg)
	if err != nil {
		return nil, err
	}
	return &VM{name: name, vm: vm}, nil
}

// device returns fleet device dev, or an error when the fleet has none.
func (c *Ctx) device(dev int) (*hypervisor.Device, error) {
	if d := c.s.pl.Hyp.Device(dev); d != nil {
		return d, nil
	}
	return nil, fmt.Errorf("nesc: no fleet device %d", dev)
}

// leg returns the VM's directly assigned virtual function, on the device
// that hosts it; what names the operation refused when the VM has none.
func (vm *VM) leg(what string) (hypervisor.Leg, error) {
	if leg, ok := vm.vm.DirectLeg(); ok {
		return leg, nil
	}
	return hypervisor.Leg{}, fmt.Errorf("nesc: VM %q has no virtual function to %s", vm.name, what)
}

// Name reports the VM name.
func (vm *VM) Name() string { return vm.name }

// Backend reports the storage virtualization method in use.
func (vm *VM) Backend() Backend { return Backend(vm.vm.Cfg.Backend.String()) }

// DiskSize reports the virtual disk size in bytes.
func (vm *VM) DiskSize() int64 {
	return vm.vm.Kernel.Drv.CapacityBlocks() * int64(vm.vm.Kernel.Drv.BlockSize())
}

// VFIndex reports the assigned virtual function on the VM's device (-1 for
// software backends and mirrored VMs).
func (vm *VM) VFIndex() int {
	if leg, ok := vm.vm.DirectLeg(); ok {
		return leg.VFIdx
	}
	return -1
}

// WriteAt writes p to the raw virtual disk at off, through the guest's full
// I/O stack and the backend's data path. The bytes genuinely land on the
// medium blocks the VF's extent tree maps.
func (vm *VM) WriteAt(c *Ctx, p []byte, off int64) error {
	return vm.vm.Kernel.WriteBytes(c.proc, off, p)
}

// ReadAt fills p from the raw virtual disk at off.
func (vm *VM) ReadAt(c *Ctx, p []byte, off int64) error {
	return vm.vm.Kernel.ReadBytes(c.proc, off, p)
}

// SetIOWeight programs the VM's QoS weight at the device (1..255): the NeSC
// DMA engine serves competing VFs in proportion to their weights (paper
// §IV-D). Only meaningful for BackendNeSC VMs.
func (vm *VM) SetIOWeight(c *Ctx, weight int) {
	if leg, ok := vm.vm.DirectLeg(); ok {
		leg.Dev.SetVFWeight(c.proc, leg.VFIdx, weight)
	}
}

// Reset performs a function-level reset of the VM's virtual function: the
// device aborts and drains the function's in-flight work, and the guest
// driver re-arms its rings. Parked submitters see their requests aborted and
// either resubmit (with a driver timeout configured) or fail with ErrReset.
// Only meaningful for BackendNeSC VMs.
func (vm *VM) Reset(c *Ctx) error {
	leg, err := vm.leg("reset")
	if err != nil {
		return err
	}
	return leg.Dev.ResetVF(c.proc, leg.VFIdx)
}

// Snapshot captures a copy-on-write snapshot of the VM's virtual disk at
// snapPath, owned by uid, while the VM keeps running. Unmodified blocks are
// shared; the guest's first write to each shared extent takes a device CoW
// fault that the hypervisor services transparently. Only meaningful for
// BackendNeSC VMs.
func (vm *VM) Snapshot(c *Ctx, snapPath string, uid uint32) error {
	leg, err := vm.leg("snapshot")
	if err != nil {
		return err
	}
	return leg.Dev.SnapshotVF(c.proc, leg.VFIdx, snapPath, uid)
}

// CloneVM snapshots src's virtual disk to clonePath and boots a fresh guest
// on the snapshot — a writable fork that shares every unmodified block with
// the parent, on the parent's device. Both VMs keep running; writes on
// either side trigger CoW breaks and never leak across.
func (c *Ctx) CloneVM(src *VM, name, clonePath string, uid uint32) (*VM, error) {
	leg, err := src.leg("clone")
	if err != nil {
		return nil, err
	}
	if err := leg.Dev.CloneVF(c.proc, leg.VFIdx, clonePath, uid); err != nil {
		return nil, err
	}
	return c.StartVMOn(leg.Dev.Idx, name, BackendNeSC, clonePath, uid)
}

// Stop tears the VM down, releasing its virtual function (if any).
func (vm *VM) Stop(c *Ctx) { vm.vm.Teardown(c.proc) }

// GuestFS is a guest filesystem mounted inside the VM's virtual disk — the
// nested-filesystem configuration of paper §IV-D.
type GuestFS struct {
	fs *extfs.FS
	vm *VM
}

// FormatFS creates a fresh guest filesystem on the virtual disk.
func (vm *VM) FormatFS(c *Ctx) (*GuestFS, error) {
	fs, err := vm.vm.Kernel.Mount(c.proc, true, extfs.Params{
		InodeCount: 1024, JournalBlocks: 128, Mode: extfs.JournalMetadata,
	})
	if err != nil {
		return nil, err
	}
	return &GuestFS{fs: fs, vm: vm}, nil
}

// MountFS mounts an existing guest filesystem from the virtual disk.
func (vm *VM) MountFS(c *Ctx) (*GuestFS, error) {
	fs, err := vm.vm.Kernel.Mount(c.proc, false, extfs.Params{})
	if err != nil {
		return nil, err
	}
	return &GuestFS{fs: fs, vm: vm}, nil
}

// GuestFile is an open file inside a guest filesystem.
type GuestFile struct {
	f *extfs.File
}

// Create makes a new guest file.
func (g *GuestFS) Create(c *Ctx, path string) (*GuestFile, error) {
	f, err := g.fs.Create(c.proc, path, 0, 0o644)
	if err != nil {
		return nil, err
	}
	return &GuestFile{f: f}, nil
}

// Open opens an existing guest file for read/write.
func (g *GuestFS) Open(c *Ctx, path string) (*GuestFile, error) {
	f, err := g.fs.Open(c.proc, path, 0, extfs.PermRead|extfs.PermWrite)
	if err != nil {
		return nil, err
	}
	return &GuestFile{f: f}, nil
}

// Mkdir creates a guest directory.
func (g *GuestFS) Mkdir(c *Ctx, path string) error {
	return g.fs.Mkdir(c.proc, path, 0, 0o755)
}

// Remove unlinks a guest file or empty directory.
func (g *GuestFS) Remove(c *Ctx, path string) error {
	return g.fs.Remove(c.proc, path, 0)
}

// List names a guest directory's entries.
func (g *GuestFS) List(c *Ctx, dir string) ([]string, error) {
	ents, err := g.fs.ReadDir(c.proc, dir, 0)
	if err != nil {
		return nil, err
	}
	names := make([]string, len(ents))
	for i, e := range ents {
		names[i] = e.Name
	}
	return names, nil
}

// Check runs the guest filesystem's consistency check.
func (g *GuestFS) Check(c *Ctx) error { return g.fs.Check(c.proc) }

// WriteAt writes p at off.
func (f *GuestFile) WriteAt(c *Ctx, p []byte, off int64) (int, error) {
	return f.f.WriteAt(c.proc, p, off)
}

// ReadAt reads into p at off; short reads at EOF return the count with a
// nil error.
func (f *GuestFile) ReadAt(c *Ctx, p []byte, off int64) (int, error) {
	n, err := f.f.ReadAt(c.proc, p, off)
	if err == io.EOF {
		err = nil
	}
	return n, err
}

// Size reports the file size.
func (f *GuestFile) Size() int64 { return int64(f.f.Size()) }

// Sync flushes the file (fsync).
func (f *GuestFile) Sync(c *Ctx) error { return f.f.Sync(c.proc) }
