package bench

import (
	"fmt"
	"io"

	"nesc/internal/extfs"
	"nesc/internal/guest"
	"nesc/internal/hypervisor"
	"nesc/internal/sim"
	"nesc/internal/workload"
)

// Backend names used as table columns (paper figure legends).
const (
	BackendHost = "Host"
	BackendNeSC = "NeSC"
	BackendVirt = "virtio"
	BackendEmul = "Emulation"
)

// RawBackends lists the raw-device configurations of Figures 9 and 10.
var RawBackends = []string{BackendEmul, BackendVirt, BackendNeSC, BackendHost}

// VMBackends lists the guest-visible configurations of Figure 12.
var VMBackends = []string{BackendEmul, BackendVirt, BackendNeSC}

func backendKind(name string) hypervisor.BackendKind {
	switch name {
	case BackendNeSC:
		return hypervisor.BackendDirect
	case BackendVirt:
		return hypervisor.BackendVirtio
	case BackendEmul:
		return hypervisor.BackendEmulation
	default:
		panic("bench: no VM backend named " + name)
	}
}

// vmRawTarget is a workload.ByteTarget over a guest kernel's raw virtual
// disk.
type vmRawTarget struct {
	k       *guest.Kernel
	buf     guest.Buffer
	scratch []byte
}

// NewVMRawTarget wraps a guest kernel's block device for raw workloads.
func NewVMRawTarget(k *guest.Kernel) workload.ByteTarget {
	return &vmRawTarget{k: k}
}

func (t *vmRawTarget) Size() int64 {
	return t.k.Drv.CapacityBlocks() * int64(t.k.Drv.BlockSize())
}

func (t *vmRawTarget) aligned(off int64, n int) bool {
	bs := int64(t.k.Drv.BlockSize())
	return off%bs == 0 && int64(n)%bs == 0
}

func (t *vmRawTarget) ReadAt(p *sim.Proc, off int64, n int) error {
	if t.aligned(off, n) {
		return t.k.SubmitAligned(p, false, off/int64(t.k.Drv.BlockSize()), t.buf.Ensure(t.k.Mem, n))
	}
	if len(t.scratch) < n {
		t.scratch = make([]byte, n)
	}
	return t.k.ReadBytes(p, off, t.scratch[:n])
}

func (t *vmRawTarget) WriteAt(p *sim.Proc, off int64, n int) error {
	if t.aligned(off, n) {
		return t.k.SubmitAligned(p, true, off/int64(t.k.Drv.BlockSize()), t.buf.Ensure(t.k.Mem, n))
	}
	if len(t.scratch) < n {
		t.scratch = make([]byte, n)
	}
	return t.k.WriteBytes(p, off, t.scratch[:n])
}

func (t *vmRawTarget) Sync(*sim.Proc) error { return nil }

// hostRawTarget is the paper's baseline: the hypervisor accessing the PF
// block device directly, no virtualization layer.
type hostRawTarget struct {
	disk    *hypervisor.PFDisk
	bs      int
	scratch []byte
}

// NewHostRawTarget wraps device d's PF for host-baseline workloads.
func NewHostRawTarget(d *hypervisor.Device) workload.ByteTarget {
	return &hostRawTarget{disk: d.Disk(), bs: d.Ctl.P.BlockSize}
}

func (t *hostRawTarget) Size() int64 {
	return t.disk.NumBlocks() * int64(t.bs)
}

func (t *hostRawTarget) span(off int64, n int) (int64, int) {
	first := off / int64(t.bs)
	last := (off + int64(n) - 1) / int64(t.bs)
	return first, int(last-first+1) * t.bs
}

func (t *hostRawTarget) ReadAt(p *sim.Proc, off int64, n int) error {
	lba, bytes := t.span(off, n)
	if len(t.scratch) < bytes {
		t.scratch = make([]byte, bytes)
	}
	return t.disk.ReadBlocks(p, lba, t.scratch[:bytes])
}

func (t *hostRawTarget) WriteAt(p *sim.Proc, off int64, n int) error {
	lba, bytes := t.span(off, n)
	if len(t.scratch) < bytes {
		t.scratch = make([]byte, bytes)
	}
	// Sub-block writes read-modify-write, as the host block layer would.
	if bytes != n {
		if err := t.disk.ReadBlocks(p, lba, t.scratch[:bytes]); err != nil {
			return err
		}
	}
	return t.disk.WriteBlocks(p, lba, t.scratch[:bytes])
}

func (t *hostRawTarget) Sync(*sim.Proc) error { return nil }

// fileTarget adapts an extfs file (guest or host filesystem alike).
type fileTarget struct {
	f       *extfs.File
	scratch []byte
}

// NewFileTarget wraps an open extfs file for workloads.
func NewFileTarget(f *extfs.File) workload.ByteTarget { return &fileTarget{f: f} }

func (t *fileTarget) buf(n int) []byte {
	if len(t.scratch) < n {
		t.scratch = make([]byte, n)
	}
	return t.scratch[:n]
}

func (t *fileTarget) Size() int64 { return int64(t.f.Size()) }

func (t *fileTarget) ReadAt(p *sim.Proc, off int64, n int) error {
	_, err := t.f.ReadAt(p, t.buf(n), off)
	if err == io.EOF {
		err = nil
	}
	return err
}

func (t *fileTarget) WriteAt(p *sim.Proc, off int64, n int) error {
	_, err := t.f.WriteAt(p, t.buf(n), off)
	return err
}

func (t *fileTarget) Sync(p *sim.Proc) error { return t.f.Sync(p) }

// fsAdapter exposes an extfs instance as a workload.FS under one tenant uid.
type fsAdapter struct {
	fs  *extfs.FS
	uid uint32
}

// NewWorkloadFS adapts an extfs for the file workloads.
func NewWorkloadFS(fs *extfs.FS, uid uint32) workload.FS {
	return &fsAdapter{fs: fs, uid: uid}
}

func (a *fsAdapter) Create(p *sim.Proc, name string) (workload.ByteTarget, error) {
	f, err := a.fs.Create(p, name, a.uid, 0o644)
	if err != nil {
		return nil, err
	}
	return NewFileTarget(f), nil
}

func (a *fsAdapter) Open(p *sim.Proc, name string) (workload.ByteTarget, error) {
	f, err := a.fs.Open(p, name, a.uid, extfs.PermRead|extfs.PermWrite)
	if err != nil {
		return nil, err
	}
	return NewFileTarget(f), nil
}

func (a *fsAdapter) Remove(p *sim.Proc, name string) error {
	return a.fs.Remove(p, name, a.uid)
}

// RawTarget builds the raw-device view for a named backend on pl, creating
// the VM (or nothing, for Host). NeSC maps a preallocated host file of
// fileBlocks blocks as a VF, exactly as the paper's raw experiments do; virtio
// and emulation map the PF itself.
func (pl *Platform) RawTarget(p *sim.Proc, backend string, fileBlocks uint64) (tgt workload.ByteTarget, err error) {
	switch backend {
	case BackendHost:
		tgt = NewHostRawTarget(pl.Hyp.Device(0))
	case BackendNeSC:
		_, tgt, err = pl.directVM(p, "raw-nesc", "/vfdisk.img", 1, fileBlocks, false)
	case BackendVirt, BackendEmul:
		_, tgt, err = pl.rawDeviceVM(p, "raw-"+backend, backendKind(backend))
	default:
		err = fmt.Errorf("bench: unknown backend %q", backend)
	}
	return tgt, err
}
