package fabric

import (
	"errors"
	"fmt"
	"slices"

	"nesc/internal/core"
	"nesc/internal/extfs"
	"nesc/internal/guest"
	"nesc/internal/hypervisor"
	"nesc/internal/sim"
)

// Mirrored VMs: one guest kernel driving a mirror client over VFs on several
// fleet devices. Each leg is an ordinary file-backed VF on its own device
// (with its own copy of the disk image), attached through the hypervisor's
// exported steps (NewBareVM, AttachLeg, DetachLeg); the client fans writes out
// to all of them and fails over reads. The device models and the hypervisor
// are untouched — mirroring is purely a host-side construction, like md over
// two PCIe SSDs.

// Fleet holds the mirrored VMs of one hypervisor. Whoever creates mirrored VMs
// keeps them: reviving a device, summing the clients' counters and migrating a
// leg start from this list, in creation order.
type Fleet struct {
	hyp *hypervisor.Hypervisor
	tel core.Sinks
	vms []*hypervisor.VM

	// Migrations counts completed live VF migrations; LastMigration keeps the
	// most recent report.
	Migrations    int64
	LastMigration MigrationReport
}

// NewFleet returns an empty fleet over h; the clients it builds report to tel.
func NewFleet(h *hypervisor.Hypervisor, tel core.Sinks) *Fleet {
	return &Fleet{hyp: h, tel: tel}
}

// ClientOf returns the mirror client vm's kernel drives; nil when vm is not a
// mirrored VM.
func ClientOf(vm *hypervisor.VM) *Client {
	c, _ := vm.Kernel.Drv.(*Client)
	return c
}

// NewMirroredVM builds a direct-assigned guest whose virtual disk is
// synchronously mirrored across one VF per listed fleet device. The disk
// image at cfg.DiskPath must already exist on every listed device's host
// filesystem with identical size. The guest sees a single block device; K-1
// device losses are survivable, which is why a device may be listed only
// once. When a leg cannot be attached the legs already attached are detached
// again.
func (f *Fleet) NewMirroredVM(p *sim.Proc, name string, cfg hypervisor.VMConfig, devices []int, fcfg Config) (*hypervisor.VM, error) {
	if cfg.Backend != hypervisor.BackendDirect {
		return nil, fmt.Errorf("fabric: mirrored VMs require BackendDirect")
	}
	if cfg.RawDevice {
		return nil, fmt.Errorf("fabric: mirrored VMs require a file-backed disk")
	}
	if len(devices) == 0 {
		return nil, fmt.Errorf("fabric: mirrored VM needs at least one device")
	}
	for i, di := range devices {
		if slices.Contains(devices[:i], di) {
			// A second leg on the same device would share the first leg's
			// tree: K legs reported over one physical copy.
			return nil, fmt.Errorf("fabric: device %d listed twice: every mirror leg needs its own device", di)
		}
	}
	h := f.hyp
	vm := h.NewBareVM(name, cfg)
	fail := func(err error) (*hypervisor.VM, error) {
		vm.Teardown(p)
		return nil, err
	}
	reps := make([]*Replica, 0, len(devices))
	for _, di := range devices {
		dev := h.Device(di)
		if dev == nil {
			return fail(fmt.Errorf("fabric: no device %d", di))
		}
		leg, err := h.AttachLeg(p, vm, dev)
		if err != nil {
			return fail(fmt.Errorf("fabric: mirror leg on device %d: %w", di, err))
		}
		vm.Legs = append(vm.Legs, leg)
		reps = append(reps, NewReplica(di, leg.Drv))
	}
	// Fabric-level events and attribution report against the tenant's
	// first-leg function index (VF idx + 1) — the stable identity of the
	// mirrored disk, matching the device pipeline's row key.
	client, err := NewClient(h.Eng, h.Mem, fcfg, reps, f.tel, vm.Legs[0].VFIdx+1)
	if err != nil {
		return fail(err)
	}
	vm.Kernel = guest.NewKernel(h.Eng, h.Mem, h.P.Guest, client)
	f.vms = append(f.vms, vm)
	return vm, nil
}

// live lists the fleet's VMs that still have their legs, forgetting the ones
// torn down since the last call.
func (f *Fleet) live() []*hypervisor.VM {
	f.vms = slices.DeleteFunc(f.vms, func(vm *hypervisor.VM) bool { return len(vm.Legs) == 0 })
	return f.vms
}

// Revive tells every mirrored VM's client that a fenced device is back
// (Failed → Rebuilding, resilver starts). Pair with the fault injector's
// device revive.
func (f *Fleet) Revive(dev int) {
	for _, vm := range f.live() {
		ClientOf(vm).Revive(dev)
	}
}

// FleetStats aggregates mirror-client counters across every mirrored VM.
type FleetStats struct {
	Clients int
	Counters
}

// Stats sums the counters of every mirror client.
func (f *Fleet) Stats() FleetStats {
	var fs FleetStats
	for _, vm := range f.live() {
		fs.Clients++
		fs.Add(&ClientOf(vm).Counters)
	}
	return fs
}

// MigrationReport summarizes one live VF migration.
type MigrationReport struct {
	// BulkBlocks is the frozen-snapshot bulk copy's size.
	BulkBlocks int64
	// Passes / PassBlocks count the iterative pre-copy rounds over regions
	// dirtied while the guest kept writing.
	Passes     int
	PassBlocks int64
	// PauseBlocks is the final stop-and-copy pass's size and Pause the
	// guest-visible submission gap it cost.
	PauseBlocks int64
	Pause       sim.Time
	// Total is end-to-end migration time.
	Total sim.Time
}

// migRegionBlocks is the migration dirty log's granularity.
const migRegionBlocks = 64

// migMaxPasses bounds the iterative pre-copy: after this many rounds the
// migration stops-and-copies whatever is left, bounding the pause instead
// of chasing a write-heavy guest forever.
const migMaxPasses = 6

// migStopCopyRegions is the convergence threshold: when a pass leaves this
// few dirty regions, the next copy happens inside the pause window.
const migStopCopyRegions = 8

// Migrate live-migrates mirror leg slot of a mirrored VM to fleet device
// dstIdx: CoW-snapshot the source image, bulk-copy it to the destination's
// filesystem while the guest keeps running, chase dirtied regions in
// bounded pre-copy passes, then pause submissions, copy the remainder,
// atomically retarget the mirror leg to a fresh VF on the destination, and
// resume. Acknowledged writes are never lost: every post-snapshot write is
// either caught by a pass or copied inside the pause window. A migration that
// fails leaves the VM on its old legs and nothing of itself behind, so it can
// be tried again.
func (f *Fleet) Migrate(p *sim.Proc, vm *hypervisor.VM, slot, dstIdx int) (MigrationReport, error) {
	var rep MigrationReport
	h, client := f.hyp, ClientOf(vm)
	if client == nil {
		return rep, fmt.Errorf("fabric: %s is not a mirrored VM", vm.Name)
	}
	if slot < 0 || slot >= len(vm.Legs) {
		return rep, fmt.Errorf("fabric: %s has no mirror leg %d", vm.Name, slot)
	}
	leg := &vm.Legs[slot]
	src, dst := leg.Dev, h.Device(dstIdx)
	if dst == nil {
		return rep, fmt.Errorf("fabric: no device %d", dstIdx)
	}
	for _, other := range vm.Legs {
		if other.Dev == dst {
			return rep, fmt.Errorf("fabric: device %d already mirrors %s", dstIdx, vm.Name)
		}
	}
	path, uid := vm.Cfg.DiskPath, vm.Cfg.UID
	snapPath := path + ".migrating"
	bs := uint64(dst.Ctl.P.BlockSize)
	start := p.Now()

	// Arm dirty tracking before freezing the image so no write acknowledged
	// after the snapshot point can slip between snapshot and tracking.
	dlog := client.TrackDirty(migRegionBlocks)
	defer client.StopTracking()

	// fail undoes, newest first, whatever the migration has reached — the
	// pause, the target image, the source snapshot — and reports err with
	// anything the rollback itself could not do.
	var snapped, imaged, paused bool
	fail := func(err error) (MigrationReport, error) {
		if paused {
			client.Resume()
		}
		if imaged {
			err = errors.Join(err, dst.HostFS.Remove(p, path, uid))
		}
		if snapped {
			err = errors.Join(err, src.HostFS.Remove(p, snapPath, uid), src.Unprotect(p, path))
		}
		return rep, err
	}

	// Bulk phase: freeze the source image with a CoW snapshot and copy the
	// frozen bytes; the guest keeps writing to the live file throughout.
	if err := src.SnapshotFile(p, path, snapPath, uid); err != nil {
		return fail(fmt.Errorf("fabric: migration snapshot: %w", err))
	}
	snapped = true
	snapF, err := src.HostFS.Open(p, snapPath, uid, extfs.PermRead)
	if err != nil {
		return fail(err)
	}
	sizeBlocks := (snapF.Size() + bs - 1) / bs
	if err := dst.MkImage(p, path, uid, sizeBlocks, false); err != nil {
		return fail(fmt.Errorf("fabric: migration target image: %w", err))
	}
	imaged = true
	dstF, err := dst.HostFS.Open(p, path, uid, extfs.PermRead|extfs.PermWrite)
	if err != nil {
		return fail(err)
	}
	if err := copyFileRange(p, snapF, dstF, 0, sizeBlocks, bs); err != nil {
		return fail(fmt.Errorf("fabric: migration bulk copy: %w", err))
	}
	rep.BulkBlocks = int64(sizeBlocks)
	if err := src.HostFS.Remove(p, snapPath, uid); err != nil {
		return fail(err)
	}
	snapped = false

	// Pre-copy phase: chase regions the guest dirtied, reading the live
	// source file. Clear-then-copy converges: a write racing the copy
	// re-marks its region for the next round.
	liveF, err := src.HostFS.Open(p, path, uid, extfs.PermRead)
	if err != nil {
		return fail(err)
	}
	for pass := 0; pass < migMaxPasses; pass++ {
		if dlog.DirtyRegions() <= migStopCopyRegions {
			break
		}
		n, err := copyDirtyRegions(p, dlog, liveF, dstF, bs)
		if err != nil {
			return fail(fmt.Errorf("fabric: migration pass %d: %w", pass+1, err))
		}
		rep.Passes++
		rep.PassBlocks += n
	}

	// Stop-and-copy: gate submissions, drain in-flight I/O, copy the
	// remaining dirty regions from a quiesced source, and retarget the
	// mirror leg to a fresh VF on the destination.
	client.Pause(p)
	paused = true
	pauseStart := p.Now()
	n, err := copyDirtyRegions(p, dlog, liveF, dstF, bs)
	if err != nil {
		return fail(fmt.Errorf("fabric: migration final copy: %w", err))
	}
	rep.PauseBlocks = n
	newLeg, err := h.AttachLeg(p, vm, dst)
	if err != nil {
		return fail(fmt.Errorf("fabric: migration target VF: %w", err))
	}
	if err := client.Retarget(slot, dstIdx, newLeg.Drv); err != nil {
		h.DetachLeg(p, newLeg)
		return fail(err)
	}
	// The guest now runs on the target image: from here only the pause is left
	// to undo.
	imaged = false
	h.DetachLeg(p, *leg)
	*leg = newLeg
	if err := src.HostFS.Remove(p, path, uid); err != nil {
		return fail(err)
	}
	client.Resume()
	rep.Pause = p.Now() - pauseStart
	rep.Total = p.Now() - start
	f.Migrations++
	f.LastMigration = rep
	return rep, nil
}

// copyFileRange copies [startBlk, startBlk+nBlocks) between open files in
// bounded chunks.
func copyFileRange(p *sim.Proc, src, dst *extfs.File, startBlk, nBlocks, bs uint64) error {
	const chunkBlocks = 64
	buf := make([]byte, chunkBlocks*bs)
	for off := startBlk; off < startBlk+nBlocks; {
		n := startBlk + nBlocks - off
		if n > chunkBlocks {
			n = chunkBlocks
		}
		b := buf[:n*bs]
		if _, err := src.ReadAt(p, b, int64(off*bs)); err != nil {
			return err
		}
		if _, err := dst.WriteAt(p, b, int64(off*bs)); err != nil {
			return err
		}
		off += n
	}
	return nil
}

// copyDirtyRegions drains the dirty log once, copying each marked region
// from src to dst; returns blocks copied. Concurrent writes may re-mark
// regions behind the cursor — they belong to the next round.
func copyDirtyRegions(p *sim.Proc, dlog *extfs.DirtyLog, src, dst *extfs.File, bs uint64) (int64, error) {
	var blocks int64
	fileBlocks := (src.Size() + bs - 1) / bs
	for r := dlog.Next(0); r >= 0; r = dlog.Next(r + 1) {
		dlog.Clear(r)
		lba, count := dlog.RegionSpan(r)
		if lba >= fileBlocks {
			continue
		}
		if lba+count > fileBlocks {
			count = fileBlocks - lba
		}
		if err := copyFileRange(p, src, dst, lba, count, bs); err != nil {
			return blocks, err
		}
		blocks += int64(count)
	}
	return blocks, nil
}
