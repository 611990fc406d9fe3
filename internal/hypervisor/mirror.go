package hypervisor

import (
	"fmt"

	"nesc/internal/extfs"
	"nesc/internal/fabric"
	"nesc/internal/guest"
	"nesc/internal/sim"
)

// Mirrored VMs: one guest kernel driving a fabric mirror client over VFs on
// several fleet devices. Each leg is an ordinary file-backed VF on its own
// device (with its own copy of the disk image); the fabric client fans
// writes out to all of them and fails over reads. The device models are
// untouched — mirroring is purely a host-side construction, like md over
// two PCIe SSDs.

// NewMirroredVM builds a direct-assigned guest whose virtual disk is
// synchronously mirrored across one VF per listed fleet device. The disk
// image at cfg.DiskPath must already exist on every listed device's host
// filesystem with identical size. The guest sees a single block device; K-1
// device losses are survivable, which is why a device may be listed only
// once. When a leg cannot be attached the legs already attached are detached
// again.
func (h *Hypervisor) NewMirroredVM(p *sim.Proc, name string, cfg VMConfig, devices []int, fcfg fabric.Config) (*VM, error) {
	if cfg.Backend != BackendDirect {
		return nil, fmt.Errorf("hypervisor: mirrored VMs require BackendDirect")
	}
	if cfg.RawDevice {
		return nil, fmt.Errorf("hypervisor: mirrored VMs require a file-backed disk")
	}
	if len(devices) == 0 {
		return nil, fmt.Errorf("hypervisor: mirrored VM needs at least one device")
	}
	for i, di := range devices {
		for _, dj := range devices[:i] {
			if di == dj {
				// A second leg on the same device would share the first leg's
				// tree: K legs reported over one physical copy.
				return nil, fmt.Errorf("hypervisor: device %d listed twice: every mirror leg needs its own device", di)
			}
		}
	}
	vm := h.newVM(name, cfg)
	fail := func(err error) (*VM, error) {
		vm.Teardown(p)
		return nil, err
	}
	reps := make([]*fabric.Replica, 0, len(devices))
	for _, di := range devices {
		dev := h.Device(di)
		if dev == nil {
			return fail(fmt.Errorf("hypervisor: no device %d", di))
		}
		leg, err := h.attachLeg(p, vm, dev)
		if err != nil {
			return fail(fmt.Errorf("hypervisor: mirror leg on device %d: %w", di, err))
		}
		vm.Legs = append(vm.Legs, leg)
		reps = append(reps, fabric.NewReplica(di, leg.Drv))
	}
	// Fabric-level events and attribution report against the tenant's
	// first-leg function index (VF idx + 1) — the stable identity of the
	// mirrored disk, matching the device pipeline's row key.
	client, err := fabric.NewClient(h.Eng, h.Mem, fcfg, reps, h.tel, vm.Legs[0].VFIdx+1)
	if err != nil {
		return fail(err)
	}
	vm.Client = client
	vm.Kernel = guest.NewKernel(h.Eng, h.Mem, h.P.Guest, client)
	return vm, nil
}

// ReviveDevice tells every mirrored VM's client that a fenced device is
// back (Failed → Rebuilding, resilver starts). Pair with the fault
// injector's device revive.
func (h *Hypervisor) ReviveDevice(dev int) {
	for _, c := range h.mirrorClients() {
		c.Revive(dev)
	}
}

// mirrorClients lists every distinct mirror client with a leg attached, in
// device then VF order.
func (h *Hypervisor) mirrorClients() []*fabric.Client {
	var out []*fabric.Client
	seen := make(map[*fabric.Client]bool)
	for _, d := range h.devs {
		for _, st := range d.vfs {
			if st == nil || st.vm == nil || st.vm.Client == nil || seen[st.vm.Client] {
				continue
			}
			seen[st.vm.Client] = true
			out = append(out, st.vm.Client)
		}
	}
	return out
}

// FabricStats aggregates mirror-client counters across every mirrored VM.
type FabricStats struct {
	Clients int
	fabric.Counters
}

// FabricStatsNow sums the counters of every distinct mirror client.
func (h *Hypervisor) FabricStatsNow() FabricStats {
	var fs FabricStats
	for _, c := range h.mirrorClients() {
		fs.Clients++
		fs.Add(&c.Counters)
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

// MigrateVM live-migrates mirror leg slot of a mirrored VM to fleet device
// dstIdx: CoW-snapshot the source image, bulk-copy it to the destination's
// filesystem while the guest keeps running, chase dirtied regions in
// bounded pre-copy passes, then pause submissions, copy the remainder,
// atomically retarget the mirror leg to a fresh VF on the destination, and
// resume. Acknowledged writes are never lost: every post-snapshot write is
// either caught by a pass or copied inside the pause window.
func (h *Hypervisor) MigrateVM(p *sim.Proc, vm *VM, slot, dstIdx int) (MigrationReport, error) {
	var rep MigrationReport
	if vm.Client == nil {
		return rep, fmt.Errorf("hypervisor: %s is not a mirrored VM", vm.Name)
	}
	if slot < 0 || slot >= len(vm.Legs) {
		return rep, fmt.Errorf("hypervisor: %s has no mirror leg %d", vm.Name, slot)
	}
	leg := &vm.Legs[slot]
	src, dst := leg.Dev, h.Device(dstIdx)
	if dst == nil {
		return rep, fmt.Errorf("hypervisor: no device %d", dstIdx)
	}
	if src == dst {
		return rep, fmt.Errorf("hypervisor: leg %d already on device %d", slot, dstIdx)
	}
	for _, other := range vm.Legs {
		if other.Dev == dst {
			return rep, fmt.Errorf("hypervisor: device %d already mirrors %s", dstIdx, vm.Name)
		}
	}
	path, uid := vm.DiskPath, vm.UID
	bs := uint64(dst.Ctl.P.BlockSize)
	start := p.Now()

	// Arm dirty tracking before freezing the image so no write acknowledged
	// after the snapshot point can slip between snapshot and tracking.
	dlog := vm.Client.TrackDirty(migRegionBlocks)
	defer vm.Client.StopTracking()

	// Bulk phase: freeze the source image with a CoW snapshot and copy the
	// frozen bytes; the guest keeps writing to the live file throughout.
	snapPath := path + ".migrating"
	if err := src.SnapshotFile(p, path, snapPath, uid); err != nil {
		return rep, fmt.Errorf("hypervisor: migration snapshot: %w", err)
	}
	snapF, err := src.HostFS.Open(p, snapPath, uid, extfs.PermRead)
	if err != nil {
		return rep, err
	}
	sizeBlocks := (snapF.Size() + bs - 1) / bs
	if err := dst.MkImage(p, path, uid, sizeBlocks, false); err != nil {
		return rep, fmt.Errorf("hypervisor: migration target image: %w", err)
	}
	dstF, err := dst.HostFS.Open(p, path, uid, extfs.PermRead|extfs.PermWrite)
	if err != nil {
		return rep, err
	}
	if err := h.copyFileRange(p, snapF, dstF, 0, sizeBlocks, bs); err != nil {
		return rep, fmt.Errorf("hypervisor: migration bulk copy: %w", err)
	}
	rep.BulkBlocks = int64(sizeBlocks)
	if err := src.HostFS.Remove(p, snapPath, uid); err != nil {
		return rep, err
	}

	// Pre-copy phase: chase regions the guest dirtied, reading the live
	// source file. Clear-then-copy converges: a write racing the copy
	// re-marks its region for the next round.
	liveF, err := src.HostFS.Open(p, path, uid, extfs.PermRead)
	if err != nil {
		return rep, err
	}
	for pass := 0; pass < migMaxPasses; pass++ {
		if dlog.DirtyRegions() <= migStopCopyRegions {
			break
		}
		n, err := h.copyDirtyRegions(p, dlog, liveF, dstF, bs)
		if err != nil {
			return rep, fmt.Errorf("hypervisor: migration pass %d: %w", pass+1, err)
		}
		rep.Passes++
		rep.PassBlocks += n
	}

	// Stop-and-copy: gate submissions, drain in-flight I/O, copy the
	// remaining dirty regions from a quiesced source, and retarget the
	// mirror leg to a fresh VF on the destination.
	vm.Client.Pause(p)
	pauseStart := p.Now()
	resume := func() { vm.Client.Resume() }
	n, err := h.copyDirtyRegions(p, dlog, liveF, dstF, bs)
	if err != nil {
		resume()
		return rep, fmt.Errorf("hypervisor: migration final copy: %w", err)
	}
	rep.PauseBlocks = n
	newLeg, err := h.attachLeg(p, vm, dst)
	if err != nil {
		resume()
		return rep, fmt.Errorf("hypervisor: migration target VF: %w", err)
	}
	if err := vm.Client.Retarget(slot, dstIdx, newLeg.Drv); err != nil {
		h.detachLeg(p, newLeg)
		resume()
		return rep, err
	}
	h.detachLeg(p, *leg)
	*leg = newLeg
	if err := src.HostFS.Remove(p, path, uid); err != nil {
		resume()
		return rep, err
	}
	resume()
	rep.Pause = p.Now() - pauseStart
	rep.Total = p.Now() - start
	h.Migrations++
	h.LastMigration = rep
	return rep, nil
}

// copyFileRange copies [startBlk, startBlk+nBlocks) between open files in
// bounded chunks.
func (h *Hypervisor) copyFileRange(p *sim.Proc, src, dst *extfs.File, startBlk, nBlocks, bs uint64) error {
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
func (h *Hypervisor) copyDirtyRegions(p *sim.Proc, dlog *extfs.DirtyLog, src, dst *extfs.File, bs uint64) (int64, error) {
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
		if err := h.copyFileRange(p, src, dst, lba, count, bs); err != nil {
			return blocks, err
		}
		blocks += int64(count)
	}
	return blocks, nil
}
